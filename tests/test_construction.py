import dataclasses
import pickle
import random

import pytest

import sltkit as sk
from sltkit import Nfa
from sltkit.automata import DEFAULT_CAP, differences
from sltkit.cli import main
from sltkit.codes import Codewords, build_code
from sltkit.construction import _main_spec
from sltkit.slt import compile_spec

from conftest import (CORPUS_NAMES, Path, canonical_decomposition, corpus_text, encode_blocks,
                      encode_m_path, encode_path_width2, enumerate_m_paths, find_path,
                      paper_main, projected_language, random_member, reference_encoding,
                      reference_main_sets, symbol_spec, symbol_words)


def W(s: str):
    return tuple(s)


@pytest.fixture
def aplus():
    return sk.parse_nfa(corpus_text("aplus"))


@pytest.fixture
def ends_with_a():
    """Deterministic total two-state machine: words ending in a."""
    return Nfa(n=2, alphabet=("a", "b"),
               transitions=((0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)),
               initial=0, finals=frozenset({1}))


class TestWidth2:
    def test_aplus_sets(self, aplus):
        dec = sk.medvedev_width2(aplus)
        assert dec.kind == "width2" and dec.k == 2 and dec.residual == ()
        assert tuple(map(dec.slt.decode, dec.slt.prefixes)) == (("q0|a",),)
        assert symbol_words(dec.slt, "factors") == {("q0|a", "q1|a"), ("q1|a", "q1|a")}
        assert symbol_words(dec.slt, "suffixes") == {("q0|a",), ("q1|a",)}
        assert tuple(map(dec.slt.decode, dec.slt.short_words)) == (("q0|a",),)

    def test_alphabet_size_is_states_times_letters(self, machines):
        for m in machines.values():
            for machine in (m, sk.totalize(m)):
                dec = sk.medvedev_width2(machine)
                assert len(dec.slt.alphabet) == sk.trim(m).n * len(m.alphabet)

    def test_image_equals_language(self, aplus):
        dec = sk.medvedev_width2(aplus)
        local = sk.enumerate_language(sk.slt_to_nfa(dec.slt), 8)
        assert sorted({dec.pi(z) for z in local}) == sk.enumerate_language(aplus, 8)

    def test_partial_machine_is_accepted(self):
        partial = sk.parse_nfa(corpus_text("needs_sink"))
        dec = sk.medvedev_width2(partial)
        assert dec.slt.alphabet == ("q0|a", "q0|b", "q1|a", "q1|b")
        assert dec == sk.medvedev_width2(sk.totalize(partial))
        assert sk.verify_decomposition(partial, dec, mode="exact").ok

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_windows_are_those_of_successful_runs(self, machines, name):
        machine = machines[name]
        prepared = sk.trim(machine)
        dec = sk.medvedev_width2(machine)
        # in a trim machine every window shows up on a run of at most 2n+1 moves
        runs = [encode_path_width2(prepared, path)
                for length in range(1, 2 * prepared.n + 2)
                for path in enumerate_m_paths(prepared, prepared.initial, length)
                if path.end in prepared.finals]
        assert symbol_words(dec.slt, "prefixes") == {z[:1] for z in runs}
        assert symbol_words(dec.slt, "suffixes") == {z[-1:] for z in runs}
        assert symbol_words(dec.slt, "factors") == {z[i:i + 2] for z in runs
                                                    for i in range(len(z) - 1)}
        for m in (machine, sk.totalize(machine)):
            assert sk.verify_decomposition(m, dec, mode="exact").ok

    def test_unreachable_finals(self):
        m = sk.totalize(Nfa(n=3, alphabet=("a",), transitions=((0, "a", 0), (1, "a", 2)),
                            initial=0, finals=frozenset({2})))
        dec = sk.medvedev_width2(m)
        assert dec.slt.alphabet == ("q0|a",)
        assert dec.slt.suffixes == () and dec.slt.short_words == ()
        assert sk.enumerate_language(sk.slt_to_nfa(dec.slt), 6) == []
        assert sk.verify_decomposition(m, dec, mode="exact").ok


class TestPathEncodingWidth2:
    def test_two_step_path(self, aplus):
        path = Path(0, ((0, "a", 1), (1, "a", 1)))
        assert encode_path_width2(aplus, path) == ("q0|a", "q1|a")

    def test_single_step_path_is_short_word(self, aplus):
        dec = sk.medvedev_width2(aplus)
        encoded = encode_path_width2(aplus, Path(0, ((0, "a", 1),)))
        assert encoded == ("q0|a",)
        assert dec.slt.encode(encoded) in dec.slt.short_words

    def test_unsuccessful_path_rejected(self, aplus):
        with pytest.raises(ValueError, match="successful"):
            encode_path_width2(aplus, Path(1, ((1, "a", 1),)))

    def test_encoded_paths_are_members(self, machines):
        for m in machines.values():
            total = sk.totalize(m)
            dec = sk.medvedev_width2(total)
            for word in sk.enumerate_language(total, 6):
                path = find_path(total, word)
                encoded = encode_path_width2(total, path)
                assert sk.slt_membership(dec.slt, encoded)
                assert dec.pi(encoded) == word


class TestCanonicalDecomposition:
    def make_path(self, length):
        ts = [(0, "a", 1)] + [(1, "a", 1)] * (length - 1)
        return Path(0, tuple(ts))

    @pytest.mark.parametrize("length,expected", [(10, [4, 4, 2]), (8, [4, 4, 0]),
                                                 (9, [4, 4, 1]), (4, [4, 0])])
    def test_block_lengths(self, length, expected):
        blocks = canonical_decomposition(self.make_path(length), 4)
        assert [len(b) for b in blocks] == expected

    def test_concatenation_reproduces_path(self):
        path = self.make_path(11)
        blocks = canonical_decomposition(path, 4)
        flattened = tuple(t for b in blocks for t in b.transitions)
        assert flattened == path.transitions
        for left, right in zip(blocks, blocks[1:]):
            assert left.end == right.origin

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            canonical_decomposition(self.make_path(3), 4)


class TestBlockEncoding:
    def test_full_block(self):
        code = build_code(2, 2)  # state 0 -> 0100
        path = Path(0, ((0, "a", 1), (1, "b", 0), (0, "a", 0), (0, "b", 1)))
        assert encode_m_path(code, path) == ("a|0", "b|1", "a|0", "b|0")

    def test_empty_path(self):
        assert encode_m_path(build_code(2, 2), Path(0)) == ()

    def test_partial_block_uses_leading_digits(self):
        code = build_code(2, 2)
        path = Path(0, ((0, "a", 1), (1, "b", 0)))
        assert encode_m_path(code, path) == ("a|0", "b|1")

    def test_too_long_rejected(self):
        code = build_code(2, 2)
        with pytest.raises(ValueError):
            encode_m_path(code, Path(0, tuple([(0, "a", 0)] * 5)))


class TestMainSets:
    @pytest.mark.parametrize("h", [2, 3])
    def test_sweep_matches_path_enumeration(self, ends_with_a, h):
        dec = sk.medvedev_main(ends_with_a, h)
        code = build_code(ends_with_a.n, h)
        prefixes, suffixes, factors = reference_main_sets(ends_with_a, code, 2 * code.m - 2)
        assert symbol_words(dec.slt, "prefixes") == prefixes
        assert symbol_words(dec.slt, "suffixes") == suffixes
        assert symbol_words(dec.slt, "factors") == factors

    def test_sweep_matches_on_totalized_corpus_machine(self):
        total = sk.totalize(sk.parse_nfa(corpus_text("needs_sink")))
        dec = sk.medvedev_main(total, 2)
        trimmed = sk.trim(total)
        code = build_code(trimmed.n, 2)
        prefixes, suffixes, factors = reference_main_sets(trimmed, code, 2 * code.m - 2)
        assert symbol_words(dec.slt, "prefixes") == prefixes
        assert symbol_words(dec.slt, "suffixes") == suffixes
        assert symbol_words(dec.slt, "factors") == factors

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("h", [2, 3])
    def test_sweep_matches_on_prepared_corpus_machines(self, machines, name, h):
        source = sk.prepare(machines[name])
        dec = sk.medvedev_main(machines[name], h)
        prefixes, suffixes, factors = reference_main_sets(source.machine, source.code(h),
                                                          2 * dec.m - 2)
        assert symbol_words(dec.slt, "prefixes") == prefixes
        assert symbol_words(dec.slt, "suffixes") == suffixes
        assert symbol_words(dec.slt, "factors") == factors

    def test_literal_construction_on_totalized_machine(self):
        """The paper's construction on the totalized machine, sink included,
        has the same language as the build on the trimmed machine."""
        machine = sk.parse_nfa(corpus_text("needs_sink"))
        total = sk.totalize(machine)
        code = build_code(total.n, 2)
        prefixes, suffixes, factors = reference_main_sets(total, code, 2 * code.m)
        symbols = tuple(f"{a}|{d}" for a in total.alphabet for d in code.digits)
        literal = sk.Decomposition(
            kind="main", h=2, m=code.m,
            slt=symbol_spec(width=2 * code.m, alphabet=symbols, prefixes=prefixes,
                            suffixes=suffixes, factors=factors),
            pi=sk.Homomorphism(tuple((s, s.split("|")[0]) for s in symbols)),
            residual=tuple(sk.enumerate_language(total, 3 * code.m - 1)))
        trimmed = sk.medvedev_main(machine, 2)
        assert literal.m == 5 and trimmed.m == 4
        assert len(literal.slt.factors) > len(trimmed.slt.factors)
        assert sk.verify_decomposition(machine, literal, mode="exact").ok
        assert sk.nfa_equivalent(projected_language(literal, machine.alphabet),
                                 projected_language(trimmed, machine.alphabet)).equivalent

    def test_shape(self, ends_with_a):
        dec = sk.medvedev_main(ends_with_a, 2)
        assert dec.kind == "main" and dec.h == 2
        assert dec.k == 2 * dec.m - 2
        assert len(dec.slt.alphabet) == 2 * len(ends_with_a.alphabet)
        assert dec.residual == ()
        assert ({dec.pi(dec.slt.decode(z)) for z in dec.slt.short_words}
                == set(sk.enumerate_language(ends_with_a, 2 * dec.m - 3)))

    def test_short_words_are_short_members(self, aplus):
        dec = sk.medvedev_main(aplus, 2)
        assert dec.m == 4 and dec.residual == ()
        short = [dec.slt.decode(z) for z in dec.slt.short_words]
        assert sorted(map(dec.pi, short)) == [("a",) * i for i in range(1, 6)]
        assert all(z == sk.encode_word(aplus, dec, dec.pi(z)) for z in short)

    def test_partial_machine_is_accepted(self):
        partial = sk.parse_nfa(corpus_text("needs_sink"))
        dec = sk.medvedev_main(partial, 2)
        assert dec.m == 4 and len(dec.slt.alphabet) == 2 * len(partial.alphabet)
        assert dec == sk.medvedev_main(sk.totalize(partial), 2)
        assert sk.verify_decomposition(partial, dec, mode="exact").ok

    @pytest.mark.parametrize("h", [2, 3])
    def test_empty_language_gives_empty_decomposition(self, h):
        single = Nfa(n=1, alphabet=("a",), transitions=((0, "a", 0),),
                     initial=0, finals=frozenset())
        for machine in (single, sk.totalize(single)):
            dec = sk.medvedev_main(machine, h)
            assert dec.m == build_code(2, h).m
            assert dec.slt.prefixes == dec.slt.suffixes == dec.slt.factors == ()
            assert dec.residual == ()
            report = sk.verify_decomposition(machine, dec, mode="exact")
            assert report.ok and report.mode == "exact"

    @staticmethod
    def sample_paths(m, origin, length, limit):
        """First ``limit`` paths of the given length in canonical order."""
        outgoing = {}
        for t in m.transitions:
            outgoing.setdefault(t[0], []).append(t)
        seqs = [()]
        for _ in range(length):
            seqs = [s + (t,) for s in seqs
                    for t in outgoing[s[-1][2] if s else origin]][:limit]
        return [Path(origin, s) for s in seqs]

    def test_window_soundness_on_sampled_paths(self, ends_with_a):
        dec = sk.medvedev_main(ends_with_a, 2)
        code = build_code(ends_with_a.n, 2)
        factor_set = symbol_words(dec.slt, "factors")
        prefix_set = symbol_words(dec.slt, "prefixes")
        suffix_set = symbol_words(dec.slt, "suffixes")
        width = dec.k
        for length in (3 * dec.m, 4 * dec.m + 1, 5 * dec.m):
            for path in self.sample_paths(ends_with_a, ends_with_a.initial, length, 64):
                z = encode_blocks(code, path)
                assert all(z[i:i + width] in factor_set
                           for i in range(len(z) - width + 1))
                assert z[:width - 1] in prefix_set
                if path.end in ends_with_a.finals:
                    assert z[-(width - 1):] in suffix_set


# (aa)*a: two states on an a-cycle, the second final; m = 3 at h = 4
ODD_RUNS = Nfa(n=2, alphabet=("a",), transitions=((0, "a", 1), (1, "a", 0)),
               initial=0, finals=frozenset({1}))

# the first n=8 machine `bench/gen.py` draws for seed 1: each letter
# permutes the states
PERMUTATION_DFA_8 = """\
alphabet a b
states 8
initial 0
final 1
final 4
final 6
final 7
trans 0 a 3
trans 0 b 2
trans 1 a 6
trans 1 b 6
trans 2 a 1
trans 2 b 4
trans 3 a 5
trans 3 b 0
trans 4 a 7
trans 4 b 1
trans 5 a 0
trans 5 b 3
trans 6 a 4
trans 6 b 5
trans 7 a 2
trans 7 b 7
"""


class TestWindowWidth:
    """The build reads windows of width 2m-2, and no narrower width is
    sound for every machine."""

    def test_width_2m_minus_2_verifies(self):
        dec = sk.medvedev_main(ODD_RUNS, 4)
        assert (dec.m, dec.k) == (3, 4)
        report = sk.verify_decomposition(ODD_RUNS, dec, mode="exact")
        assert report.ok and report.mode == "exact"

    def test_width_2m_minus_3_lets_in_an_even_run(self):
        dec = sk.medvedev_main(ODD_RUNS, 4)
        source = sk.prepare(ODD_RUNS)
        narrow = _main_spec(source, 4, 3, DEFAULT_CAP)
        with pytest.raises(ValueError, match="main decompositions have width at least 2m-2"):
            dataclasses.replace(dec, slt=narrow)
        # the search exact verification runs, on the narrow spec's claim
        claimed = compile_spec(narrow, onto=(ODD_RUNS.alphabet, dec.pi.letter))
        first = next(differences(claimed, ODD_RUNS.table, DEFAULT_CAP))
        assert first == (W("aaaa"), True)
        preimages = [z for z in sk.enumerate_language(sk.slt_to_nfa(narrow), 4)
                     if len(z) == 4 and dec.pi(z) == W("aaaa")]
        assert preimages[0] == ("a|1", "a|0", "a|0", "a|1")

    def test_permutation_dfa_at_ratio_2_builds_under_the_cap(self):
        machine = sk.parse_nfa(PERMUTATION_DFA_8)
        dec = sk.medvedev_main(machine, 2)
        assert (dec.m, dec.k, len(dec.slt.factors)) == (7, 12, 327_680)
        report = sk.verify_decomposition(machine, dec, mode="exact")
        assert report.ok and report.mode == "exact"


class TestWordEncoding:
    def test_round_trip_long_word(self, aplus):
        dec = sk.medvedev_main(sk.totalize(aplus), 2)
        word = ("a",) * 12
        z = sk.encode_word(aplus, dec, word)
        assert z is not None and len(z) == 12
        assert sk.slt_membership(dec.slt, z)
        assert sk.decode_word(dec, z) == word
        # digit track spells the block-origin codewords
        digits = "".join(chr(int(s.split("|")[1])) for s in z)
        assert digits[:4] in set(build_code(2, 2).codewords)

    def test_aligned_windows_decode_to_block_origins(self, ends_with_a):
        dec = sk.medvedev_main(ends_with_a, 2)
        code = build_code(ends_with_a.n, 2)
        m = dec.m
        word = tuple("abab" * 4)  # length 16 >= 3m, ends in b... use a-ending
        word = word[:-1] + ("a",)
        z = sk.encode_word(ends_with_a, dec, word)
        assert z is not None
        path = find_path(ends_with_a, word)
        origins = [b.origin for b in canonical_decomposition(path, m)]
        digits = "".join(chr(int(s.split("|")[1])) for s in z)
        for block in range(len(word) // m - 1):
            window = digits[block * m: block * m + 2 * m - 1]
            assert sk.factor_decode(code, window) == (1, origins[block])

    def test_short_word_is_encoded(self, aplus):
        dec = sk.medvedev_main(sk.totalize(aplus), 2)
        z = sk.encode_word(aplus, dec, ("a",) * 5)
        assert z == reference_encoding(aplus, dec, ("a",) * 5)
        assert sk.slt_membership(dec.slt, z) and dec.slt.encode(z) in dec.slt.short_words

    def test_non_member_rejected(self, aplus):
        dec = sk.medvedev_main(sk.totalize(aplus), 2)
        with pytest.raises(ValueError, match="language"):
            sk.encode_word(aplus, dec, ())

    def test_unknown_letter_rejected_before_membership(self, aplus):
        dec = sk.medvedev_main(aplus, 2)
        with pytest.raises(ValueError, match="unknown letter: 'z'"):
            sk.encode_word(aplus, dec, ("a", "z", "b"))

    def test_block_length_mismatch_rejected(self, machines):
        dec = sk.medvedev_main(machines["abbplus"], 2)  # four states: m=6
        assert dec.m == 6
        with pytest.raises(ValueError, match="block length"):
            sk.encode_word(machines["aplus"], dec, ("a",) * 18)

    def test_machine_mismatch_with_equal_block_length_rejected(self, machines):
        dec = sk.medvedev_main(machines["abbplus"], 3)
        other = machines["abplus"]
        assert dec.m == sk.prepare(other).code(3).m == 4
        assert dec.source_fingerprint != sk.prepare(other).fingerprint
        with pytest.raises(ValueError, match="built for machine"):
            sk.encode_word(other, dec, ("a", "b") * 6)
        # without a fingerprint, the encoder's own output check refuses it
        anonymous = dataclasses.replace(dec, source_fingerprint="")
        with pytest.raises(ValueError, match="not in the decomposition's slt language"):
            sk.encode_word(other, anonymous, ("a", "b") * 6)

    def test_decode_is_projection(self, ends_with_a):
        dec = sk.medvedev_main(ends_with_a, 2)
        assert sk.decode_word(dec, ("a|0", "b|1")) == ("a", "b")
        assert sk.decode_word(dec, ()) == ()
        with pytest.raises(ValueError):
            sk.decode_word(dec, ("z|9",))


def members(machine, m: int, count: int, seed: int):
    """Up to ``count`` random members with lengths from 3m to 6m."""
    rng = random.Random(seed)
    words = (random_member(machine, rng.randint(3 * m, 6 * m), rng) for _ in range(count))
    return [w for w in words if w is not None]


def permuted(dec: sk.Decomposition, seed: int) -> sk.Decomposition:
    """``dec`` over a shuffled local alphabet: the same symbol sets, re-encoded."""
    spec = dec.slt
    alphabet = list(spec.alphabet)
    random.Random(seed).shuffle(alphabet)
    assert tuple(alphabet) != spec.alphabet
    sets = {attr: [spec.decode(z) for z in getattr(spec, attr)]
            for attr in ("prefixes", "suffixes", "factors", "short_words")}
    return dataclasses.replace(dec, slt=symbol_spec(spec.width, alphabet, **sets))


class TestFusedEncoder:
    """``encode_word`` against its definition: the block encoding of the
    least-viable-successor run."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("h", [2, 3])
    def test_equals_reference(self, machines, build_main, name, h):
        machine, dec = machines[name], build_main(name, h)
        shuffled = permuted(dec, seed=h)
        reloaded = sk.parse_decomposition(sk.serialize_decomposition(shuffled))
        assert reloaded.slt.alphabet == shuffled.slt.alphabet
        words = members(machine, dec.m, 12, seed=len(name) * h)
        assert words
        for word in words:
            expected = reference_encoding(machine, dec, word)
            for d in (dec, shuffled, reloaded):
                z = sk.encode_word(machine, d, word)
                assert z == expected
                own = {id(s) for s in d.slt.alphabet}
                assert all(id(s) in own for s in z)  # the spec's own strings

    def test_symbol_missing_from_the_spec_is_named(self, machines, build_main):
        machine, dec = machines["nondet"], build_main("nondet", 2)
        word = members(machine, dec.m, 1, seed=3)[0]
        gone = reference_encoding(machine, dec, word)[dec.m]
        spec = dec.slt
        alphabet = [s for s in spec.alphabet if s != gone]
        sets = {attr: [w for w in map(spec.decode, getattr(spec, attr)) if gone not in w]
                for attr in ("prefixes", "suffixes", "factors", "short_words")}
        pi = sk.Homomorphism(tuple(p for p in dec.pi.pairs if p[0] != gone))
        reduced = dataclasses.replace(dec, slt=symbol_spec(spec.width, alphabet, **sets), pi=pi)
        with pytest.raises(ValueError, match=f"unknown symbol: {gone!r}"):
            sk.encode_word(machine, reduced, word)

    def test_unranks_each_block_origin_once(self, monkeypatch):
        # the context automaton unranks each codeword once per source and
        # ratio; the build and every later encoding read it there
        machine = sk.parse_nfa(corpus_text("nondet"))  # a source with no automaton yet
        unranked: list[tuple[int, int]] = []
        unrank, read = Codewords.__getitem__, Codewords.__iter__

        def counting(self, q):
            unranked.append((self.h, q))
            return unrank(self, q)

        def each(self):
            for q, word in enumerate(read(self)):
                unranked.append((self.h, q))
                yield word

        monkeypatch.setattr(Codewords, "__getitem__", counting)
        monkeypatch.setattr(Codewords, "__iter__", each)
        for h in (2, 3):
            dec = sk.medvedev_main(machine, h)
            for word in members(machine, dec.m, 20, seed=5) + [("a",) * (12 * dec.m)]:
                assert sk.encode_word(machine, dec, word) is not None
        states = range(sk.prepare(machine).machine.n)
        assert sorted(unranked) == [(h, q) for h in (2, 3) for q in states]

    def test_rejections_keep_their_order(self, machines, build_main):
        aplus, abplus = machines["aplus"], machines["abplus"]
        foreign = build_main("abbplus", 2)  # m=6, while aplus has m=4
        same_m = build_main("abbplus", 3)  # m=4, as abplus at h=3
        cases = [
            (aplus, sk.medvedev_width2(aplus), ("z",), "main-kind"),
            (aplus, foreign, ("a", "z") * 9, "unknown letter: 'z'"),
            (aplus, foreign, (), "not in the machine's language"),
            (aplus, foreign, ("a",) * 2, "block length"),
            (abplus, same_m, ("a", "b"), "built for machine"),
            (abplus, dataclasses.replace(same_m, source_fingerprint=""), ("a", "b") * 6,
             "not in the decomposition's slt language"),
        ]
        for machine, dec, word, message in cases:
            with pytest.raises(ValueError, match=message):
                sk.encode_word(machine, dec, word)

    def test_rejections_exit_two(self, tmp_path, machines, build_main, capsys):
        for name in ("aplus", "abplus"):
            (tmp_path / f"{name}.nfa").write_text(corpus_text(name))
        dec_path = tmp_path / "abbplus.h3.dec"
        dec_path.write_text(sk.serialize_decomposition(build_main("abbplus", 3)))
        for name, word, message in (("aplus", "a.z", "unknown letter: 'z'"),
                                    ("abplus", "a.b.b", "not in the machine's language"),
                                    ("aplus", "a.a", "block length"),
                                    ("abplus", "a.b", "built for machine")):
            status = main(["encode", "--nfa", str(tmp_path / f"{name}.nfa"),
                           "--dec", str(dec_path), "--word", word])
            assert status == 2
            assert message in capsys.readouterr().err


class TestPreparedMachine:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("h", [None, 2, 3])
    def test_totalized_build_is_byte_identical(self, machines, name, h):
        machine = machines[name]

        def build(m):
            return sk.medvedev_width2(m) if h is None else sk.medvedev_main(m, h)

        text = sk.serialize_decomposition(build(machine))
        assert sk.serialize_decomposition(build(sk.totalize(machine))) == text
        assert f"source {sk.nfa_fingerprint(sk.trim(machine))}\n" in text


class TestSerialization:
    @pytest.mark.parametrize("kind", ["width2", "main"])
    def test_round_trip(self, aplus, kind):
        total = sk.totalize(aplus)
        dec = sk.medvedev_width2(total) if kind == "width2" else sk.medvedev_main(total, 2)
        text = sk.serialize_decomposition(dec)
        again = sk.parse_decomposition(text)
        assert again == dec
        assert sk.serialize_decomposition(again) == text

    def test_pickle_round_trip(self, build_main):
        dec = build_main("nondet", 2)
        again = pickle.loads(pickle.dumps(dec))
        assert again == dec and again.slt.encode(("a|0",)) == dec.slt.encode(("a|0",))

    @pytest.mark.parametrize("symbol, letter, residual", [
        ("a#", "a", ()),                  # a symbol
        ("a\x0cb", "a", ()),              # a symbol that reads as two lines
        ("a|0", "a b", ()),               # a letter
        ("a|0", "a\xa0b", ()),            # one that reads as two tokens
        ("a|0", "a", (("a#",),)),         # a residual letter that reads as a comment
        ("a|0", "a", (("a.b",),)),        # one that reads as two letters
        ("a|0", "a", (("a", ""),)),       # an empty one
    ])
    def test_unserializable_token_is_rejected(self, symbol, letter, residual):
        dec = sk.Decomposition(kind="main", slt=symbol_spec(width=4, alphabet=(symbol,)),
                               pi=sk.Homomorphism(((symbol, letter),)), residual=residual,
                               h=2, m=2)
        with pytest.raises(ValueError, match="token not serializable"):
            sk.serialize_decomposition(dec)

    @pytest.mark.parametrize("fingerprint", [
        "ab#cd",  # reads back as ab
        "a b",    # reads as two tokens
    ])
    def test_unserializable_source_fingerprint_is_rejected(self, aplus, fingerprint):
        dec = dataclasses.replace(sk.medvedev_width2(aplus), source_fingerprint=fingerprint)
        with pytest.raises(ValueError, match="token not serializable"):
            sk.serialize_decomposition(dec)

    def test_parse_rejects_a_second_source_line(self, aplus):
        text = sk.serialize_decomposition(sk.medvedev_width2(aplus))
        assert text.count("\nsource ") == 1
        with pytest.raises(sk.ParseError, match="duplicate 'source'"):
            sk.parse_decomposition(text.replace("\nsource ", "\nsource 0123\nsource ", 1))

    def test_parse_rejects_missing_kind(self):
        with pytest.raises(sk.ParseError, match="kind"):
            sk.parse_decomposition("k 2\nsymbol a -> a\n")

    def test_parse_names_the_line_of_an_unknown_symbol(self):
        text = "kind width2\nk 2\nsymbol q0|a -> a\nI\nq0|a\nT\nq0|a\nF\nq0|a.q1|a\n"
        with pytest.raises(sk.ParseError, match="^line 8: unknown symbol: 'q1|a'$"):
            sk.parse_decomposition(text)

    def test_parse_rejects_a_section_word_before_the_symbol_lines(self):
        text = "kind width2\nk 2\nI\nq0|a\nsymbol q0|a -> a\n"
        with pytest.raises(sk.ParseError, match="^line 4: unknown symbol: 'q0|a'$"):
            sk.parse_decomposition(text)

    def test_parse_rejects_bad_width(self):
        text = "kind main\nh 2\nm 3\nk 3\nsymbol a|0 -> a\nI\nT\nF\nSHORT\nRESIDUAL\n"
        with pytest.raises(ValueError, match="main decompositions have width at least 2m-2"):
            sk.parse_decomposition(text)

    def test_comments_and_blank_lines_ignored(self, aplus):
        dec = sk.medvedev_width2(sk.totalize(aplus))
        text = sk.serialize_decomposition(dec)
        noisy = "# header\n\n" + text.replace("kind width2", "kind width2  # trailing")
        assert sk.parse_decomposition(noisy) == dec

    def test_fingerprint_changes_with_machine(self, aplus, ends_with_a):
        assert sk.nfa_fingerprint(aplus) != sk.nfa_fingerprint(ends_with_a)
        assert sk.nfa_fingerprint(aplus) == sk.nfa_fingerprint(sk.parse_nfa(corpus_text("aplus")))


class TestResidualOrder:
    """The residual is kept as given when it is already a strictly increasing
    length-lex tuple of tuples, and canonicalised otherwise."""

    @staticmethod
    def with_residual(dec, residual):
        return dataclasses.replace(dec, residual=residual)

    def test_ordered_residual_is_kept(self, machines):
        dec = paper_main(machines["nondet"], 2)
        ordered = tuple(dec.residual)
        assert ordered and self.with_residual(dec, ordered).residual is ordered

    def test_build_keeps_the_enumerated_residual(self, machines, build_main):
        # the paper's main build lists the source words below 3m; this one, none
        dec = paper_main(machines["evens"], 2)
        assert dec.residual == tuple(sk.enumerate_language(sk.trim(sk.parse_nfa(
            corpus_text("evens"))), 3 * dec.m - 1))
        assert build_main("evens", 2).residual == ()

    @pytest.mark.parametrize("residual", [
        (W("ba"), W("a")),                      # length order broken
        (W("b"), W("a")),                       # lex order broken
        (W("a"), W("a"), W("ab")),              # duplicate
        [W("a"), W("ab")],                      # not a tuple
        (W("a"), ["a", "b"]),                   # a word not a tuple
        ("a", "ab"),                            # words as strings
    ])
    def test_other_residuals_are_canonicalised(self, build_main, residual):
        dec = self.with_residual(build_main("aplus", 2), residual)
        canonical = tuple(sorted({tuple(w) for w in residual}, key=lambda w: (len(w), w)))
        assert dec.residual == canonical and type(dec.residual) is tuple
        assert all(type(w) is tuple for w in dec.residual)

    @pytest.mark.parametrize("residual", [((), W("a")), (W("a"), ()), ((),)])
    def test_empty_word_is_rejected(self, build_main, residual):
        with pytest.raises(ValueError, match="empty word"):
            self.with_residual(build_main("aplus", 2), residual)


class TestLargeLocalAlphabets:
    """Local alphabets of more than 256 symbols build, round trip and verify."""

    @staticmethod
    def round_trip_and_verify(machine, dec):
        text = sk.serialize_decomposition(dec)
        again = sk.parse_decomposition(text)
        assert again == dec and sk.serialize_decomposition(again) == text
        report = sk.verify_decomposition(machine, again, mode="exact")
        assert report.ok and report.mode == "exact"

    def test_main_with_ratio_times_letters_above_256(self):
        # nonempty words over three letters
        moves = tuple((src, a, 1) for src in (0, 1) for a in "abc")
        machine = Nfa(n=2, alphabet=("a", "b", "c"), transitions=moves, initial=0,
                      finals=frozenset({1}))
        dec = sk.medvedev_main(machine, 130)
        assert len(dec.slt.alphabet) == 390
        # c-symbols have indices 260 and up
        assert max(map(max, dec.slt.factors)) >= chr(260)
        self.round_trip_and_verify(machine, dec)

    def test_width2_with_states_times_letters_above_256(self):
        # a 130-state chain over {a,b}, looping on a at its final end
        moves = tuple((q, a, q + 1) for q in range(129) for a in "ab") + ((129, "a", 129),)
        machine = Nfa(n=130, alphabet=("a", "b"), transitions=moves, initial=0,
                      finals=frozenset({129}))
        dec = sk.medvedev_width2(machine)
        assert len(dec.slt.alphabet) == 260
        assert symbol_words(dec.slt, "suffixes") == {("q128|a",), ("q128|b",), ("q129|a",)}
        self.round_trip_and_verify(machine, dec)
