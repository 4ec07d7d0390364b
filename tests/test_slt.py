import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, Nfa, SltSpec
from sltkit.slt import check_alphabet_size, compile_spec

from conftest import (CORPUS_NAMES, corpus_text, infer_slt, lh_nfa, sampled_min_width,
                      symbol_spec, symbol_words)
from test_random_machines import random_machines


def W(s: str):
    return tuple(s)


# local language of alternating primed/plain pairs: (a'a)+ union (b'b)+
PAIRED_SPEC = symbol_spec(width=2, alphabet=("a'", "a", "b'", "b"),
                          prefixes=[("a'",), ("b'",)], suffixes=[("a",), ("b",)],
                          factors=[("a'", "a"), ("b'", "b"), ("a", "a'"), ("b", "b'")])


@pytest.fixture
def paired():
    return PAIRED_SPEC


@pytest.fixture
def triple_b():
    """Width-3 language of one or more repetitions of abb."""
    return symbol_spec(width=3, alphabet=("a", "b"), prefixes=[W("ab")], suffixes=[W("bb")],
                       factors=[W("bab"), W("abb"), W("bba")])


def brute_language(spec: SltSpec, max_len: int):
    words, level = [], [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in spec.alphabet]
        words.extend(w for w in level if sk.slt_membership(spec, w))
    key = lambda w: (len(w), spec.encode(w))
    return sorted(words, key=key)


class TestWindowOps:
    def test_basic(self):
        prefix, suffix, factors = sk.window_ops(W("abcd"), 2)
        assert prefix == W("ab") and suffix == W("cd")
        assert factors == {W("ab"), W("bc"), W("cd")}

    def test_short_word_is_its_own_window(self):
        prefix, suffix, factors = sk.window_ops(W("a"), 3)
        assert prefix == W("a") and suffix == W("a") and factors == frozenset()

    def test_repeated_factors_deduplicate(self):
        assert sk.window_ops(W("abab"), 2)[2] == {W("ab"), W("ba")}

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            sk.window_ops((), 2)


class TestSubword:
    """The factor of a word from 1-based position start through end, as the
    paper writes it, is the slice [start - 1:end]."""

    def test_middle(self):
        assert W("abcde")[2 - 1:4] == W("bcd")

    def test_empty_when_end_precedes_start(self):
        assert W("abc")[3 - 1:2] == ()

    def test_whole_word(self):
        assert W("abc")[1 - 1:3] == W("abc")

    @given(st.text(alphabet="ab", min_size=1, max_size=12), st.data())
    def test_matches_prefix_of_suffix_composition(self, s, data):
        w = tuple(s)
        start = data.draw(st.integers(1, len(w)))
        end = data.draw(st.integers(1, len(w)))
        direct = w[start - 1:end]
        if end < start:
            assert direct == ()
        else:
            tail = sk.window_ops(w, len(w) - start + 1)[1]
            assert direct == sk.window_ops(tail, end - start + 1)[0]
            assert len(direct) == end - start + 1


def test_an_alphabet_has_at_most_one_symbol_per_character():
    # SltSpec and both builds refuse a larger one before making its symbols
    check_alphabet_size(sys.maxunicode + 1, "alphabet")
    with pytest.raises(ValueError, match="alphabet of 1114113 symbols exceeds the "
                                         "index-string limit of 1114112"):
        check_alphabet_size(sys.maxunicode + 2, "alphabet")


class TestMembership:
    def test_paired_accepts_alternation(self, paired):
        assert sk.slt_membership(paired, ("a'", "a", "a'", "a"))

    def test_paired_rejects_mixed_factor(self, paired):
        assert not sk.slt_membership(paired, ("a'", "a", "b'", "b"))

    def test_triple_b(self, triple_b):
        assert sk.slt_membership(triple_b, W("abbabb"))
        assert not sk.slt_membership(triple_b, W("abbb"))

    def test_unknown_symbol(self, paired):
        with pytest.raises(ValueError, match="unknown symbol"):
            sk.slt_membership(paired, ("z",))

    def test_short_words_are_explicit(self):
        spec = symbol_spec(width=3, alphabet=("a",), prefixes=[W("aa")], suffixes=[W("aa")],
                           factors=[], short_words=[W("aa")])
        assert sk.slt_membership(spec, W("aa"))
        assert not sk.slt_membership(spec, W("a"))
        assert not sk.slt_membership(spec, W("aaa"))  # length k goes through factors

    def test_constructor_takes_index_strings_only(self):
        ok = dict(width=3, alphabet=("a", "b"), prefixes=["\x00\x01"], suffixes=["\x01\x01"],
                  factors=["\x00\x01\x01"], short_words=["\x00"])
        spec = SltSpec(**ok)
        assert SltSpec(width=3, alphabet=spec.alphabet, prefixes=spec.prefixes,
                       suffixes=spec.suffixes, factors=spec.factors,
                       short_words=spec.short_words) == spec
        for field, words, message in (("prefixes", [("a", "b")], "index strings"),
                                      ("prefixes", [["\x00", "\x01"]], "index strings.*got list"),
                                      ("factors", ["\x00\x01"], "length in 3..3"),
                                      ("short_words", [""], "length in 1..2"),
                                      ("suffixes", ["\x01\x02"], "unknown symbol index 2")):
            with pytest.raises(ValueError, match=message):
                SltSpec(**{**ok, field: words})

    def test_shuffled_input_with_duplicates_equals_sorted_input(self):
        built = sk.medvedev_main(sk.parse_nfa(corpus_text("nondet")), 2).slt
        attrs = ("prefixes", "suffixes", "factors", "short_words")
        rng = random.Random(7)

        def shuffled(words):
            out = list(words) + list(words[:2])
            rng.shuffle(out)
            return out

        def spec(make):
            return SltSpec(width=built.width, alphabet=built.alphabet,
                           **{attr: make(getattr(built, attr)) for attr in attrs})

        with_duplicates = spec(lambda words: tuple(sorted(words + words[:2])))
        for other in (spec(tuple), spec(shuffled), spec(iter), with_duplicates):
            assert other == built
            assert all(getattr(other, attr) == getattr(built, attr) for attr in attrs)
        k = built.width
        for field, bad, message in (("prefixes", ("a",) * (k - 1), "index strings"),
                                    ("prefixes", "\x00" * k, "length in"),
                                    ("factors", "\x09" * k, "unknown symbol index 9")):
            messages = set()
            for make in (lambda words: words + (bad,), lambda words: (bad,) + words,
                         lambda words: shuffled(words + (bad,))):
                with pytest.raises(ValueError) as error:
                    SltSpec(width=k, alphabet=built.alphabet,
                            **{attr: (make if attr == field else tuple)(getattr(built, attr))
                               for attr in attrs})
                messages.add(str(error.value))
            assert len(messages) == 1 and message in messages.pop()

    def test_factor_set_is_built_only_for_the_read_side(self):
        machine = sk.parse_nfa(corpus_text("nondet"))
        built = sk.medvedev_main(machine, 2)
        parsed = sk.parse_decomposition(sk.serialize_decomposition(built))
        for dec in (built, parsed):
            for mode in ("bounded", "exact"):
                assert sk.verify_decomposition(machine, dec, mode=mode).ok
        assert ["_factor_set" in vars(dec.slt) for dec in (built, parsed)] == [False, False]
        sk.slt_membership(built.slt, built.slt.decode(built.slt.prefixes[0]
                                                      + built.slt.suffixes[0]))
        recognizer = sk.StreamRecognizer(parsed.slt)
        for spec in (built.slt, parsed.slt):
            assert "_factor_set" in vars(spec)
            assert spec._factor_set is vars(spec)["_factor_set"] == frozenset(spec.factors)
        assert recognizer._factor_set is parsed.slt._factor_set

    def test_spec_equality_is_structural(self, paired):
        reordered = symbol_spec(width=2, alphabet=("a'", "a", "b'", "b"),
                                prefixes=[("b'",), ("a'",)], suffixes=[("b",), ("a",)],
                                factors=[("b", "b'"), ("a", "a'"), ("b'", "b"), ("a'", "a")])
        assert reordered == paired


class TestStreaming:
    def test_accepting_feed(self, paired):
        r = sk.StreamRecognizer(paired)
        for s in ("a'", "a", "a'", "a"):
            r.feed(s)
        assert r.finish()

    def test_failing_factor(self, paired):
        r = sk.StreamRecognizer(paired)
        for s in ("a'", "a", "b'"):
            r.feed(s)
        assert r.finish() is False

    def test_short_word_path(self):
        spec = symbol_spec(width=3, alphabet=("a",), short_words=[W("a")])
        r = sk.StreamRecognizer(spec)
        r.feed("a")
        assert r.finish()

    def test_feed_after_finish(self, paired):
        r = sk.StreamRecognizer(paired)
        r.feed("a'")
        r.finish()
        with pytest.raises(RuntimeError):
            r.feed("a")
        r.reset()
        r.feed("a'")
        r.feed("a")
        assert r.finish()

    def test_unknown_symbol_leaves_the_state_untouched(self, paired):
        r = sk.StreamRecognizer(paired)
        for s in ("a'", "a", "a'"):
            r.feed(s)
        before = dict(vars(r))
        with pytest.raises(ValueError, match="unknown symbol: 'z'"):
            r.feed("z")
        assert vars(r) == before
        r.feed("a")
        assert r.finish()

    def test_feed_does_not_encode_through_the_spec(self, paired, monkeypatch):
        def refuse(self, symbols):
            raise AssertionError("SltSpec.encode called")

        monkeypatch.setattr(SltSpec, "encode", refuse)
        r = sk.StreamRecognizer(paired)
        for s in ("a'", "a", "b'", "b"):
            r.feed(s)
        assert r.finish() is False

    @settings(max_examples=200, deadline=None)
    @given(symbols=st.lists(st.sampled_from(["a'", "a", "b'", "b"]),
                            min_size=1, max_size=8))
    def test_agrees_with_batch(self, symbols):
        r = sk.StreamRecognizer(PAIRED_SPEC)
        for s in symbols:
            r.feed(s)
        assert r.finish() == sk.slt_membership(PAIRED_SPEC, tuple(symbols))


# symbols whose alphabet order is not their string order
MIXED = ("b2", "a10", "a9")


def reference_member(sample, k, word) -> bool:
    """Membership in the tightest width-k spec of ``sample``, decided from
    window triples of symbol tuples."""
    if len(word) < k:
        return word in sample
    heads = {sk.window_ops(w, k - 1)[:2] for w in sample if len(w) >= k - 1}
    factors = set().union(*(sk.window_ops(w, k)[2] for w in sample))
    prefix, suffix, _ = sk.window_ops(word, k - 1)
    return (prefix in {p for p, _ in heads} and suffix in {s for _, s in heads}
            and sk.window_ops(word, k)[2] <= factors)


class TestAgainstWindowOps:
    @settings(max_examples=150, deadline=None)
    @given(sample=st.lists(st.lists(st.sampled_from(MIXED), min_size=1, max_size=9)
                           .map(tuple), min_size=1, max_size=5),
           k=st.integers(2, 4))
    def test_inferred_spec_decides_like_window_triples(self, sample, k):
        spec = infer_slt(sample, k, MIXED)
        mutants = [w[:i] + (s,) + w[i + 1:] for w in sample for i in range(len(w))
                   for s in MIXED if s != w[i]]
        for word in sample + mutants:
            expected = reference_member(set(sample), k, word)
            assert sk.slt_membership(spec, word) == expected, word
            r = sk.StreamRecognizer(spec)
            for symbol in word:
                r.feed(symbol)
            assert r.finish() == expected, word
        assert all(sk.slt_membership(spec, w) for w in sample)


class TestCompile:
    def test_paired_matches_hand_built_machine(self, paired):
        hand = Nfa(n=5, alphabet=("a'", "a", "b'", "b"),
                   transitions=((0, "a'", 1), (1, "a", 2), (2, "a'", 1),
                                (0, "b'", 3), (3, "b", 4), (4, "b'", 3)),
                   initial=0, finals=frozenset({2, 4}))
        assert sk.nfa_equivalent(sk.slt_to_nfa(paired), hand).equivalent

    def test_empty_spec_gives_empty_language(self):
        spec = symbol_spec(width=2, alphabet=("a",))
        assert sk.enumerate_language(sk.slt_to_nfa(spec), 6) == []

    def test_triple_b_is_abb_plus(self, triple_b):
        abb = sk.parse_nfa(corpus_text("abbplus"))
        compiled = sk.slt_to_nfa(triple_b)
        assert sk.nfa_equivalent(compiled, abb, mode="bounded", max_len=12).equivalent
        assert sk.nfa_equivalent(compiled, abb).equivalent

    @pytest.mark.parametrize("fixture", ["paired", "triple_b"])
    def test_agrees_with_direct_filtering(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        bound = 3 * spec.width
        assert sk.enumerate_language(sk.slt_to_nfa(spec), bound) == brute_language(spec, bound)

    def test_short_words_reachable_without_prefix_anchor(self):
        # a short word that is not a prefix of any allowed window
        spec = symbol_spec(width=3, alphabet=("a", "b"), prefixes=[W("ab")],
                           suffixes=[W("bb")], factors=[W("abb")], short_words=[W("ba")])
        assert sk.enumerate_language(sk.slt_to_nfa(spec), 3) == [W("ba"), W("abb")]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_state_cap_is_the_state_count(self, machines, build_main, name):
        dec = build_main(name, 2)
        for onto in (None, (machines[name].alphabet, dec.pi.letter)):
            count = compile_spec(dec.slt, onto=onto).n
            for cap in range(count):
                with pytest.raises(CapacityError, match=f"cap of {cap} states"):
                    compile_spec(dec.slt, state_cap=cap, onto=onto)
            assert compile_spec(dec.slt, state_cap=count, onto=onto).n == count

    def test_projection_keeps_the_states_and_merges_rows(self, machines, build_main):
        machine, dec = machines["nondet"], build_main("nondet", 2)
        symbols = compile_spec(dec.slt)
        letters = compile_spec(dec.slt, onto=(machine.alphabet, dec.pi.letter))
        assert letters.alphabet == machine.alphabet and letters.finals == symbols.finals
        assert letters.n == symbols.n
        for q in range(symbols.n):
            for a, letter in enumerate(machine.alphabet):
                assert letters.targets(q, a) == tuple(sorted(
                    dst for b, symbol in enumerate(dec.slt.alphabet)
                    for dst in symbols.targets(q, b) if dec.pi.letter(symbol) == letter))


class TestInfer:
    def test_two_sample_words(self):
        spec = infer_slt([W("ab"), W("abab")], 2)
        assert tuple(map(spec.decode, spec.prefixes)) == (W("a"),)
        assert tuple(map(spec.decode, spec.suffixes)) == (W("b"),)
        assert symbol_words(spec, "factors") == {W("ab"), W("ba")}
        expected = [W("ab"), W("abab"), W("ababab"), W("abababab")]
        assert sk.enumerate_language(sk.slt_to_nfa(spec), 8) == expected

    def test_sample_shorter_than_window(self):
        spec = infer_slt([W("aa")], 3)
        assert tuple(map(spec.decode, spec.short_words)) == (W("aa"),)
        assert tuple(map(spec.decode, spec.prefixes)) == (W("aa"),)
        assert tuple(map(spec.decode, spec.suffixes)) == (W("aa"),)
        assert spec.factors == ()

    def test_recovers_tight_triple_b_sets(self, triple_b):
        machine = sk.parse_nfa(corpus_text("abbplus"))
        sample = sk.enumerate_language(machine, 9)
        inferred = infer_slt(sample, 3, machine.alphabet)
        assert set(inferred.prefixes) == set(triple_b.prefixes)
        assert set(inferred.suffixes) == set(triple_b.suffixes)
        assert set(inferred.factors) == set(triple_b.factors)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            infer_slt([], 2)


# {a, b, c} and ab+, and {a, cab}, are 2-slt.  A width-2 spec that took
# the member b as a prefix would accept bb, and one that took the member a
# as a suffix would accept ca: the one-more-step filters of the sweep, and
# inference from the longer members only, keep both out.
SHORT_MEMBERS = Nfa(n=3, alphabet=("a", "b", "c"),
                    transitions=((0, "b", 0), (2, "a", 0), (2, "b", 1), (2, "c", 1)),
                    initial=2, finals=frozenset({0, 1}))
A_OR_CAB = Nfa(n=4, alphabet=("a", "b", "c"),
               transitions=((0, "a", 3), (0, "c", 1), (1, "a", 2), (2, "b", 3)),
               initial=0, finals=frozenset({3}))


class TestMinWidth:
    def test_abb_plus_needs_width_three(self):
        assert sk.min_slt_width(sk.parse_nfa(corpus_text("abbplus")), 6) == 3

    def test_even_runs_have_no_width(self):
        assert sk.min_slt_width(sk.parse_nfa(corpus_text("evens")), 8) is None

    def test_aplus_is_local(self):
        assert sk.min_slt_width(sk.parse_nfa(corpus_text("aplus")), 4) == 2

    def test_empty_language_is_local(self):
        # the width-2 spec with no windows and no short words defines it
        empty = Nfa(n=2, alphabet=("a",), transitions=((0, "a", 0),), initial=0,
                    finals=frozenset({1}))
        assert sk.min_slt_width(empty, 4) == 2

    def test_width_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_k must be at least 2"):
            sk.min_slt_width(sk.parse_nfa(corpus_text("aplus")), 1)

    def test_monotone_in_width(self):
        machine = sk.parse_nfa(corpus_text("abbplus"))
        sample = sk.enumerate_language(machine, 18)
        for k in (3, 4, 5):
            candidate = sk.slt_to_nfa(infer_slt(sample, k, machine.alphabet))
            assert sk.nfa_equivalent(candidate, machine, mode="bounded",
                                     max_len=18).equivalent

    @settings(max_examples=120, deadline=None)
    @given(machine=random_machines())
    @example(machine=SHORT_MEMBERS)
    @example(machine=A_OR_CAB)
    def test_random_machines_match_sampled_width(self, machine):
        max_k = 4
        try:
            sample = sk.enumerate_language(machine, 3 * max_k, cap=4096)
        except CapacityError:
            sample = None
        assume(sample)
        assert sk.min_slt_width(machine, max_k) == sampled_min_width(machine, max_k, 3 * max_k)


@pytest.mark.parametrize("h", [2, 3, 4])
def test_window_triples_cannot_separate_adjacent_lengths(h):
    """ab^h and ab^(h+1) share prefix, suffix and factor sets at width h."""
    shorter = W("a") + W("b") * h
    longer = W("a") + W("b") * (h + 1)
    assert sk.window_ops(shorter, h - 1)[:2] == sk.window_ops(longer, h - 1)[:2]
    assert sk.window_ops(shorter, h)[2] == sk.window_ops(longer, h)[2]
    machine = lh_nfa(h)
    assert sk.accepts(machine, shorter) and not sk.accepts(machine, longer)
