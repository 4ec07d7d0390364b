import dataclasses
import inspect
import itertools
import pathlib
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, SltSpec, verification
from sltkit.automata import DEFAULT_CAP
from sltkit.slt import compile_spec

from conftest import corpus_text, paper_main, symbol_spec


def W(s: str):
    return tuple(s)


@pytest.fixture
def aplus():
    return sk.parse_nfa(corpus_text("aplus"))


@pytest.fixture
def aplus_main(aplus):
    return sk.medvedev_main(sk.totalize(aplus), 2)


def forged_needs_sink() -> sk.Decomposition:
    """A claim for ``needs_sink`` that misses ``aa`` and adds ``bb``, from its residual."""
    spec = symbol_spec(width=4, alphabet=("a|0", "b|0"))
    pi = sk.Homomorphism((("a|0", "a"), ("b|0", "b")))
    return sk.Decomposition(kind="main", slt=spec, pi=pi, residual=(W("a"), W("bb")),
                            h=2, m=2)


def drop_word(spec: SltSpec, attr: str, index: int) -> SltSpec:
    words = list(getattr(spec, attr))
    del words[index]
    return dataclasses.replace(spec, **{attr: tuple(words)})


class TestVerify:
    def test_width2_exact_pass(self, aplus):
        dec = sk.medvedev_width2(sk.totalize(aplus))
        report = sk.verify_decomposition(aplus, dec, mode="exact")
        assert report.ok and report.mode == "exact"
        assert report.missing is None and report.extra is None

    def test_exact_is_the_default(self, aplus, aplus_main):
        report = sk.verify_decomposition(aplus, aplus_main)
        assert report.ok and report.mode == "exact" and report.horizon is None

    @pytest.mark.parametrize("check,names", [
        (sk.verify_decomposition, ["m", "dec", "mode", "horizon", "cap"]),
        (sk.nfa_equivalent, ["m1", "m2", "mode", "max_len", "cap"])])
    def test_one_cap_for_both_modes(self, check, names):
        parameters = inspect.signature(check).parameters
        assert list(parameters) == names
        assert parameters["mode"].default == "exact"
        assert parameters["cap"].default == DEFAULT_CAP

    def test_main_bounded_pass_with_default_horizon(self, aplus, aplus_main):
        report = sk.verify_decomposition(aplus, aplus_main, mode="bounded")
        assert report.ok
        assert report.horizon == 2 * aplus_main.k + 4
        assert report.set_sizes["residual"] == 0 and report.set_sizes["short"] == 5

    def test_deleting_windows_is_detected(self, aplus, aplus_main):
        saw_failure = False
        for attr in ("prefixes", "suffixes", "factors", "short_words"):
            for index in range(len(getattr(aplus_main.slt, attr))):
                mutated = dataclasses.replace(aplus_main,
                                              slt=drop_word(aplus_main.slt, attr, index))
                report = sk.verify_decomposition(aplus, mutated)
                if report.ok:
                    continue
                saw_failure = True
                # a failing report always carries a confirmed counterexample
                assert report.missing is not None or report.extra is not None
                if report.missing is not None:
                    assert sk.accepts(aplus, report.missing)
                    local = [z for z in sk.enumerate_language(
                        sk.slt_to_nfa(mutated.slt), len(report.missing), cap=10**5)
                        if mutated.pi(z) == report.missing]
                    assert not local and report.missing not in mutated.residual
                if report.extra is not None:
                    assert not sk.accepts(aplus, report.extra)
                    assert report.extra_local is not None
                    assert sk.slt_membership(mutated.slt, report.extra_local)
                    assert mutated.pi(report.extra_local) == report.extra
        assert saw_failure

    def test_exact_falls_back_to_bounded_on_cap(self, aplus, aplus_main):
        # the exact search needs 10 product states, the bounded one to length 3 needs 4
        report = sk.verify_decomposition(aplus, aplus_main, mode="exact", horizon=3, cap=4)
        assert report.mode == "bounded" and report.notice is not None
        assert report.ok and report.horizon == 3

    def test_compile_cap_is_not_a_fallback(self, machines, build_main, monkeypatch):
        # bounded mode searches the same compiled table, so there is no
        # cheaper check to fall back to when the spec does not compile
        machine, dec = machines["nondet"], build_main("nondet", 2)
        count = len(compile_spec(dec.slt).succ)
        monkeypatch.setattr(verification, "compile_spec",
                            partial(compile_spec, state_cap=count - 1))
        for mode in ("exact", "bounded"):
            with pytest.raises(CapacityError, match=f"cap of {count - 1} states"):
                sk.verify_decomposition(machine, dec, mode=mode)

    def test_decomposition_of_another_machine_gets_a_notice(self, machines, build_main):
        abplus = machines["abplus"]
        foreign = build_main("abbplus", 3)
        fingerprint = sk.prepare(abplus).fingerprint
        assert foreign.source_fingerprint != fingerprint
        expected = (f"decomposition was built for machine {foreign.source_fingerprint}, "
                    f"not for this one ({fingerprint})")
        exact = sk.verify_decomposition(abplus, foreign, mode="exact")
        assert exact.mode == "exact" and not exact.ok and exact.notice == expected
        # the exact search needs 7 product states, the bounded one to length 3 needs 6
        fallback = sk.verify_decomposition(abplus, foreign, mode="exact", horizon=3, cap=6)
        assert fallback.mode == "bounded" and not fallback.ok
        assert fallback.notice.startswith(expected + "; exact mode hit a resource cap")
        own = sk.verify_decomposition(machines["abbplus"], foreign, mode="exact")
        assert own.ok and own.notice is None
        anonymous = dataclasses.replace(foreign, source_fingerprint="")
        assert sk.verify_decomposition(abplus, anonymous, mode="exact").notice is None

    def test_residual_past_a_short_horizon_is_not_compared(self, aplus):
        dec = paper_main(aplus, 2)
        assert max(map(len, dec.residual)) == 11  # m=4: residual words up to 3m-1
        report = sk.verify_decomposition(aplus, dec, mode="bounded", horizon=10)
        assert report.ok and report.horizon == 10

    @pytest.mark.parametrize("build", [sk.medvedev_width2, lambda m: sk.medvedev_main(m, 2)],
                             ids=["width2", "main-h2"])
    def test_dense_language_verifies_at_a_long_horizon(self, build):
        # A+ over two letters: 2^30 words of length 30 alone, but two machine states
        machine = sk.parse_nfa("alphabet a b\nstates 2\ninitial 0\nfinal 1\n"
                               "trans 0 a 1\ntrans 0 b 1\ntrans 1 a 1\ntrans 1 b 1\n")
        assert sk.verify_decomposition(machine, build(machine), mode="bounded", horizon=30).ok

    def test_horizon_below_one_is_rejected(self, aplus, aplus_main):
        with pytest.raises(ValueError, match="at least 1"):
            sk.verify_decomposition(aplus, aplus_main, horizon=0)

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_horizon_below_one_is_rejected_in_exact_mode(self, aplus, aplus_main, horizon):
        # exact mode reads no horizon unless it falls back, but the input is still wrong
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            sk.verify_decomposition(aplus, aplus_main, mode="exact", horizon=horizon)

    def test_witnesses_on_both_sides(self):
        machine = sk.parse_nfa(corpus_text("needs_sink"))
        report = sk.verify_decomposition(machine, forged_needs_sink(), mode="bounded",
                                         horizon=6)
        assert not report.ok
        assert report.missing == W("aa")      # member not covered by the claim
        assert report.extra == W("bb")        # claimed but not a member
        assert report.extra_local is None     # it came from the residual

    def test_exact_witnesses_on_both_sides(self):
        machine = sk.parse_nfa(corpus_text("needs_sink"))
        report = sk.verify_decomposition(machine, forged_needs_sink())
        assert report.mode == "exact" and not report.ok
        assert (report.missing, report.extra, report.extra_local) == (W("aa"), W("bb"), None)

    def test_residual_letter_outside_the_alphabet_is_rejected(self, aplus, aplus_main):
        dec = dataclasses.replace(aplus_main, residual=(W("az"),))
        for mode in ("exact", "bounded"):
            with pytest.raises(ValueError, match="unknown letter: 'z'"):
                sk.verify_decomposition(aplus, dec, mode=mode)


@st.composite
def random_specs(draw):
    """Width-2 and width-4 specs over three symbols, each word set about half
    or about a quarter of its pool; short words of every length below the
    width included."""
    k = draw(st.sampled_from([2, 4]))

    def words(length: int) -> list[str]:
        return ["".join(w) for w in itertools.product("\0\1\2", repeat=length)]

    def subset(pool: list[str]) -> list[str]:
        flags = st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))
        keep = draw(flags)
        if draw(st.booleans()):
            keep = [a and b for a, b in zip(keep, draw(flags))]
        return [w for w, kept in zip(pool, keep) if kept]

    return SltSpec(width=k, alphabet=("a1", "a2", "b1"), prefixes=subset(words(k - 1)),
                   suffixes=subset(words(k - 1)), factors=subset(words(k)),
                   short_words=subset([w for i in range(1, k) for w in words(i)]))


@settings(max_examples=150, deadline=None)
@given(spec=random_specs())
def test_local_preimage_is_the_least_compiled_preimage(spec):
    # the least word of the compiled slt machine with each image, by enumeration
    pi = sk.Homomorphism((("a1", "a"), ("a2", "a"), ("b1", "b")))
    dec = (sk.Decomposition(kind="width2", slt=spec, pi=pi) if spec.width == 2
           else sk.Decomposition(kind="main", slt=spec, pi=pi, h=2, m=2))
    least = {}
    for z in sk.enumerate_language(sk.slt_to_nfa(spec), 6):
        least.setdefault(pi(z), z)
    for length in range(1, 7):
        for word in itertools.product("ab", repeat=length):
            assert verification._local_preimage(dec, word) == least.get(word)


@settings(max_examples=150, deadline=None)
@given(spec=random_specs())
def test_compiled_spec_accepts_exactly_the_spec_language(spec):
    words = ("".join(z) for length in range(1, 7) for z in itertools.product("\0\1\2",
                                                                           repeat=length))
    members = {spec.decode(z) for z in words if spec.accepts(z)}
    assert set(sk.enumerate_language(sk.slt_to_nfa(spec), 6)) == members


def test_short_word_that_nothing_extends_is_compiled():
    # ba is shorter than k-1 = 3 and is no proper prefix of a prefix or short word
    spec = symbol_spec(width=4, alphabet=("a", "b"), prefixes=[W("abb")],
                       suffixes=[W("bbb")], factors=[W("abbb")],
                       short_words=[W("a"), W("b"), W("ba")])
    assert sk.enumerate_language(sk.slt_to_nfa(spec), 4) == [W("a"), W("b"), W("ba"),
                                                              W("abbb")]
    pi = sk.Homomorphism((("a", "a"), ("b", "b")))
    dec = sk.Decomposition(kind="main", slt=spec, pi=pi, h=2, m=2)
    assert verification._local_preimage(dec, W("ba")) == W("ba")


class TestRefute:
    ALPHABET = ("a", "b")

    @staticmethod
    def candidate(width, prefixes, suffixes, factors, short=(), residual=()):
        spec = symbol_spec(width=width, alphabet=("a1", "a2", "b1"), prefixes=prefixes,
                           suffixes=suffixes, factors=factors, short_words=short)
        pi = sk.Homomorphism((("a1", "a"), ("a2", "a"), ("b1", "b")))
        if width == 2 and not residual:
            return sk.Decomposition(kind="width2", slt=spec, pi=pi)
        return sk.Decomposition(kind="main", slt=spec, pi=pi, residual=residual,
                                h=2, m=width // 2)

    def test_candidate_accepting_b_runs(self):
        dec = self.candidate(2, prefixes=[("a1",), ("b1",)], suffixes=[("a2",), ("b1",)],
                             factors=[("a1", "a2"), ("a2", "a1"), ("b1", "b1")])
        result = sk.refute_small_ratio(dec, self.ALPHABET)
        assert result.found and result.letter == "b" and result.symbol == "b1"
        assert result.witness == W("bbb")
        # confirmed: the claim produces an odd-length word
        assert sk.slt_membership(dec.slt, ("b1",) * 3)
        assert len(result.witness) % 2 == 1

    def test_candidate_rejecting_b_runs_beyond_residual(self):
        dec = self.candidate(4, prefixes=[("a1", "a2", "a1")],
                             suffixes=[("a2", "a1", "a2")],
                             factors=[("a1", "a2", "a1", "a2"), ("a2", "a1", "a2", "a1")],
                             residual=(W("bb"),))
        result = sk.refute_small_ratio(dec, self.ALPHABET)
        assert result.found and result.letter == "b"
        assert result.witness == W("bbbb")
        # confirmed: an even-length member the claim cannot produce
        assert not sk.slt_membership(dec.slt, ("b1",) * 4)
        assert result.witness not in dec.residual

    def test_candidate_with_wider_window(self):
        dec = self.candidate(6, prefixes=[("b1",) * 5], suffixes=[("b1",) * 5],
                             factors=[("b1",) * 6],
                             residual=(W("bb"), W("bbbb")))
        result = sk.refute_small_ratio(dec, self.ALPHABET)
        assert result.found and result.witness == ("b",) * 7
        assert result.indistinguishable_pair == (("b1",) * 12, ("b1",) * 13)
        # confirmed: the window test cannot reject the odd continuation
        assert sk.slt_membership(dec.slt, ("b1",) * 7)

    def test_alphabet_not_small_is_precondition_error(self):
        spec = symbol_spec(width=2, alphabet=("a1", "a2", "b1", "b2"))
        pi = sk.Homomorphism((("a1", "a"), ("a2", "a"), ("b1", "b"), ("b2", "b")))
        dec = sk.Decomposition(kind="width2", slt=spec, pi=pi)
        with pytest.raises(ValueError, match="2|A|"):
            sk.refute_small_ratio(dec, self.ALPHABET)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_indistinguishability_core(self, k):
        even, odd = ("b",) * (2 * k), ("b",) * (2 * k + 1)
        assert sk.window_ops(even, k - 1)[:2] == sk.window_ops(odd, k - 1)[:2]
        assert sk.window_ops(even, k)[2] == sk.window_ops(odd, k)[2] == {("b",) * k}


class TestTables:
    def test_fg_values(self):
        vals = sk.fg_values(2)
        assert vals.f == pytest.approx(1.4404, abs=1e-3)
        assert vals.g_reconciled == pytest.approx(4.1127, abs=1e-3)
        assert vals.g_printed == pytest.approx(2.6723, abs=1e-3)

    def test_width_entries(self):
        assert 2 * sk.closed_form_m(10, 2) == 18
        assert 2 * sk.closed_form_m(10**3, 3) == 20
        assert 2 * sk.closed_form_m(10**6, 3) == 34
        assert 2 * sk.closed_form_m(10**40, 1000) == 32

    def test_exact_never_exceeds_closed_form(self):
        for h in (2, 3, 4, 10, 100, 1000):
            for n in (10, 10**3, 10**6, 10**9, 10**40):
                assert sk.choose_m(n, h) <= sk.closed_form_m(n, h)


class TestCorpus:
    def make_dir(self, tmp_path: pathlib.Path, names) -> str:
        for name in names:
            (tmp_path / f"{name}.nfa").write_text(corpus_text(name))
        return str(tmp_path)

    def test_small_corpus_passes(self, tmp_path):
        report = sk.run_corpus(self.make_dir(tmp_path, ["aplus", "needs_sink"]), ratios=(2,))
        assert report.ok
        tasks = {(e.name, e.task) for e in report.entries}
        assert ("aplus.nfa", "width2") in tasks
        assert ("needs_sink.nfa", "main h=2") in tasks
        assert ("needs_sink.nfa", "code h=2") in tasks
        # the code check covers the code the build uses: two states, m=4
        machine = sk.parse_nfa(corpus_text("needs_sink"))
        code = sk.prepare(machine).code(2)
        assert code.m == sk.medvedev_main(machine, 2).m == 4
        details = {(e.name, e.task): e.detail for e in report.entries}
        windows = sk.verify_factor_decodable(code).windows_checked
        assert details[("needs_sink.nfa", "code h=2")] == f"windows={windows}"

    def test_exact_is_the_default(self, tmp_path):
        directory = self.make_dir(tmp_path, ["aplus", "nondet"])
        report = sk.run_corpus(directory, ratios=(2,))
        assert report == sk.run_corpus(directory, ratios=(2,), mode="exact")
        mains = [e for e in report.entries if e.task == "main h=2"]
        assert len(mains) == 2 and all(e.detail == "mode=exact" for e in mains)

    def test_cap_bounds_the_code_check(self, tmp_path):
        report = sk.run_corpus(self.make_dir(tmp_path, ["needs_sink"]), ratios=(2,), cap=1)
        details = {e.task: e for e in report.entries}
        assert not details["code h=2"].ok
        assert details["code h=2"].detail == ("error=factor-decodability check holds "
                                              "2 codewords, over the cap of 1")

    def test_empty_language_machine_passes(self, tmp_path):
        (tmp_path / "none.nfa").write_text(
            "alphabet a b\nstates 3\ninitial 0\nfinal 2\ntrans 0 a 1\ntrans 1 b 1\n")
        report = sk.run_corpus(str(tmp_path), ratios=(2, 3), mode="exact")
        assert report.ok and len(report.entries) == 5

    def test_corrupted_fixture_reports_one_failure(self, tmp_path, aplus):
        directory = self.make_dir(tmp_path, ["aplus"])
        dec = sk.medvedev_width2(sk.totalize(aplus))
        broken = dataclasses.replace(dec, slt=drop_word(dec.slt, "factors", 1))
        (tmp_path / "aplus.broken.dec").write_text(sk.serialize_decomposition(broken))
        report = sk.run_corpus(directory, ratios=(2,))
        failures = [e for e in report.entries if not e.ok]
        assert len(failures) == 1
        assert failures[0].task == "fixture aplus.broken.dec"
        assert not report.ok

    def test_bundled_corpus_passes_at_a_short_horizon(self):
        # the default ratios build short words up to length 2m-3, 9 > 8 for abbplus h=2
        assert sk.run_corpus(sk.corpus_dir(), mode="bounded", horizon=8).ok

    @pytest.mark.parametrize("mode", ["exact", "bounded"])
    def test_horizon_below_one_is_rejected_before_any_task(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(verification, "medvedev_width2", pytest.fail)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            sk.run_corpus(self.make_dir(tmp_path, ["aplus"]), mode=mode, horizon=0)

    def test_empty_directory_is_success(self, tmp_path):
        report = sk.run_corpus(str(tmp_path))
        assert report.ok and report.entries == ()

    def test_unreadable_file_is_isolated(self, tmp_path):
        directory = self.make_dir(tmp_path, ["aplus"])
        (tmp_path / "bad.nfa").write_text("alphabet a\nstates X\n")
        report = sk.run_corpus(directory, ratios=(2,))
        bad = [e for e in report.entries if e.name == "bad.nfa"]
        good = [e for e in report.entries if e.name == "aplus.nfa"]
        assert len(bad) == 1 and not bad[0].ok
        assert good and all(e.ok for e in good)

    def test_dotted_names_go_to_the_longest_stem(self, tmp_path, aplus):
        (tmp_path / "x.nfa").write_text(corpus_text("aplus"))
        (tmp_path / "x.y.nfa").write_text(corpus_text("abplus"))
        (tmp_path / "x.h2.dec").write_text(
            sk.serialize_decomposition(sk.medvedev_main(aplus, 2)))
        abplus = sk.parse_nfa(corpus_text("abplus"))
        (tmp_path / "x.y.h2.dec").write_text(
            sk.serialize_decomposition(sk.medvedev_main(abplus, 2)))
        report = sk.run_corpus(str(tmp_path), ratios=(2,))
        assert report.ok
        fixtures = [(e.name, e.task) for e in report.entries if e.task.startswith("fixture")]
        assert fixtures == [("x.nfa", "fixture x.h2.dec"), ("x.y.nfa", "fixture x.y.h2.dec")]
