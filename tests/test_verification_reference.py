"""verify_decomposition against the composition it is built to agree with.

The reference builds the claimed language as an NFA P (``relabel`` of
``slt_to_nfa``, joined with ``word_set_nfa`` of the residual by
``union_nfa``).  In exact mode it decides each side with ``nfa_equivalent``
on the union of P and the machine M: against P for the least missing word,
against M for the least extra one.  In bounded mode it enumerates the
compiled slt machine and projects every local word, and compares residual
words up to the horizon.  Whether the cap stops a search is decided by
``reference_differences`` on P and M, stopped the way the real search
stops.  Every report field must match, on passing and failing
decompositions alike.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, VerificationReport
from sltkit.automata import DEFAULT_CAP

from conftest import (CORPUS_NAMES, paper_main, projected_language, reference_differences,
                      word_key)
from test_random_machines import few_short_words, random_machines


def least_preimage(dec, word):
    for z in sk.enumerate_language(sk.slt_to_nfa(dec.slt), len(word), cap=DEFAULT_CAP):
        if len(z) == len(word) and dec.pi(z) == word:
            return z
    return None


def reference_search(claimed, m, cap, max_len) -> None:
    """Search the product of ``claimed`` and ``m`` until it has a word on
    each side or ends; raises :class:`CapacityError` where the search of
    ``verify_decomposition`` does."""
    sides = set()
    for _, side in reference_differences(claimed.table, m.table, cap, max_len):
        sides.add(side)
        if len(sides) == 2:
            return


def reference_report(m, dec, mode, horizon=None, cap=DEFAULT_CAP) -> VerificationReport:
    sizes = {"I": len(dec.slt.prefixes), "T": len(dec.slt.suffixes),
             "F": len(dec.slt.factors), "short": len(dec.slt.short_words),
             "residual": len(dec.residual)}
    claimed = projected_language(dec, m.alphabet)
    notice = None
    if mode == "exact":
        try:
            reference_search(claimed, m, cap, None)
        except CapacityError as exc:
            notice = f"exact mode hit a resource cap ({exc}); fell back to bounded"
        else:
            both = sk.union_nfa(claimed, m)
            missing = sk.nfa_equivalent(both, claimed).witness
            extra = sk.nfa_equivalent(both, m).witness
            return VerificationReport(
                mode="exact", horizon=None, ok=missing is None and extra is None,
                missing=missing, extra=extra,
                extra_local=None if extra is None else least_preimage(dec, extra),
                set_sizes=sizes)
    h = horizon if horizon is not None else sk.default_horizon(dec)
    reference_search(claimed, m, cap, h)
    want = set(sk.enumerate_language(m, h, cap=DEFAULT_CAP))
    image = {}
    for z in sk.enumerate_language(sk.slt_to_nfa(dec.slt), h, cap=DEFAULT_CAP):
        image.setdefault(dec.pi(z), z)
    have = set(image) | {w for w in dec.residual if len(w) <= h}
    missing = min(want - have, key=word_key(m), default=None)
    extra = min(have - want, key=word_key(m), default=None)
    return VerificationReport(mode="bounded", horizon=h, ok=want == have,
                              missing=missing, extra=extra,
                              extra_local=image.get(extra), set_sizes=sizes,
                              notice=notice)


def assert_same_report(m, dec, mode, **kwargs) -> VerificationReport:
    report = sk.verify_decomposition(m, dec, mode=mode, **kwargs)
    assert report == reference_report(m, dec, mode, **kwargs)
    if report.mode == "exact" and not report.ok:
        # both sides come from subset products: check each by enumeration
        longest = max(len(w) for w in (report.missing, report.extra) if w is not None)
        want = set(sk.enumerate_language(m, longest))
        have = set(sk.enumerate_language(projected_language(dec, m.alphabet), longest))
        assert report.missing == min(want - have, key=word_key(m), default=None)
        assert report.extra == min(have - want, key=word_key(m), default=None)
    return report


def mutate(dec, rng: random.Random):
    """``dec`` with one window set, the short words or the residual grown or
    shrunk by one word."""
    spec, k = dec.slt, dec.slt.width
    targets = ["prefixes", "suffixes", "factors", "short_words"]
    if dec.kind == "main":
        targets.append("residual")
    target = rng.choice(targets)
    words = list(dec.residual if target == "residual" else getattr(spec, target))
    if words and rng.random() < 0.5:
        del words[rng.randrange(len(words))]
    elif target == "residual":
        letters = dec.pi.image
        words.append(tuple(rng.choice(letters) for _ in range(rng.randint(1, 3 * dec.m))))
    else:
        length = {"factors": k, "short_words": rng.randint(1, k - 1)}.get(target, k - 1)
        words.append(spec.encode(rng.choice(spec.alphabet) for _ in range(length)))
    if target == "residual":
        return dataclasses.replace(dec, residual=tuple(words))
    return dataclasses.replace(dec, slt=dataclasses.replace(spec, **{target: tuple(words)}))


def build(machine, kind):
    return sk.medvedev_width2(machine) if kind == "width2" else sk.medvedev_main(machine, kind)


@pytest.mark.parametrize("kind", ["width2", 2])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_mutations_match_reference(machines, name, kind):
    machine = machines[name]
    rng = random.Random(f"{name} {kind}")
    decs = [build(machine, kind)]
    decs += [mutate(decs[0], rng) for _ in range(12)]
    reports = [assert_same_report(machine, dec, mode) for dec in decs
               for mode in ("exact", "bounded")]
    assert reports[0].ok and reports[1].ok
    assert any(not r.ok for r in reports)


@settings(max_examples=60, deadline=None)
@given(machine=random_machines(), kind=st.sampled_from(["width2", 2, 3]),
       seed=st.integers(0, 2**16), small_cap=st.booleans())
def test_random_machines_match_reference(machine, kind, seed, small_cap):
    # dense machines have up to |A|^(2m-2) short words and |A|^(h+1) words
    # below the default horizon h; the reference is slow on either
    assume(kind == "width2" or few_short_words(machine, kind))
    dec = build(machine, kind)
    # a small cap still fits the search one letter deep: 1 + |A| product states
    cap, horizon = ((1 + len(machine.alphabet), 1) if small_cap
                    else (DEFAULT_CAP, min(sk.default_horizon(dec), 10)))
    rng = random.Random(seed)
    for candidate in (dec, mutate(dec, rng), mutate(mutate(dec, rng), rng)):
        for mode in ("exact", "bounded"):
            assert_same_report(machine, candidate, mode, horizon=horizon, cap=cap)


def test_cap_fallback_matches_reference(machines):
    machine = machines["nondet"]
    dec = mutate(sk.medvedev_main(machine, 2), random.Random(1))
    # each cap is the least that fits the bounded search to its horizon;
    # the exact search needs 33 product states
    for cap, horizon in ((3, 1), (5, 2), (11, 5)):
        report = assert_same_report(machine, dec, "exact", horizon=horizon, cap=cap)
        assert report.mode == "bounded" and report.notice is not None


@pytest.mark.parametrize("mode", ["exact", "bounded"])
@pytest.mark.parametrize("where", ["pi", "residual"])
def test_letters_outside_the_machine_raise_as_reference(machines, mode, where):
    machine = machines["aplus"]
    dec = sk.medvedev_main(machine, 2)
    if where == "pi":
        pairs = tuple((s, "c" if a == "a" and s.endswith("|1") else a) for s, a in dec.pi.pairs)
        dec = dataclasses.replace(dec, pi=sk.Homomorphism(pairs))
    else:
        dec = dataclasses.replace(dec, residual=dec.residual + (("a", "c"),))
    with pytest.raises(ValueError) as expected:
        # both modes build the same claimed table, and the reference builds
        # P; each rejects the outside letter before reading any word
        reference_report(machine, dec, mode)
    with pytest.raises(ValueError) as actual:
        sk.verify_decomposition(machine, dec, mode=mode)
    assert str(actual.value) == str(expected.value)


# (states, fingerprint) of slt_to_nfa on every corpus build, as compiled
# before slt_to_nfa became a wrapper over compile_spec; a main build was
# then the paper's, whose short members are its residual (``paper_main``)
COMPILED = {
    ("abbplus", "width2"): (5, "b6adadf89c3b"), ("abbplus", 2): (18, "43b04d9961b0"),
    ("abbplus", 3): (21, "10624ff3fb9c"), ("abplus", "width2"): (4, "f84228eec96f"),
    ("abplus", 2): (20, "16083459b59c"), ("abplus", 3): (12, "ed5a85cfd754"),
    ("aplus", "width2"): (3, "68272c6341ff"), ("aplus", 2): (12, "0cd5bbaa7000"),
    ("aplus", 3): (9, "4d326c0ae9bb"), ("evens", "width2"): (7, "c35b25de9dc2"),
    ("evens", 2): (39, "67d2977887fa"), ("evens", 3): (23, "d45a85e49bf3"),
    ("needs_sink", "width2"): (3, "bd91e5f3d77c"), ("needs_sink", 2): (12, "83c84dbca16b"),
    ("needs_sink", 3): (9, "ce979274b81a"), ("nondet", "width2"): (5, "53b5e8c03940"),
    ("nondet", 2): (36, "a7a6c6a3e9f1"), ("nondet", 3): (23, "c111c78d54e8"),
}


@pytest.mark.parametrize("name,kind", sorted(COMPILED, key=str))
def test_slt_to_nfa_is_unchanged_on_corpus(machines, name, kind):
    dec = build(machines[name], kind) if kind == "width2" else paper_main(machines[name], kind)
    compiled = sk.slt_to_nfa(dec.slt)
    assert (compiled.n, sk.nfa_fingerprint(compiled)) == COMPILED[(name, kind)]
