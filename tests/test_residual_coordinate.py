"""verify_decomposition on builds that carry a residual, against the
independent reference, and the exact-mode fallback sequence.

Every corpus build (width 2, h=2 and h=3), the paper's form of each main
build (``paper_main``: no short words, and every source word shorter than
3m as the residual), the paper's builds of random machines, and mutations
of each are checked field by field against ``reference_report``
(tests/test_verification_reference.py).  That reference decides the claim
with ``nfa_equivalent`` on the projected NFA joined with the residual's
word set, and by enumeration up to the horizon.  The point at which the
search hits ``cap`` is pinned against ``reference_differences`` in
tests/test_differences.py; here only the fallback itself is checked.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import sltkit as sk

from conftest import CORPUS_NAMES, paper_main
from test_random_machines import random_machines
from test_verification_reference import assert_same_report, build, mutate


def assert_same_reports(machine, dec, **kwargs):
    for mode in ("exact", "bounded"):
        assert_same_report(machine, dec, mode, **kwargs)


@pytest.mark.parametrize("kind", ["width2", 2, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_builds_and_mutations_match_merged_claim(machines, name, kind):
    machine = machines[name]
    dec = build(machine, kind)
    rng = random.Random(f"residual coordinate {name} {kind}")
    # a main build has no residual; the paper's lists every word below 3m
    paper = [] if kind == "width2" else [paper_main(machine, kind)]
    for candidate in [dec] + paper + [mutate(c, rng) for c in [dec] + paper for _ in range(5)]:
        assert_same_reports(machine, candidate)


@settings(max_examples=60, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3), seed=st.integers(0, 2**16))
def test_random_machines_match_merged_claim(machine, h, seed):
    try:  # the paper's residual lists every source word below 3m
        sk.enumerate_language(machine, 3 * sk.prepare(machine).code(h).m - 1, cap=512)
    except sk.CapacityError:
        assume(False)
    dec = paper_main(machine, h)
    rng = random.Random(seed)
    for candidate in (dec, mutate(dec, rng), mutate(mutate(dec, rng), rng)):
        assert_same_reports(machine, candidate, horizon=min(sk.default_horizon(dec), 10))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_state_cap_falls_back_at_the_same_point(machines, build_main, name):
    machine, dec = machines[name], build_main(name, 2)
    reports = []
    for cap in range(1, 60):
        try:
            reports.append(sk.verify_decomposition(machine, dec, mode="exact", horizon=2,
                                                   cap=cap))
        except sk.CapacityError:
            reports.append(None)
    # below the 3 to 6 product states of the bounded search to length 2,
    # neither mode fits; every corpus build needs between 10 and 36 for the
    # exact search: bounded below that point, exact from it on
    refused = reports.count(None)
    assert 0 < refused and reports[:refused] == [None] * refused
    reports = reports[refused:]
    assert all(report.ok for report in reports)
    modes = [report.mode for report in reports]
    fallbacks = modes.count("bounded")
    assert 0 < fallbacks < len(modes)
    assert modes == ["bounded"] * fallbacks + ["exact"] * (len(modes) - fallbacks)
    for report in reports[:fallbacks]:
        assert report.notice.startswith("exact mode hit a resource cap")
        assert report.horizon == 2
