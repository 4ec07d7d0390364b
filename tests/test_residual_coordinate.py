"""verify_decomposition on its claimed table against the merged claim of
the reference.

``reference_verify`` (tests/conftest.py) appends the residual trie to the
projected table, always with its root as a second start state;
``verify_decomposition`` searches ``claimed_table``, which appends it the
same way only when there is a residual.  The two searches visit
corresponding product states in the same order, so every report field
must match, and an exact search must hit ``state_cap`` at the same point
and fall back with the same notice.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import sltkit as sk
from sltkit.automata import DEFAULT_STATE_CAP

from conftest import CORPUS_NAMES, paper_main, reference_verify
from test_random_machines import few_short_words, random_machines
from test_verification_reference import build, mutate


def assert_same_reports(machine, dec, **kwargs):
    for mode in ("exact", "bounded"):
        report = sk.verify_decomposition(machine, dec, mode=mode, **kwargs)
        assert report == reference_verify(machine, dec, mode=mode, **kwargs), mode


@pytest.mark.parametrize("kind", ["width2", 2, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_builds_and_mutations_match_merged_claim(machines, name, kind):
    machine = machines[name]
    dec = build(machine, kind)
    rng = random.Random(f"residual coordinate {name} {kind}")
    # a main build has no residual; the paper's lists every word below 3m
    paper = [] if kind == "width2" else [paper_main(machine, kind)]
    for candidate in [dec] + paper + [mutate(dec, rng) for _ in range(10)]:
        assert_same_reports(machine, candidate)


@settings(max_examples=60, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3), seed=st.integers(0, 2**16),
       state_cap=st.sampled_from([2, 5, DEFAULT_STATE_CAP]))
def test_random_machines_match_merged_claim(machine, h, seed, state_cap):
    assume(few_short_words(machine, h, limit=512))
    dec = sk.medvedev_main(machine, h)
    rng = random.Random(seed)
    for candidate in (dec, mutate(dec, rng), mutate(mutate(dec, rng), rng)):
        assert_same_reports(machine, candidate, horizon=min(sk.default_horizon(dec), 10),
                            state_cap=state_cap)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_state_cap_falls_back_at_the_same_point(machines, build_main, name):
    machine, dec = machines[name], build_main(name, 2)
    modes = []
    for state_cap in range(1, 60):
        report = sk.verify_decomposition(machine, dec, mode="exact", state_cap=state_cap)
        assert report == reference_verify(machine, dec, mode="exact", state_cap=state_cap)
        modes.append(report.mode)
        if report.mode == "bounded":
            assert report.notice.startswith("exact mode hit a resource cap")
    # every corpus build needs between 16 and 46 product states
    assert modes[0] == "bounded" and modes[-1] == "exact"
