"""``automata.differences`` against the subset product it replaces.

``reference_differences`` (tests/conftest.py) keys product states by pairs
of subset tuples and stores a depth per queue entry; ``differences`` keys
them by ints and walks one level at a time.  Both must yield the same
``(word, side)`` sequence and stop with ``CapacityError`` at the same point,
in exact mode and at any ``max_len``.  On the claimed table that
``verify_decomposition`` builds (``claimed_table``), ``differences`` must
do the same as the reference on the merged claim (``reference_claimed``),
which appends the residual's trie to the projected table the same way.
Below the cap, a search with ``max_len`` is the exact search stopped at
that depth: it yields the exact search's words of length up to ``max_len``.
"""

import random

from hypothesis import assume, given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError
from sltkit.automata import differences
from sltkit.verification import claimed_table

from conftest import reference_claimed, reference_differences
from test_random_machines import few_short_words, random_machines
from test_verification_reference import mutate

CAPS = (1, 2, 3, 4, 5, 6, 10**6)
MAX_LENS = (None, 1, 2, 5)
UNREACHED = 10**6  # a cap no search on these small tables reaches


def outcome(search):
    """Everything a search yields, then the CapacityError it ends with, if any."""
    out = []
    try:
        out.extend(search)
    except CapacityError as exc:
        out.append(("CapacityError", str(exc)))
    return out


def assert_same_searches(t1, t2):
    for first, second in ((t1, t2), (t2, t1)):
        for max_len in MAX_LENS:
            for cap in CAPS:
                assert (outcome(differences(first, second, cap, max_len))
                        == outcome(reference_differences(first, second, cap, max_len))), \
                    (cap, max_len)


def assert_bounded_is_exact_cut(t1, t2):
    """At a cap neither search reaches, the search with ``max_len`` yields
    exactly the words of length up to ``max_len`` that the exact search
    yields, in the same order."""
    for first, second in ((t1, t2), (t2, t1)):
        exact = list(differences(first, second, UNREACHED))
        for max_len in (1, 2, 3, 5, 8):
            assert (list(differences(first, second, UNREACHED, max_len))
                    == [(w, side) for w, side in exact if len(w) <= max_len]), max_len


def assert_claimed_search_matches_merged(machine, dec):
    """The search ``verify_decomposition`` runs, on the claimed table it
    builds, against the reference on the merged claim."""
    claimed = claimed_table(machine, dec)
    merged = reference_claimed(dec, machine.alphabet)
    table = machine.table
    for max_len in MAX_LENS:
        for cap in CAPS:
            assert (outcome(differences(claimed, table, cap, max_len))
                    == outcome(reference_differences(merged, table, cap, max_len))), \
                (cap, max_len)


def has_multi_state_subset(t):
    return any(len(targets) > 1 for row in t.succ for targets in row) or len(t.initial) > 1


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alphabet=st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
def test_machine_tables_match_reference(data, alphabet):
    m1 = data.draw(random_machines(alphabet))
    m2 = data.draw(random_machines(alphabet))
    assert_same_searches(m1.table, m2.table)
    assert_bounded_is_exact_cut(m1.table, m2.table)


@settings(max_examples=60, deadline=None)
@given(machine=random_machines(), kind=st.sampled_from(["width2", 2]),
       seed=st.integers(0, 2**16))
def test_projected_specs_match_reference(machine, kind, seed):
    assume(kind == "width2" or few_short_words(machine, kind, limit=512))
    dec = sk.medvedev_width2(machine) if kind == "width2" else sk.medvedev_main(machine, kind)
    rng = random.Random(seed)
    for candidate in (dec, mutate(dec, rng)):
        assert_same_searches(reference_claimed(candidate, machine.alphabet), machine.table)
        assert_claimed_search_matches_merged(machine, candidate)
        assert_bounded_is_exact_cut(claimed_table(machine, candidate), machine.table)


def test_corpus_claims_have_multi_state_subsets(machines, build_main):
    # the projected tables the hypothesis tests draw are nondeterministic
    # wherever two symbols share a letter, as in every main build
    for name, machine in machines.items():
        dec = build_main(name, 2)
        claimed = reference_claimed(dec, machine.alphabet)
        assert has_multi_state_subset(claimed)
        assert_same_searches(claimed, machine.table)
        assert_claimed_search_matches_merged(machine, dec)
        assert_bounded_is_exact_cut(claimed_table(machine, dec), machine.table)
