"""``construction._window_words`` against the sweep it replaces, the main
row builder's windows at the build's width 2m-2 and the paper's 2m against
block-encoded path enumeration, and the width-2 build against the
transition-by-transition sets it replaces.

``reference_window_words`` (tests/conftest.py) keys the frontier by word
in a dict of context sets; ``_window_words`` keeps the words in ascending
order beside their contexts.  A main build runs two sweeps: the prefixes
with the short words, then the factors with the suffixes as their tails.
On each, the new one must return the same walks and short words or tails
as strictly increasing tuples, and stop with ``CapacityError`` at the same
count and with the same message under any cap.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sltkit as sk
from sltkit import CapacityError, construction
from sltkit.construction import _window_words

from conftest import CORPUS_NAMES, reference_main_sets, reference_width2, reference_window_words
from test_random_machines import random_machines


def recorded_sweeps(machine, h):
    """The arguments of each ``_window_words`` call of a main build."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _window_words(*args)

    with mock.patch.object(construction, "_window_words", spy):
        dec = sk.medvedev_main(machine, h)
    return dec, [(args[:6], args[7]) for args in calls]


def outcome(sweep, args, what, cap):
    try:
        return [sorted(words) for words in sweep(*args, cap, what)]
    except CapacityError as exc:
        return str(exc)


def is_strictly_increasing(words) -> bool:
    return all(u < v for u, v in zip(words, words[1:]))


def assert_same_sweeps(machine, h):
    dec, sweeps = recorded_sweeps(machine, h)
    assert [what for _, what in sweeps] == ["prefixes", "factors"]
    for args, what in sweeps:
        swept = _window_words(*args, 10**6, what)
        assert all(type(words) is tuple and is_strictly_increasing(words) for words in swept)
        assert swept == tuple(tuple(sorted(words))
                              for words in reference_window_words(*args, 10**6, what))
    (_, short), (_, suffixes) = (_window_words(*args, 10**6, what) for args, what in sweeps)
    assert short == dec.slt.short_words and suffixes == dec.slt.suffixes
    return dec, sweeps


def is_nondeterministic(machine) -> bool:
    return any(len(targets) > 1 for row in machine.table.succ for targets in row)


def assert_matches_path_enumeration(machine, h, width):
    """The main row builder's windows at ``width`` are the block-encoded paths'."""
    source = sk.prepare(machine)
    code = source.code(h)
    spec = construction._main_spec(source, h, width, 10**6)
    prefixes, suffixes, factors = reference_main_sets(source.machine, code, width)
    assert set(map(spec.decode, spec.prefixes)) == prefixes
    assert set(map(spec.decode, spec.suffixes)) == suffixes
    assert set(map(spec.decode, spec.factors)) == factors


def assert_matches_at_both_widths(machine, h):
    """The build's sweeps and, at its width 2m-2 and the paper's 2m, its windows."""
    dec, _ = assert_same_sweeps(machine, h)
    for width in (dec.k, 2 * dec.m):
        assert_matches_path_enumeration(machine, h, width)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("h", [2, 3])
def test_sweeps_match_reference_and_path_enumeration(machines, name, h):
    assert_matches_at_both_widths(machines[name], h)


# b*a: every run ends in a final state with no way out, so its windows
# belong to walks that cannot run on for three full blocks
DEAD_END_FINAL = sk.Nfa(n=2, alphabet=("a", "b"), transitions=((1, "b", 1), (1, "a", 0)),
                        initial=1, finals=frozenset({0}))


@pytest.mark.parametrize("h", [2, 3])
def test_dead_end_final_matches_path_enumeration(h):
    assert_matches_at_both_widths(DEAD_END_FINAL, h)


def test_corpus_has_a_word_ending_in_several_contexts(machines):
    # nondet's runs branch, so a forward sweep word ends in several contexts
    assert is_nondeterministic(sk.trim(machines["nondet"]))


@settings(max_examples=80, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3))
def test_random_machines_match_reference(machine, h):
    assert_same_sweeps(machine, h)


@settings(max_examples=150, deadline=None)
@given(machine=random_machines())
def test_width2_windows_match_reference(machine):
    assert sk.medvedev_width2(machine) == reference_width2(machine)


@st.composite
def branching_machines(draw):
    """Trim machines along a spine 0 -> 1 -> ... -> n-1, with one state
    moving on one letter to two states, so a sweep word ends in several
    contexts."""
    n = draw(st.integers(2, 5))
    alphabet = ("a", "b")[:draw(st.integers(1, 2))]
    letter, state = st.sampled_from(alphabet), st.integers(0, n - 1)
    transitions = [(q, draw(letter), q + 1) for q in range(n - 1)]
    transitions += draw(st.lists(st.tuples(state, letter, state), max_size=n))
    q, a = draw(state), draw(letter)
    first, second = draw(st.lists(state, min_size=2, max_size=2, unique=True))
    transitions += [(q, a, first), (q, a, second)]
    finals = {n - 1} | draw(st.frozensets(st.integers(1, n - 1)))
    return sk.Nfa(n=n, alphabet=alphabet, transitions=tuple(transitions), initial=0,
                  finals=frozenset(finals))


@settings(max_examples=40, deadline=None)
@given(machine=branching_machines(), h=st.integers(2, 3))
def test_random_nfas_match_reference(machine, h):
    assert is_nondeterministic(sk.trim(machine))
    assert_same_sweeps(machine, h)


@pytest.mark.parametrize("name", ["aplus", "nondet", "evens"])
def test_cap_is_hit_at_the_same_count(machines, name):
    _, sweeps = assert_same_sweeps(machines[name], 2)
    for args, what in sweeps:
        walks, beside = _window_words(*args, 10**6, what)
        tails = args[5]  # tails are never counted; short words are
        total = max(len(walks), 0 if tails else len(beside))
        outcomes = [outcome(_window_words, args, what, cap) for cap in range(total + 2)]
        assert outcomes == [outcome(reference_window_words, args, what, cap)
                            for cap in range(total + 2)]
        # a frontier, the window set itself or the short words are over the cap
        refused = outcomes[total - 1]
        assert (refused.startswith(f"window set exceeds cap of {total - 1}: ")
                and refused.endswith(f" {what}")
                or refused.startswith(f"short words exceed cap of {total - 1}: ") and not tails)


# every nonempty word over {a, b}: at h=2 (m=4, width 6) its 62 short words
# outnumber every prefix frontier (at most 16) and its 32 prefixes
EVERY_WORD = sk.Nfa(n=2, alphabet=("a", "b"),
                    transitions=((0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "b", 1)),
                    initial=0, finals=frozenset({1}))


@pytest.mark.parametrize("cap,count", [(10, 14), (40, 62), (61, 62)])
def test_a_build_over_the_cap_in_short_words_names_them(cap, count):
    # counted as the prefix sweep reads each length, before any factor
    with pytest.raises(CapacityError, match=f"^short words exceed cap of {cap}: {count}$"):
        sk.medvedev_main(EVERY_WORD, 2, cap=cap)
    assert len(sk.medvedev_main(EVERY_WORD, 2).slt.short_words) == 62
