"""Allocation bounds, measured with tracemalloc rather than time: the
``.dec`` writer holds about twice its text, and a compiled table about
four bytes per state and letter."""

import random
import tracemalloc

import pytest

import sltkit as sk
from sltkit.slt import compile_spec


def traced(f):
    """``f()``, the bytes still allocated when it returns, and the peak."""
    tracemalloc.start()
    try:
        result = f()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


@pytest.fixture(scope="module")
def large_build():
    """A main build at h=4 of a 16-state DFA whose letters permute the
    states; its ``.dec`` text is about 1.2 MB."""
    rng = random.Random(1)
    moves = tuple((q, a, dst) for a in "ab" for q, dst in enumerate(rng.sample(range(16), 16)))
    machine = sk.Nfa(n=16, alphabet=("a", "b"), transitions=moves, initial=0,
                     finals=frozenset(range(1, 16, 2)))
    return sk.medvedev_main(machine, 4)


def test_serialize_peaks_at_about_twice_its_text(large_build):
    text, _, peak = traced(lambda: sk.serialize_decomposition(large_build))
    assert len(text) >= 10**6
    assert peak <= 2.5 * len(text), peak / len(text)


def test_a_compiled_table_keeps_a_few_bytes_per_state_and_letter(large_build):
    # the symbol-level table: one 4-byte entry per state and letter, plus
    # the final states; rows of tuples kept about 23 bytes
    table, kept, _ = traced(lambda: compile_spec(large_build.slt))
    assert table.n > 10**4 and len(table.alphabet) == 8
    assert kept <= 16 * table.n * len(table.alphabet), kept / (table.n * len(table.alphabet))
