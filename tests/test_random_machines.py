"""Differential tests over small random machines: partial, non-trim,
multi-final and empty-language ones, through both constructions."""

import random

from hypothesis import assume, example, given, settings, strategies as st

import sltkit as sk
from sltkit import Nfa

from conftest import paper_main, random_member, reference_encoding, run_encodings


@st.composite
def random_machines(draw, alphabet=None):
    n = draw(st.integers(1, 5))
    if alphabet is None:
        alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
    initial = draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != initial]
    finals = draw(st.frozensets(st.sampled_from(others), min_size=1)) if others else frozenset()
    transitions = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(alphabet),
                                          st.integers(0, n - 1)), min_size=n, max_size=2 * n))
    return Nfa(n=n, alphabet=alphabet, transitions=tuple(transitions), initial=initial,
               finals=finals)


def few_words(m: Nfa, max_len: int, limit: int = 4096) -> bool:
    """Whether the machine accepts at most ``limit`` words of length up to
    ``max_len``; dense machines accept millions."""
    try:
        sk.enumerate_language(m, max_len, cap=limit)
    except sk.CapacityError:
        return False
    return True


def few_short_words(m: Nfa, h: int, limit: int = 4096) -> bool:
    """Whether the main construction at ratio ``h`` lists at most ``limit``
    short words, the source words shorter than 2m-2."""
    return few_words(m, 2 * sk.prepare(m).code(h).m - 3, limit)


def stream_decides(spec: sk.SltSpec, word) -> bool:
    recognizer = sk.StreamRecognizer(spec)
    for symbol in word:
        recognizer.feed(symbol)
    return recognizer.finish()


NON_TRIM_MULTI_FINAL = Nfa(n=5, alphabet=("a", "b"),
                           transitions=((1, "a", 2), (1, "b", 3), (2, "a", 2), (3, "b", 0),
                                        (4, "a", 1)),
                           initial=1, finals=frozenset({2, 3}))
# few short words, but 976,591 words below 3m: past the exact and bounded caps
DENSE = Nfa(n=4, alphabet=("a", "b", "c"),
            transitions=((0, "b", 2), (0, "c", 1), (1, "a", 1), (1, "c", 2), (2, "a", 3),
                         (2, "b", 0), (2, "b", 2), (2, "c", 2)),
            initial=0, finals=frozenset({2, 3}))
EMPTY_LANGUAGE = Nfa(n=3, alphabet=("a", "b"), transitions=((0, "a", 0), (1, "b", 2)),
                     initial=0, finals=frozenset({2}))


@settings(max_examples=150, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3), seed=st.integers(0, 2**16))
@example(machine=NON_TRIM_MULTI_FINAL, h=2, seed=0)
@example(machine=EMPTY_LANGUAGE, h=3, seed=0)
def test_both_constructions_verify_exactly(machine, h, seed):
    assume(few_short_words(machine, h))
    for dec in (sk.medvedev_width2(machine), sk.medvedev_main(machine, h)):
        report = sk.verify_decomposition(machine, dec, mode="exact")
        assert report.ok and report.mode == "exact", report
    rng = random.Random(seed)
    for length in (3 * dec.m, 3 * dec.m + 1, 4 * dec.m + 1):
        word = random_member(machine, length, rng)
        if word is None:
            continue
        z = sk.encode_word(machine, dec, word)
        assert z is not None and sk.slt_membership(dec.slt, z)
        assert z == reference_encoding(machine, dec, word)
        assert sk.decode_word(dec, z) == word
        i = rng.randrange(len(z))
        mutant = z[:i] + (rng.choice([s for s in dec.slt.alphabet if s != z[i]]),) + z[i + 1:]
        for local in (z, mutant):
            assert stream_decides(dec.slt, local) == sk.slt_membership(dec.slt, local)


@settings(max_examples=100, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3), seed=st.integers(0, 2**16))
@example(machine=NON_TRIM_MULTI_FINAL, h=2, seed=0)
@example(machine=EMPTY_LANGUAGE, h=3, seed=0)
@example(machine=DENSE, h=2, seed=0)
def test_short_words_replace_the_paper_residual(machine, h, seed):
    """The build lists the source words below 2m-2 as block-encoded short
    words where the paper's build lists the words below 3m as its residual,
    and both verify exactly; the build's windows decide every member of
    length 2m-2 or more, the paper's residual lengths 2m-2..3m-1 included."""
    # the paper's residual is every word below 3m, more than the short words
    assume(few_words(machine, 3 * sk.prepare(machine).code(h).m - 1))
    dec, paper = sk.medvedev_main(machine, h), paper_main(machine, h)
    assert dec.residual == ()
    for candidate in (dec, paper):
        report = sk.verify_decomposition(machine, candidate, mode="exact")
        assert report.ok and report.mode == "exact", report
    short = [dec.slt.decode(z) for z in dec.slt.short_words]
    assert set(map(dec.pi, short)) == set(sk.enumerate_language(machine, 2 * dec.m - 3))
    for z in short:  # a walk of the context automaton: the encoding along some run
        assert z in run_encodings(machine, h, dec.pi(z))
    rng = random.Random(seed)
    for length in range(1, 3 * dec.m + 2):
        word = random_member(machine, length, rng)
        if word is None:
            continue
        z = sk.encode_word(machine, dec, word)
        assert sk.slt_membership(dec.slt, z) and z == reference_encoding(machine, dec, word)


# a+ along two runs, 0 1 1 1 ... and 0 2 2 2 ..., whose second blocks start
# at different states: each word longer than one block has two encodings
AMBIGUOUS = Nfa(n=3, alphabet=("a",),
                transitions=((0, "a", 1), (0, "a", 2), (1, "a", 1), (2, "a", 2)),
                initial=0, finals=frozenset({1, 2}))


@settings(max_examples=100, deadline=None)
@given(machine=random_machines(), h=st.integers(2, 3), seed=st.integers(0, 2**16))
@example(machine=AMBIGUOUS, h=2, seed=0)
@example(machine=NON_TRIM_MULTI_FINAL, h=3, seed=0)
@example(machine=EMPTY_LANGUAGE, h=2, seed=0)
def test_short_words_follow_every_run_and_encodings_the_least(machine, h, seed):
    """The short words are the block encodings, along every run, of the
    source words below the width, and a member's encoding is the least of
    its block encodings."""
    assume(few_short_words(machine, h))
    dec = sk.medvedev_main(machine, h)
    below = sk.enumerate_language(machine, dec.k - 1)
    assert (set(map(dec.slt.decode, dec.slt.short_words))
            == set().union(*(run_encodings(machine, h, word) for word in below)))
    rng = random.Random(seed)
    for length in range(1, 4 * dec.m + 2):
        word = random_member(machine, length, rng)
        if word is not None:
            assert sk.encode_word(machine, dec, word) == reference_encoding(machine, dec, word)


def test_an_ambiguous_word_has_a_short_word_per_encoding():
    dec = sk.medvedev_main(AMBIGUOUS, 2)
    below = sk.enumerate_language(AMBIGUOUS, dec.k - 1)
    assert len(dec.slt.short_words) == len(below) + 1
    word = ("a",) * (dec.k - 1)
    encodings = run_encodings(AMBIGUOUS, 2, word)
    assert len(encodings) == 2
    assert sk.encode_word(AMBIGUOUS, dec, word) == reference_encoding(AMBIGUOUS, dec, word)
