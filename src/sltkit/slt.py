"""Strictly locally testable (slt) languages of a given window width.

A width-k spec holds the allowed (k-1)-prefixes, (k-1)-suffixes and
k-factors; a word of length >= k belongs to the language iff its prefix and
suffix are allowed and every k-factor is.  Words shorter than k (including
those of length exactly k-1) are decided by an explicit finite set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .automata import (
    DEFAULT_SET_CAP,
    DEFAULT_WORD_CAP,
    CapacityError,
    Nfa,
    Table,
    Word,
    enumerate_language,
    nfa_equivalent,
)


@dataclass(frozen=True)
class SltSpec:
    """Finite data defining a width-k slt language.

    The word sets are stored as deduplicated tuples sorted by symbol
    position in ``alphabet``, so equality of specs is structural.
    """

    width: int
    alphabet: tuple[str, ...]
    prefixes: tuple[Word, ...]
    suffixes: tuple[Word, ...]
    factors: tuple[Word, ...]
    short_words: tuple[Word, ...] = ()
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _prefix_set: frozenset[Word] = field(init=False, repr=False, compare=False)
    _suffix_set: frozenset[Word] = field(init=False, repr=False, compare=False)
    _factor_set: frozenset[Word] = field(init=False, repr=False, compare=False)
    _short_set: frozenset[Word] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("width must be at least 2")
        alphabet = tuple(self.alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be nonempty with distinct symbols")
        index = {s: i for i, s in enumerate(alphabet)}

        def canon(words: Iterable[Word], what: str, lengths: range) -> tuple[Word, ...]:
            keyed = set()
            for w in words:
                w = tuple(w)
                if len(w) not in lengths:
                    raise ValueError(
                        f"{what} words must have length in "
                        f"{lengths.start}..{lengths.stop - 1}, got {len(w)}")
                for s in w:
                    if s not in index:
                        raise ValueError(f"unknown symbol: {s!r}")
                keyed.add(w)
            return tuple(sorted(keyed, key=lambda w: tuple(index[s] for s in w)))

        k = self.width
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "prefixes", canon(self.prefixes, "prefix", range(k - 1, k)))
        object.__setattr__(self, "suffixes", canon(self.suffixes, "suffix", range(k - 1, k)))
        object.__setattr__(self, "factors", canon(self.factors, "factor", range(k, k + 1)))
        object.__setattr__(self, "short_words",
                           canon(self.short_words, "short", range(1, k)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_prefix_set", frozenset(self.prefixes))
        object.__setattr__(self, "_suffix_set", frozenset(self.suffixes))
        object.__setattr__(self, "_factor_set", frozenset(self.factors))
        object.__setattr__(self, "_short_set", frozenset(self.short_words))

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"unknown symbol: {symbol!r}") from None


def window_ops(word: Sequence[str], k: int) -> tuple[Word, Word, frozenset[Word]]:
    """The length-k window triple of a word: prefix, suffix, factor set.

    The prefix and suffix are the word itself when it is shorter than k;
    the factor set is empty in that case.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(word) < 1:
        raise ValueError("word must be nonempty")
    w = tuple(word)
    if len(w) < k:
        return w, w, frozenset()
    factors = frozenset(w[i:i + k] for i in range(len(w) - k + 1))
    return w[:k], w[-k:], factors


def subword(word: Sequence[str], start: int, end: int) -> Word:
    """The factor from 1-based position ``start`` through ``end`` inclusive.

    Empty when ``end < start``.  Both positions must lie within the word.
    """
    w = tuple(word)
    if not (1 <= start <= len(w)) or not (1 <= end <= len(w)):
        raise ValueError(f"positions ({start}, {end}) out of range for length {len(w)}")
    if end < start:
        return ()
    return w[start - 1:end]


def slt_membership(spec: SltSpec, word: Sequence[str]) -> bool:
    """Decide membership of a word in the spec's language."""
    w = tuple(word)
    for s in w:
        if s not in spec._index:
            raise ValueError(f"unknown symbol: {s!r}")
    if len(w) < spec.width:
        return w in spec._short_set
    k = spec.width
    if w[:k - 1] not in spec._prefix_set or w[-(k - 1):] not in spec._suffix_set:
        return False
    factor_set = spec._factor_set
    return all(w[i:i + k] in factor_set for i in range(len(w) - k + 1))


class StreamRecognizer:
    """Symbol-at-a-time recogniser using O(width) memory.

    After feeding a word and calling :meth:`finish`, the verdict equals
    :func:`slt_membership` on the same word.  ``reset`` returns the
    recogniser to its initial state; feeding after ``finish`` is an error.
    """

    def __init__(self, spec: SltSpec) -> None:
        self._spec = spec
        self.reset()

    def reset(self) -> None:
        self._head: list[str] = []
        self._tail: deque[str] = deque(maxlen=self._spec.width - 1)
        self._factors_ok = True
        self._count = 0
        self._finished = False

    def feed(self, symbol: str) -> None:
        if self._finished:
            raise RuntimeError("feed after finish; call reset() first")
        spec = self._spec
        if symbol not in spec._index:
            raise ValueError(f"unknown symbol: {symbol!r}")
        if self._factors_ok and len(self._tail) == spec.width - 1:
            if tuple(self._tail) + (symbol,) not in spec._factor_set:
                self._factors_ok = False
        if self._count < spec.width - 1:
            self._head.append(symbol)
        self._tail.append(symbol)
        self._count += 1

    def finish(self) -> bool:
        self._finished = True
        spec = self._spec
        if self._count == 0:
            return False
        if self._count < spec.width:
            return tuple(self._head) in spec._short_set
        return (self._factors_ok
                and tuple(self._head) in spec._prefix_set
                and tuple(self._tail) in spec._suffix_set)


def make_stream_recognizer(spec: SltSpec) -> StreamRecognizer:
    return StreamRecognizer(spec)


def compile_spec(spec: SltSpec, state_cap: int = DEFAULT_SET_CAP) -> Table:
    """Compile a spec to a table accepting exactly its language.

    States track the word read so far while it is shorter than the window,
    then the most recent (k-1)-window.  Entry into the first full window is
    kept distinct from later windows so that words of length exactly k-1
    are decided by the short-word set alone.  The table is deterministic:
    each state has at most one successor per symbol.  State 0 is initial;
    the shorter words are visited in canonical order, then the windows
    breadth first, and states are numbered as they are first reached.
    """
    k = spec.width
    index = spec._index
    n_symbols = len(spec.alphabet)
    key = lambda w: tuple(index[s] for s in w)

    fresh_pool = set(spec.prefixes) | {w for w in spec.short_words if len(w) == k - 1}
    prefix_pool: set[Word] = set()
    for w in list(fresh_pool) + list(spec.short_words):
        for i in range(min(len(w), k - 1)):
            prefix_pool.add(w[:i])

    succ: list[list[tuple[int, ...]]] = []
    finals: set[int] = set()
    growing: dict[Word, int] = {}  # words shorter than k-1
    fresh: dict[Word, int] = {}    # the first full (k-1)-window
    windows: dict[Word, int] = {}  # every later (k-1)-window
    window_queue: deque[tuple[Word, int]] = deque()

    def new_state() -> int:
        if len(succ) >= state_cap:
            raise CapacityError(f"compiled automaton exceeds cap of {state_cap} states")
        succ.append([()] * n_symbols)
        return len(succ) - 1

    def state(ids: dict[Word, int], word: Word) -> int:
        q = ids.get(word)
        if q is None:
            q = ids[word] = new_state()
        return q

    def enter(row: list[tuple[int, ...]], u: Word) -> None:
        """Add the moves of window ``u`` to ``row``, queueing new windows."""
        for a, v in continuations.get(u, ()):
            q = windows.get(v)
            if q is None:
                q = windows[v] = new_state()
                window_queue.append((v, q))
            row[a] = (q,)

    state(growing, ())
    for u in sorted(prefix_pool, key=key):
        src = state(growing, u)
        if u in spec._short_set:
            finals.add(src)
        row = succ[src]
        for a, symbol in enumerate(spec.alphabet):
            ext = u + (symbol,)
            if len(ext) <= k - 2 and ext in prefix_pool:
                row[a] = (state(growing, ext),)
            elif len(ext) == k - 1 and ext in fresh_pool:
                row[a] = (state(fresh, ext),)

    # each factor u+(a,) moves window u on symbol a to window factor[1:]
    continuations: dict[Word, list[tuple[int, Word]]] = {}
    for f in spec.factors:
        continuations.setdefault(f[:-1], []).append((index[f[-1]], f[1:]))

    for u in sorted(fresh_pool, key=key):
        src = state(fresh, u)
        if u in spec._short_set:
            finals.add(src)
        if u in spec._prefix_set:
            enter(succ[src], u)

    while window_queue:
        u, src = window_queue.popleft()
        if u in spec._suffix_set:
            finals.add(src)
        enter(succ[src], u)

    return Table(spec.alphabet, succ, frozenset(finals), (0,))


def slt_to_nfa(spec: SltSpec, state_cap: int = DEFAULT_SET_CAP) -> Nfa:
    """Compile a spec to an NFA accepting exactly its language: the
    :func:`compile_spec` table with symbols as letters."""
    table = compile_spec(spec, state_cap)
    alphabet = spec.alphabet
    transitions = tuple((q, alphabet[a], dst) for q, row in enumerate(table.succ)
                        for a, targets in enumerate(row) for dst in targets)
    return Nfa(n=len(table.succ), alphabet=alphabet, transitions=transitions,
               initial=table.initial[0], finals=table.finals)


def infer_slt(sample: Iterable[Word], k: int,
              alphabet: Optional[Sequence[str]] = None) -> SltSpec:
    """The tightest width-k spec consistent with a sample of words.

    Prefixes, suffixes and factors are exactly those occurring in the
    sample; sample words shorter than k become short words.  The induced
    language is the smallest width-k slt superset of the sample definable
    this way.
    """
    words = sorted(set(tuple(w) for w in sample))
    if not words:
        raise ValueError("sample must be nonempty")
    if any(len(w) == 0 for w in words):
        raise ValueError("sample may not contain the empty word")
    if alphabet is None:
        alphabet = sorted({s for w in words for s in w})
    prefixes: set[Word] = set()
    suffixes: set[Word] = set()
    factors: set[Word] = set()
    short: set[Word] = set()
    for w in words:
        if len(w) < k:
            short.add(w)
        if len(w) >= k - 1:
            prefixes.add(w[:k - 1])
            suffixes.add(w[-(k - 1):])
        factors.update(w[i:i + k] for i in range(len(w) - k + 1))
    return SltSpec(width=k, alphabet=tuple(alphabet), prefixes=tuple(prefixes),
                   suffixes=tuple(suffixes), factors=tuple(factors),
                   short_words=tuple(short))


@dataclass(frozen=True)
class MinWidthResult:
    width: Optional[int]
    horizon: int


def min_slt_width(m: Nfa, max_k: int, max_len: int,
                  word_cap: int = DEFAULT_WORD_CAP) -> MinWidthResult:
    """Smallest width whose inferred spec matches the machine up to max_len.

    The agreement test is bounded by ``max_len`` (recorded in the result),
    not a proof.  Returns ``width=None`` when no width up to ``max_k``
    agrees.
    """
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    if max_len < 3 * max_k:
        raise ValueError("max_len must be at least 3 * max_k")
    sample = enumerate_language(m, max_len, cap=word_cap)
    if not sample:
        return MinWidthResult(None, max_len)
    for k in range(2, max_k + 1):
        candidate = slt_to_nfa(infer_slt(sample, k, m.alphabet))
        verdict = nfa_equivalent(candidate, m, mode="bounded", max_len=max_len,
                                 word_cap=word_cap)
        if verdict.equivalent:
            return MinWidthResult(k, max_len)
    return MinWidthResult(None, max_len)
