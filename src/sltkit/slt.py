"""Strictly locally testable (slt) languages of a given window width.

A width-k spec holds the allowed (k-1)-prefixes, (k-1)-suffixes and
k-factors; a word of length >= k belongs to the language iff its prefix and
suffix are allowed and every k-factor is.  Words shorter than k (including
those of length exactly k-1) are decided by an explicit finite set.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice
from operator import lt
from typing import Callable, Iterable, Optional, Sequence

from .automata import DEFAULT_CAP, CapacityError, Nfa, Table, Word


def check_alphabet_size(size: int, what: str) -> None:
    """Refuse an alphabet of more symbols than index strings have characters."""
    if size > sys.maxunicode + 1:
        raise ValueError(f"{what} of {size} symbols exceeds the index-string limit "
                         f"of {sys.maxunicode + 1}")


def _encode_with(chars: dict[str, str], word: Iterable[str]) -> str:
    try:
        return "".join(map(chars.__getitem__, word))
    except KeyError as exc:
        raise ValueError(f"unknown symbol: {exc.args[0]!r}") from None


def word_encoder(alphabet: Sequence[str]) -> Callable[[Iterable[str]], str]:
    """The map from symbol words over ``alphabet`` to index strings.

    Character i of an index string is ``chr`` of the alphabet position of
    symbol i, so native ``str`` order is the order by symbol position.
    A symbol outside the alphabet raises ValueError.
    """
    return partial(_encode_with, {s: chr(i) for i, s in enumerate(alphabet)})


@dataclass(frozen=True)
class SltSpec:
    """Finite data defining a width-k slt language.

    Every word is an index string (see :func:`word_encoder`); :meth:`encode`
    and :meth:`decode` convert from and to symbol words.  The word sets are
    stored as deduplicated tuples in native ``str`` order, which is the
    order by symbol position in ``alphabet``, so equality of specs is
    structural.  A word set given as a tuple already in that order, without
    duplicates, is kept as it is; any other is deduplicated and sorted.  The
    factors are hashed into a set only when :meth:`accepts` or
    :class:`StreamRecognizer` first reads them.
    """

    width: int
    alphabet: tuple[str, ...]
    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    factors: tuple[str, ...]
    short_words: tuple[str, ...] = ()
    _chars: dict[str, str] = field(init=False, repr=False, compare=False)
    _prefix_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _suffix_set: frozenset[str] = field(init=False, repr=False, compare=False)
    _short_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("width must be at least 2")
        alphabet = tuple(self.alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be nonempty with distinct symbols")
        check_alphabet_size(len(alphabet), "alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        k = self.width
        known = dict.fromkeys(range(len(alphabet)))  # str.translate deletes these
        for attr, cache, lengths in (("prefixes", "_prefix_set", range(k - 1, k)),
                                     ("suffixes", "_suffix_set", range(k - 1, k)),
                                     ("factors", None, range(k, k + 1)),
                                     ("short_words", "_short_set", range(1, k))):
            given = getattr(self, attr)
            if not isinstance(given, tuple):
                given = tuple(given)
            kinds = set(map(type, given)) - {str}
            if kinds:
                raise ValueError(f"{attr} must be index strings (see word_encoder), "
                                 f"got {min(t.__name__ for t in kinds)}")
            bad = set(map(len, given)).difference(lengths)
            if bad:
                raise ValueError(f"{attr} must have length in "
                                 f"{lengths.start}..{lengths.stop - 1}, got {min(bad)}")
            if not all(map(lt, given, islice(given, 1, None))):
                given = tuple(sorted(set(given)))
            unknown = "".join(given).translate(known)
            if unknown:
                top = max(unknown)
                raise ValueError(f"unknown symbol index {ord(top)} in {attr} "
                                 f"over {len(alphabet)} symbols")
            object.__setattr__(self, attr, given)
            if cache:
                object.__setattr__(self, cache, frozenset(given))
        object.__setattr__(self, "_chars", {s: chr(i) for i, s in enumerate(alphabet)})

    @cached_property
    def _factor_set(self) -> frozenset[str]:
        return frozenset(self.factors)

    def encode(self, symbols: Iterable[str]) -> str:
        """The index string of a symbol word; ValueError on unknown symbols."""
        return _encode_with(self._chars, symbols)

    def decode(self, z: str) -> Word:
        """The symbol word of an index string."""
        return tuple(map(self.alphabet.__getitem__, map(ord, z)))

    def accepts(self, z: str) -> bool:
        """Decide membership of an index string in the spec's language."""
        k = self.width
        if len(z) < k:
            return z in self._short_set
        if z[:k - 1] not in self._prefix_set or z[-(k - 1):] not in self._suffix_set:
            return False
        windows = map(z.__getitem__, map(slice, range(len(z) - k + 1), range(k, len(z) + 1)))
        return all(map(self._factor_set.__contains__, windows))


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


def slt_membership(spec: SltSpec, word: Sequence[str]) -> bool:
    """Decide membership of a symbol word in the spec's language."""
    return spec.accepts(spec.encode(word))


class StreamRecognizer:
    """Symbol-at-a-time recogniser using O(width) memory.

    After feeding a word and calling :meth:`finish`, the verdict equals
    :func:`slt_membership` on the same word.  ``reset`` returns the
    recogniser to its initial state; feeding after ``finish`` is an error.
    A symbol outside the spec's alphabet raises ValueError and leaves the
    state as it was.
    """

    def __init__(self, spec: SltSpec) -> None:
        self._spec = spec
        self._chars = spec._chars
        self._factor_set = spec._factor_set
        self._width = spec.width
        self.reset()

    def reset(self) -> None:
        self._head = ""  # the first width-1 symbols, as an index string
        self._tail = ""  # the last width-1 symbols
        self._factors_ok = True
        self._count = 0
        self._finished = False

    def feed(self, symbol: str) -> None:
        if self._finished:
            raise RuntimeError("feed after finish; call reset() first")
        try:
            c = self._chars[symbol]
        except KeyError:
            raise ValueError(f"unknown symbol: {symbol!r}") from None
        window = self._tail + c
        if len(window) < self._width:  # still within the first width-1 symbols
            self._head = window
        else:
            if window not in self._factor_set:
                self._factors_ok = False
            window = window[1:]
        self._tail = window
        self._count += 1

    def finish(self) -> bool:
        self._finished = True
        spec = self._spec
        if self._count == 0:
            return False
        if self._count < spec.width:
            return self._head in spec._short_set
        return (self._factors_ok
                and self._head in spec._prefix_set
                and self._tail in spec._suffix_set)


def compile_spec(spec: SltSpec, state_cap: int = DEFAULT_CAP,
                 onto: Optional[tuple[Sequence[str], Callable[[str], str]]] = None) -> Table:
    """Compile a spec to a table accepting its language, or the image of
    that language under a letter-to-letter map.

    States track the word read so far while it is a start string: a
    (k-1)-string that is an allowed prefix or a short word, or a shorter
    string that is a short word or a proper prefix of one of those.  Then
    they track the most recent (k-1)-window, kept distinct from the start
    string it equals so that words of length exactly k-1 are decided by the
    short-word set alone.  State 0 is initial; the start strings are visited
    in ascending order, those below k-1 first, then the windows breadth
    first, and states are numbered as they are first reached.  The moves
    out of window u are read off the run of ``spec.factors`` that starts
    with u.  Each row is built once, as a tuple, when its state is expanded.

    Without ``onto`` the table reads symbols and is deterministic.  With
    ``onto = (letters, letter)`` it reads each symbol s as ``letter(s)``,
    which must be in ``letters``, and accepts the projected language: a
    row entry holds the ascending successors on every symbol with that
    letter.  The states and their numbering are the same either way.
    """
    k = spec.width
    chars = [chr(b) for b in range(len(spec.alphabet))]
    letters, letter = onto if onto is not None else (spec.alphabet, lambda symbol: symbol)
    index = {a: i for i, a in enumerate(letters)}
    outside = [a for a in map(letter, spec.alphabet) if a not in index]
    if outside:
        raise ValueError(f"mapped letter not in target alphabet: {outside[0]!r}")
    letter_of = [index[letter(symbol)] for symbol in spec.alphabet]

    pool = spec._prefix_set | {w for w in spec.short_words if len(w) == k - 1}
    pool |= {w[:i] for w in chain(pool, spec.short_words)
             for i in range(min(len(w) + 1, k - 1))}

    empty_row: tuple[tuple[int, ...], ...] = ((),) * len(letters)
    succ: list[Sequence[tuple[int, ...]]] = []
    single: list[tuple[int]] = []  # single[q] == (q,), shared by every row entering q alone
    finals: set[int] = set()
    start: dict[str, int] = {}    # the start strings, of at most k-1 symbols
    windows: dict[str, int] = {}  # every later (k-1)-window
    queue: list[str] = []         # the windows in the order first reached

    def new_state() -> int:
        q = len(succ)
        if q >= state_cap:
            raise CapacityError(f"compiled automaton exceeds cap of {state_cap} states")
        succ.append(empty_row)
        single.append((q,))
        return q

    def state(ids: dict[str, int], word: str) -> int:
        q = ids.get(word)
        if q is None:
            q = ids[word] = new_state()
        return q

    def enter(row: list[tuple[int, ...]], b: int, q: int) -> None:
        """Add q to the row's successors on the letter of symbol b."""
        a = letter_of[b]
        row[a] = tuple(sorted(row[a] + single[q])) if row[a] else single[q]

    # each factor u + b moves window u on symbol b to window factor[1:]; the
    # factors are sorted, so those of u are the run from where u would go
    factors, end = spec.factors, len(spec.factors)

    def moves(u: str) -> tuple[tuple[int, ...], ...]:
        """The row of window ``u``, numbering the windows it reaches first."""
        row: list[tuple[int, ...]] = [()] * len(letters)
        i = bisect_left(factors, u)
        while i < end and factors[i].startswith(u):
            f = factors[i]
            v = f[1:]
            q = windows.get(v)
            if q is None:
                q = windows[v] = new_state()
                queue.append(v)
            enter(row, ord(f[-1]), q)
            i += 1
        return tuple(row)

    state(start, "")
    for u in sorted(pool, key=lambda u: (len(u) == k - 1, u)):  # below k-1 first
        src = state(start, u)
        if u in spec._short_set:
            finals.add(src)
        if len(u) < k - 1:
            row: list[tuple[int, ...]] = [()] * len(letters)
            for b, c in enumerate(chars):
                if u + c in pool:
                    enter(row, b, state(start, u + c))
            succ[src] = tuple(row)
        elif u in spec._prefix_set:
            succ[src] = moves(u)

    for u in queue:  # grows while it is read: breadth first
        src = windows[u]
        if u in spec._suffix_set:
            finals.add(src)
        succ[src] = moves(u)

    return Table(tuple(letters), succ, frozenset(finals), (0,))


def slt_to_nfa(spec: SltSpec, state_cap: int = DEFAULT_CAP) -> Nfa:
    """Compile a spec to an NFA accepting exactly its language: the
    :func:`compile_spec` table with symbols as letters."""
    table = compile_spec(spec, state_cap)
    alphabet = spec.alphabet
    transitions = tuple((q, alphabet[a], dst) for q, row in enumerate(table.succ)
                        for a, targets in enumerate(row) for dst in targets)
    return Nfa(n=len(table.succ), alphabet=alphabet, transitions=transitions,
               initial=table.initial[0], finals=table.finals)

