"""Fixed-length state codes whose windows decode to a unique state.

Codewords are length-m digit words whose single occurrence of "00" is the
final two digits.  Any window of 2m-1 consecutive digits taken from a
stream of concatenated codewords then contains exactly one codeword as a
factor, which identifies one state and its alignment.  Codes are never
enumerated: a codeword is unranked from, and ranked back along, the
recurrence that counts the pool.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, Optional

from .automata import DEFAULT_CAP, CapacityError
from .slt import check_alphabet_size

# Tails of at most this many pool words are tabulated when iterating.
_TAIL_WORDS = 4096


def _check_h(h: int) -> None:
    if h < 2:
        raise ValueError("digit alphabet size must be at least 2")


def _counts(h: int, m: int) -> list[int]:
    """``[count_S(h, k) for k in 0..m]`` with ``count_S(h, 1) = 0``, which
    lets the recurrence start at k = 3 (entry 0 is never read)."""
    counts = [0, 0, 1]
    for _ in range(3, m + 1):
        counts.append((h - 1) * (counts[-1] + counts[-2]))
    return counts


@dataclass(frozen=True)
class Codewords(Sequence[str]):
    """The first n words of the sorted pool S(m), computed on demand.

    Words are index strings: character i is ``chr`` of the i-th digit.  For
    m >= 3 the sorted pool is ``0 d y`` (y in S(m-2)) for d = 1..h-1, then
    ``d y`` (y in S(m-1)) for d = 1..h-1, with S(2) = {00} and S(1) empty,
    so a word is unranked (``[q]``) and ranked (``index``) in O(m) steps.
    Two sequences are equal iff (h, m, n) are.
    """

    h: int
    m: int
    n: int
    _counts: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_h(self.h)
        if self.m < 2:
            raise ValueError("block length must be at least 2")
        counts = _counts(self.h, self.m)
        if not 0 <= self.n <= counts[self.m]:
            raise ValueError(f"the pool of length {self.m} has {counts[self.m]} words, "
                             f"not {self.n}")
        object.__setattr__(self, "_counts", counts)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, q: int) -> str:  # type: ignore[override]
        if q < 0:
            q += self.n
        if not 0 <= q < self.n:
            raise IndexError("codeword index out of range")
        h, counts, k = self.h, self._counts, self.m
        out = []
        while k > 2:
            zeros = (h - 1) * counts[k - 2]
            if q < zeros:
                d, q = divmod(q, counts[k - 2])
                out += ("\0", chr(d + 1))
                k -= 2
            else:
                d, q = divmod(q - zeros, counts[k - 1])
                out.append(chr(d + 1))
                k -= 1
        return "".join(out) + "\0\0"

    def index(self, word: str) -> int:  # type: ignore[override]
        """The rank of ``word``; ValueError if it is not one of the n words."""
        h, counts, k = self.h, self._counts, self.m
        if not isinstance(word, str) or len(word) != k:
            raise ValueError(f"{word!r} is not a codeword")
        q = i = 0
        while k > 2:
            d = ord(word[i])
            if d == 0:
                d = ord(word[i + 1])
                if d == 0 or d >= h:
                    break
                q += (d - 1) * counts[k - 2]
                i += 2
                k -= 2
            elif d < h:
                q += (h - 1) * counts[k - 2] + (d - 1) * counts[k - 1]
                i += 1
                k -= 1
            else:
                break
        if k != 2 or word[i:] != "\0\0" or q >= self.n:
            raise ValueError(f"{word!r} is not a codeword")
        return q

    def __contains__(self, word: object) -> bool:
        try:
            self.index(word)  # type: ignore[arg-type]
        except ValueError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return islice(chain.from_iterable(self._runs()), self.n)

    def _runs(self) -> Iterator[list[str]]:
        """Runs of consecutive pool words, in order: each recurrence prefix
        joined to a tabulated pool of short tails."""
        h, counts = self.h, self._counts
        short = 2
        while short < self.m and counts[short + 1] <= _TAIL_WORDS:
            short += 1
        tails: list[list[str]] = [[], [], ["\0\0"]]
        for k in range(3, short + 1):
            tails.append(["\0" + chr(d) + y for d in range(1, h) for y in tails[k - 2]]
                         + [chr(d) + y for d in range(1, h) for y in tails[k - 1]])

        def walk(prefix: str, k: int) -> Iterator[list[str]]:
            if k <= short:
                yield [prefix + y for y in tails[k]]
                return
            for d in range(1, h):
                yield from walk(prefix + "\0" + chr(d), k - 2)
            for d in range(1, h):
                yield from walk(prefix + chr(d), k - 1)

        return walk("", self.m)


@dataclass(frozen=True)
class Code:
    """An injective state -> digit-word mapping with block length ``m``.

    Codewords are index strings ending in two zero digits; ``digits`` gives
    the symbol of each digit for I/O.  A generated code's ``codewords`` is
    a :class:`Codewords`.  A code built by hand from a sequence of words is
    checked for shape and injectivity only; the window-decoding discipline
    is checked behaviourally by :func:`verify_factor_decodable`, so
    deliberately broken codes can be built for testing.
    """

    h: int
    m: int
    codewords: Sequence[str]
    digits: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_h(self.h)
        check_alphabet_size(self.h, "digit alphabet")
        if self.m < 2:
            raise ValueError("block length must be at least 2")
        if isinstance(self.codewords, Codewords):
            if (self.codewords.h, self.codewords.m) != (self.h, self.m):
                raise ValueError("codewords were generated for another h or m")
        else:
            words = tuple(self.codewords)
            top = chr(self.h)
            for w in words:
                if (not isinstance(w, str) or len(w) != self.m or max(w) >= top
                        or not w.endswith("\0\0")):
                    raise ValueError("codewords must be length-m index strings over "
                                     "the digits, ending in two zeros")
            if len(set(words)) != len(words):
                raise ValueError("codeword mapping must be injective")
            object.__setattr__(self, "codewords", words)
        object.__setattr__(self, "digits", tuple(str(d) for d in range(self.h)))

    @property
    def n(self) -> int:
        return len(self.codewords)


def count_S(h: int, m: int) -> int:
    """Exact number of length-m digit words whose only "00" is the suffix.

    Satisfies count(2) = 1, count(3) = h-1 and
    count(m) = (h-1) * (count(m-1) + count(m-2)); plain Fibonacci for h=2.
    Exact arbitrary-precision integers throughout.
    """
    _check_h(h)
    if m < 2:
        raise ValueError("block length must be at least 2")
    return _counts(h, m)[m]


def enumerate_S(h: int, m: int, cap: int = DEFAULT_CAP) -> list[str]:
    """All length-m digit words whose only "00" occurrence is the suffix,
    as index strings in lexicographic digit order."""
    count = count_S(h, m)
    if count > cap:
        raise CapacityError(f"enumeration of {count} words exceeds cap of {cap}")
    return list(Codewords(h, m, count))


def choose_m(n: int, h: int) -> int:
    """Smallest block length whose codeword pool has at least n words."""
    if n < 2:
        raise ValueError("state count must be at least 2")
    _check_h(h)
    m = 2
    while count_S(h, m) < n:
        m += 1
    return m


def f_value(h: int) -> float:
    """Reciprocal log of the pool growth rate: block length grows like
    f(h) * lg2(n)."""
    _check_h(h)
    return 1.0 / (math.log2(h - 1 + math.sqrt((h - 1) * (h + 3))) - 1.0)


def g_value(h: int) -> float:
    """Additive constant such that ceil(g(h) + f(h) * lg2(n)) digits always
    suffice (reconciled form; see also :func:`g_value_printed`)."""
    _check_h(h)
    return 1.0 + f_value(h) * (1.0 + 0.5 * (math.log2(h - 1) + math.log2(h + 3)))


def g_value_printed(h: int) -> float:
    """Alternative reading of the additive constant, kept for comparison
    output only; it disagrees with the reference value table, which
    matches :func:`g_value`."""
    _check_h(h)
    return 1.0 + (f_value(h) / 2.0) * (math.log2(h - 1) + math.log2(h + 3))


def closed_form_m(n: int, h: int) -> int:
    """Closed-form sufficient block length ceil(g(h) + f(h) * lg2(n)).

    Always at least :func:`choose_m`; the exact recurrence is what code
    construction actually uses.
    """
    if n < 2:
        raise ValueError("state count must be at least 2")
    return math.ceil(g_value(h) + f_value(h) * math.log2(n))


def build_code(n: int, h: int) -> Code:
    """Deterministic code for n states: the lexicographically first n words
    of the pool at the smallest sufficient block length."""
    if n < 2:
        raise ValueError("state count must be at least 2")
    m = choose_m(n, h)
    return Code(h=h, m=m, codewords=Codewords(h, m, n))


def factor_decode(code: Code, window: str) -> Optional[tuple[int, int]]:
    """Locate the unique codeword inside a (2m-1)-digit window.

    ``window`` is an index string.  Returns ``(position, state)`` with a
    1-based position in 1..m, or ``None`` when no position or more than one
    position holds a codeword (the latter signals a broken code).  Every
    codeword ends in two zeros, so only the positions ending at a "00" are
    looked up.
    """
    m = code.m
    if len(window) != 2 * m - 1:
        raise ValueError(f"window must have length {2 * m - 1}, got {len(window)}")
    if max(window) >= chr(code.h):
        raise ValueError(f"unknown digit: {max(window)!r}")
    matches = []
    end = window.find("\0\0", m - 2)
    while end != -1:
        start = end + 2 - m
        try:
            matches.append((start + 1, code.codewords.index(window[start:start + m])))
        except ValueError:
            pass
        end = window.find("\0\0", end + 1)
    if len(matches) == 1:
        return matches[0]
    return None


@dataclass(frozen=True)
class CodeCheck:
    ok: bool
    witness: Optional[str]
    windows_checked: int


def verify_factor_decodable(code: Code, cap: int = DEFAULT_CAP) -> CodeCheck:
    """Check that every (2m-1)-window of a codeword stream decodes.

    A window spans at most three codewords: a codeword suffix, a full
    codeword and a codeword prefix, or, aligned, a codeword and a prefix.
    Its own codeword always occurs where the alignment puts it, and any
    other occurrence of a codeword c straddles one junction: c[:s] ends
    some codeword and c[s:] starts some codeword, for a split s in 1..m-1.
    Every such pair of pieces shows up in some window, so the check passes
    iff no codeword splits that way.  One pass per split over the n
    codewords decides it, holding the n tails and the n heads of that
    split; ``cap`` bounds n, the codewords held.

    ``windows_checked`` counts the (window, alignment) pairs a sweep over
    all windows would check: n * |P(m-1)| plus, for each s, |S(s)| * n *
    |P(m-1-s)|, where P(i) and S(i) are the distinct codeword prefixes and
    suffixes of length i.  When the check passes, these windows are
    distinct.  On failure the witness is the window c[:s] + v + p, where v
    is the first codeword starting with c[s:] and p the least codeword
    prefix of length m-1-s: it holds c at position 1 and v at s+1.
    """
    n, m = code.n, code.m
    if n > cap:
        raise CapacityError(f"factor-decodability check holds {n} codewords, "
                            f"over the cap of {cap}")
    words = list(code.codewords)
    heads = [1] * m  # heads[i] = |P(i)|
    tails = [0] * m  # tails[i] = |S(i)|
    straddle = None
    for s in range(1, m):
        ends = {w[-s:] for w in words}
        starts = {w[:m - s] for w in words}
        tails[s], heads[m - s] = len(ends), len(starts)
        if straddle is None:
            straddle = next(((w, s) for w in words if w[:s] in ends and w[s:] in starts),
                            None)
    windows = n * (heads[m - 1] + sum(tails[s] * heads[m - 1 - s] for s in range(1, m)))
    if straddle is None:
        return CodeCheck(True, None, windows)
    c, s = straddle
    v = next(w for w in words if w.startswith(c[s:]))
    p = min(w[:m - 1 - s] for w in words)
    return CodeCheck(False, c[:s] + v + p, windows)
