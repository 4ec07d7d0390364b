"""Nondeterministic finite automata over token alphabets.

States are integers ``0..n-1``; a word is a tuple of letter tokens.  The
empty word is never accepted: these machines model epsilon-free languages,
so the initial state may not be final.  Everything here is immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

import math
import shlex
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

Word = tuple[str, ...]
Transition = tuple[int, str, int]

DEFAULT_CAP = 10**6


class ParseError(ValueError):
    """Malformed input text; carries the offending line number if known."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class CapacityError(RuntimeError):
    """A configured resource cap would be exceeded."""


def parse_word(text: str) -> Word:
    """Parse a '.'-separated token word; blank input is the empty word."""
    text = text.strip()
    if not text:
        return ()
    return tuple(text.split("."))


def format_word(word: Sequence[str]) -> str:
    return ".".join(word)


@dataclass(frozen=True)
class Table:
    """An automaton as integer arrays, the form the subset searches run on.

    ``succ[q][a]`` is the ascending tuple of successors of state ``q`` on
    letter ``alphabet[a]``, and ``initial`` is the ascending tuple of start
    states.  Nothing is validated or re-sorted: tables are built by code
    that already holds canonical data, such as :class:`Nfa`, the slt
    compiler, which can also read each symbol as its projected letter, or
    the verifier, which appends a decomposition's residual to the compiled
    spec as a trie whose root is one more start state.  Rows that are never
    changed after they are built are tuples, which the cyclic garbage
    collector stops tracking; :func:`differences` reads rows as they are
    and names the subsets it reaches by ints.
    """

    alphabet: tuple[str, ...]
    succ: list[Sequence[tuple[int, ...]]]
    finals: frozenset[int]
    initial: tuple[int, ...]


@dataclass(frozen=True)
class Nfa:
    """An epsilon-free NFA with a total-or-not transition relation.

    ``transitions`` is canonicalised to a deduplicated tuple sorted by
    (source, letter position in the alphabet, target), so equal machines
    compare equal regardless of input order.  ``table`` is the machine's
    one successor index, with a row of tuples per state (see :class:`Table`).
    """

    n: int
    alphabet: tuple[str, ...]
    transitions: tuple[Transition, ...]
    initial: int
    finals: frozenset[int]
    total: bool = field(init=False, compare=False)
    table: Table = field(init=False, repr=False, compare=False)
    _letter_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _prepared: object = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("state count must be at least 1")
        alphabet = tuple(self.alphabet)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        index = {a: i for i, a in enumerate(alphabet)}

        def check_state(q: int, what: str) -> None:
            if not (0 <= q < self.n):
                raise ValueError(f"unknown state: {q} ({what})")

        check_state(self.initial, "initial")
        finals = frozenset(self.finals)
        for q in finals:
            check_state(q, "final")
        if self.initial in finals:
            raise ValueError("initial state cannot be final")

        seen: set[tuple[int, int, int]] = set()  # (source, letter position, target)
        for src, letter, dst in self.transitions:
            check_state(src, "transition source")
            check_state(dst, "transition target")
            if letter not in index:
                raise ValueError(f"unknown letter: {letter!r}")
            seen.add((src, index[letter], dst))
        ordered = sorted(seen)

        succ: list[Sequence[tuple[int, ...]]] = [((),) * len(alphabet)] * self.n
        for src, edges in groupby(ordered, itemgetter(0)):
            row: list[tuple[int, ...]] = [()] * len(alphabet)
            for a, targets in groupby(edges, itemgetter(1)):
                row[a] = tuple(map(itemgetter(2), targets))
            succ[src] = tuple(row)

        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions",
                           tuple((src, alphabet[a], dst) for src, a, dst in ordered))
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "total", all(map(all, succ)))
        object.__setattr__(self, "table", Table(alphabet, succ, finals, (self.initial,)))
        object.__setattr__(self, "_letter_index", index)

    def step(self, state: int, letter: str) -> tuple[int, ...]:
        """Successors of ``state`` on ``letter``, in ascending state order."""
        if not 0 <= state < self.n:
            raise ValueError(f"unknown state: {state}")
        return self.table.succ[state][self.letter_positions((letter,))[0]]

    def letter_positions(self, word: Iterable[str]) -> list[int]:
        """The alphabet positions of a word's letters; ValueError names the
        first letter outside the alphabet."""
        try:
            return list(map(self._letter_index.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"unknown letter: {exc.args[0]!r}") from None


def parse_nfa(text: str) -> Nfa:
    """Parse the line-oriented NFA file format.

    Format ('#' starts a comment)::

        alphabet a b
        states 3
        initial 0
        final 2
        trans 0 a 1

    ``alphabet`` and ``states`` must come first, in that order; the
    remaining lines may appear in any order.  Duplicate transitions are
    ignored.
    """
    alphabet: Optional[tuple[str, ...]] = None
    n: Optional[int] = None
    initial: Optional[int] = None
    finals: set[int] = set()
    transitions: set[Transition] = set()

    def want_int(tok: str, lineno: int, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected integer {what}, got {tok!r}", lineno) from None

    def check_state(q: int, lineno: int) -> int:
        assert n is not None
        if not (0 <= q < n):
            raise ParseError(f"unknown state: {q}", lineno)
        return q

    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate 'alphabet' line", lineno)
            if not args:
                raise ParseError("alphabet must be nonempty", lineno)
            if len(set(args)) != len(args):
                raise ParseError("alphabet letters must be distinct", lineno)
            alphabet = tuple(args)
            continue
        if alphabet is None:
            raise ParseError("'alphabet' line must come first", lineno)
        if keyword == "states":
            if n is not None:
                raise ParseError("duplicate 'states' line", lineno)
            if len(args) != 1:
                raise ParseError("usage: states <count>", lineno)
            n = want_int(args[0], lineno, "state count")
            if n < 1:
                raise ParseError("state count must be at least 1", lineno)
            continue
        if n is None:
            raise ParseError("'states' line must precede state references", lineno)
        if keyword == "initial":
            if initial is not None:
                raise ParseError("duplicate 'initial' line", lineno)
            if len(args) != 1:
                raise ParseError("usage: initial <state>", lineno)
            initial = check_state(want_int(args[0], lineno, "state"), lineno)
        elif keyword == "final":
            if len(args) != 1:
                raise ParseError("usage: final <state>", lineno)
            finals.add(check_state(want_int(args[0], lineno, "state"), lineno))
        elif keyword == "trans":
            if len(args) != 3:
                raise ParseError("usage: trans <from> <letter> <to>", lineno)
            src = check_state(want_int(args[0], lineno, "state"), lineno)
            dst = check_state(want_int(args[2], lineno, "state"), lineno)
            if args[1] not in alphabet:
                raise ParseError(f"unknown letter: {args[1]!r}", lineno)
            transitions.add((src, args[1], dst))
        else:
            raise ParseError(f"unknown directive: {keyword!r}", lineno)

    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    if n is None:
        raise ParseError("missing 'states' line")
    if initial is None:
        raise ParseError("missing 'initial' line")
    if initial in finals:
        raise ParseError("initial state cannot be final")
    return Nfa(n=n, alphabet=alphabet, transitions=tuple(transitions), initial=initial,
               finals=frozenset(finals))


def totalize(m: Nfa) -> Nfa:
    """Make the transition relation total by adding one non-final sink.

    The sink gets the highest state index.  Already-total machines are
    returned unchanged; the language is never altered.
    """
    if m.total:
        return m
    sink = m.n
    extra = [(q, a, sink) for q, row in enumerate(m.table.succ)
             for a, targets in zip(m.alphabet, row) if not targets]
    extra.extend((sink, a, sink) for a in m.alphabet)
    return Nfa(n=m.n + 1, alphabet=m.alphabet, transitions=m.transitions + tuple(extra),
               initial=m.initial, finals=m.finals)


def trim(m: Nfa) -> Nfa:
    """The accessible and co-accessible part of a machine.

    Surviving states keep their relative order and are renumbered densely.
    The initial state always survives, so an empty-language machine trims
    to its initial state alone, without transitions.  A machine with
    nothing to remove is returned unchanged; the language is never altered.
    """
    dist = _distance_to_final(m.table)
    useful: set[int] = set()
    if dist[m.initial] < math.inf:
        useful.add(m.initial)
        queue: deque[int] = deque([m.initial])
        while queue:
            q = queue.popleft()
            for targets in m.table.succ[q]:
                for dst in targets:
                    if dst not in useful and dist[dst] < math.inf:
                        useful.add(dst)
                        queue.append(dst)
    kept = [t for t in m.transitions if t[0] in useful and t[2] in useful]
    states = sorted(useful | {m.initial})
    if len(states) == m.n and len(kept) == len(m.transitions):
        return m
    index = {q: i for i, q in enumerate(states)}
    return Nfa(n=len(index), alphabet=m.alphabet,
               transitions=tuple((index[s], a, index[d]) for s, a, d in kept),
               initial=index[m.initial], finals=frozenset(index[q] for q in m.finals & useful))


def subset_trace(moves: Sequence[Sequence[Iterable[int]]], start: frozenset[int],
                 word: Iterable[int]) -> list[frozenset[int]]:
    """The state sets reached from ``start`` along ``word``, ``start`` first.

    ``word`` is a sequence of letter positions and ``moves[q][a]`` the
    states that state q moves to on letter a, such as a machine's
    successors or its predecessors.  A run visits few distinct sets, so
    the image of each (set, letter) pair is computed once per call.
    """
    memo: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    trace = [start]
    states = start
    for a in word:
        image = memo.get((states, a))
        if image is None:
            image = memo[states, a] = frozenset(dst for q in states for dst in moves[q][a])
        trace.append(image)
        states = image
    return trace


def accepts(m: Nfa, word: Sequence[str]) -> bool:
    """True iff some successful run is labelled by ``word``; the empty word
    is always rejected."""
    path = m.letter_positions(word)
    return bool(path) and not m.finals.isdisjoint(
        subset_trace(m.table.succ, frozenset((m.initial,)), path)[-1])


def _distance_to_final(t: Table) -> list[float]:
    """Minimum number of transitions from each state to a final state;
    infinite where no final state is reachable."""
    rev: list[list[int]] = [[] for _ in t.succ]
    for src, row in enumerate(t.succ):
        for targets in row:
            for dst in targets:
                rev[dst].append(src)
    dist: list[float] = [math.inf] * len(t.succ)
    queue: deque[int] = deque()
    for q in t.finals:
        dist[q] = 0
        queue.append(q)
    while queue:
        q = queue.popleft()
        for p in rev[q]:
            if dist[p] == math.inf:
                dist[p] = dist[q] + 1
                queue.append(p)
    return dist


class _Subsets:
    """The subsets of a table's states that a search reaches, as ints.

    The singleton {q} is q.  Any other subset becomes a new state when it
    is first reached, numbered from ``len(t.succ)`` upward, whose row is
    the union of its members' rows and which is final if a member is; so
    ``succ[s]`` and ``s in finals`` hold for every id.
    """

    def __init__(self, t: Table) -> None:
        self.succ, self.finals, self.letters = list(t.succ), set(t.finals), range(len(t.alphabet))
        self.ids: dict[tuple[int, ...], int] = {}
        self.start = self.intern(t.initial)

    def intern(self, states: tuple[int, ...]) -> int:
        if len(states) == 1:
            return states[0]
        s = self.ids.get(states)
        if s is None:
            succ = self.succ
            s = self.ids[states] = len(succ)
            succ.append(tuple(tuple(sorted({dst for q in states for dst in succ[q][a]}))
                              for a in self.letters))
            if not self.finals.isdisjoint(states):
                self.finals.add(s)
        return s


def enumerate_language(m: Nfa, max_len: int, cap: int = DEFAULT_CAP) -> list[Word]:
    """All accepted words of length 1..max_len in length-then-lex order.

    Dead prefixes are pruned via distance-to-final, so sparse languages of
    long words stay cheap.  Raises :class:`CapacityError` once more than
    ``cap`` words are found.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    t = m.table
    dist, subsets = _distance_to_final(t), _Subsets(t)
    succ, finals, letters = subsets.succ, t.finals, tuple(enumerate(t.alphabet))
    words: list[Word] = []
    frontier: dict[Word, tuple[int, ...]] = {}
    if dist[m.initial] <= max_len:
        frontier[()] = t.initial
    for length in range(1, max_len + 1):
        remaining = max_len - length
        nxt: dict[Word, tuple[int, ...]] = {}
        for w, states in frontier.items():
            row = succ[subsets.intern(states)]
            for a, letter in letters:
                viable = tuple(q for q in row[a] if dist[q] <= remaining)
                if not viable:
                    continue
                word = w + (letter,)
                nxt[word] = viable
                if not finals.isdisjoint(viable):
                    words.append(word)
                    if len(words) > cap:
                        raise CapacityError(f"enumeration exceeds cap of {cap} words")
        frontier = nxt
    return words


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    witness: Optional[Word] = None


def nfa_equivalent(m1: Nfa, m2: Nfa, mode: str = "exact", max_len: Optional[int] = None,
                   cap: int = DEFAULT_CAP) -> EquivalenceResult:
    """Decide (exactly or up to a length bound) whether two NFAs agree.

    Both modes run :func:`differences` on the machines' tables, capped at
    ``cap`` product states; bounded mode reads words up to length
    ``max_len``.  On inequivalence the shortest (then lexicographically
    least) witness word is returned.
    """
    if m1.alphabet != m2.alphabet:
        raise ValueError("machines must share the same alphabet")
    if mode not in ("exact", "bounded"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "bounded" and max_len is None:
        raise ValueError("bounded mode requires max_len")
    first = next(differences(m1.table, m2.table, cap,
                             max_len if mode == "bounded" else None), None)
    return EquivalenceResult(first is None, None if first is None else first[0])


def differences(t1: Table, t2: Table, cap: int = DEFAULT_CAP,
                max_len: Optional[int] = None) -> Iterator[tuple[Word, bool]]:
    """Words on which two tables over the same alphabet disagree.

    Runs the subset construction on both tables at once, breadth first with
    letters in alphabet order, and yields ``(word, accepted by t1)`` for the
    least word reaching each pair of subsets that disagree on acceptance.
    Words come in length-then-lex order, so the first one yielded is the
    least word accepted by exactly one table, and the first one yielded for
    each table the least word only that table accepts.  With ``max_len``,
    the search stops there: pairs at that depth are not expanded, so it
    yields exactly the words of length at most ``max_len`` that the
    unbounded search yields, in the same order.
    Raises :class:`CapacityError` past ``cap`` visited product states.

    Product states are integer keys.  Subsets are ints (see
    :class:`_Subsets`); the pair (s1, s2) is ``s1 * stride + s2`` with
    ``stride`` above every id of ``t2``, and the pair first reached on
    letter a from key p links back to ``p * len(alphabet) + a``.
    """
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be at least 1")
    side1, side2 = _Subsets(t1), _Subsets(t2)
    succ1, succ2, fin1, fin2 = side1.succ, side2.succ, side1.finals, side2.finals
    letters = side1.letters
    # past the singletons, each id of t2 is an image of one of at most cap pairs
    stride = len(t2.succ) + max(cap, 1) * len(letters) + 1
    level = [side1.start * stride + side2.start]
    parent, depth = {level[0]: -1}, 0
    while level:
        reached = []
        for key in level:
            s1, s2 = divmod(key, stride)
            accepted = s1 in fin1
            if accepted != (s2 in fin2):
                word, link = [], parent[key]
                while link >= 0:
                    link, a = divmod(link, len(letters))
                    word.append(t1.alphabet[a])
                    link = parent[link]
                yield tuple(reversed(word)), accepted
            if depth == max_len:
                continue
            row1, row2 = succ1[s1], succ2[s2]
            for a in letters:
                # singletons, by far the most images, are their own ids
                image1, image2 = row1[a], row2[a]
                child = ((image1[0] if len(image1) == 1 else side1.intern(image1)) * stride
                         + (image2[0] if len(image2) == 1 else side2.intern(image2)))
                if child not in parent:
                    if len(parent) >= cap:
                        raise CapacityError(
                            f"equivalence check exceeds cap of {cap} product states")
                    parent[child] = key * len(letters) + a
                    reached.append(child)
        level, depth = reached, depth + 1


def relabel(m: Nfa, mapping: dict[str, str], alphabet: Sequence[str]) -> Nfa:
    """Apply a letter-to-letter mapping to every transition label.

    The result is an NFA over ``alphabet`` accepting the homomorphic image
    of ``m``'s language.
    """
    alphabet = tuple(alphabet)
    for a in m.alphabet:
        if a not in mapping:
            raise ValueError(f"mapping undefined for letter: {a!r}")
        if mapping[a] not in alphabet:
            raise ValueError(f"mapped letter not in target alphabet: {mapping[a]!r}")
    mapped = {(src, mapping[a], dst) for src, a, dst in m.transitions}
    return Nfa(n=m.n, alphabet=alphabet, transitions=tuple(mapped),
               initial=m.initial, finals=m.finals)


def word_set_nfa(words: Iterable[Word], alphabet: Sequence[str]) -> Nfa:
    """A trie-shaped NFA accepting exactly the given finite set of words."""
    alphabet = tuple(alphabet)
    nodes: dict[Word, int] = {(): 0}
    transitions: list[Transition] = []
    finals: set[int] = set()
    for word in sorted(words):
        if not word:
            raise ValueError("cannot accept the empty word")
        for i, a in enumerate(word):
            prefix, ext = word[:i], word[: i + 1]
            if ext not in nodes:
                nodes[ext] = len(nodes)
                transitions.append((nodes[prefix], a, nodes[ext]))
        finals.add(nodes[word])
    return Nfa(n=len(nodes), alphabet=alphabet, transitions=tuple(transitions),
               initial=0, finals=frozenset(finals))


def union_nfa(m1: Nfa, m2: Nfa) -> Nfa:
    """Epsilon-free union of two NFAs over the same alphabet."""
    if m1.alphabet != m2.alphabet:
        raise ValueError("machines must share the same alphabet")
    off1, off2 = 1, 1 + m1.n
    transitions: list[Transition] = []
    for src, a, dst in m1.transitions:
        transitions.append((src + off1, a, dst + off1))
        if src == m1.initial:
            transitions.append((0, a, dst + off1))
    for src, a, dst in m2.transitions:
        transitions.append((src + off2, a, dst + off2))
        if src == m2.initial:
            transitions.append((0, a, dst + off2))
    finals = {q + off1 for q in m1.finals} | {q + off2 for q in m2.finals}
    return Nfa(n=1 + m1.n + m2.n, alphabet=m1.alphabet, transitions=tuple(transitions),
               initial=0, finals=frozenset(finals))
