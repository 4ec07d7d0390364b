"""Homomorphic decompositions of NFA languages into slt languages.

Two constructions are provided.  The width-2 construction pairs states
with letters, giving a local (width-2) language over n*|A| symbols.  The
main construction encodes states as fixed-length digit blocks and pairs
letters with digits, giving width 2m-2 over only h*|A| symbols, two below
the paper's 2m.  Its local language is the walks of a context automaton
(see :func:`_context_automaton`), kept on the machine's :class:`Source`
per ratio: the build sweeps its windows and short words out of the walks,
and :func:`encode_word` takes the least walk that spells a word.  Both
specs, and the tightest width-k spec that :func:`min_slt_width` tests,
are swept out of an automaton's rows by one helper, :func:`_swept_spec`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter
from typing import Container, Optional, Sequence

from .automata import (
    DEFAULT_CAP,
    CapacityError,
    Nfa,
    ParseError,
    Word,
    differences,
    format_word,
    parse_word,
    trim,
)
from .codes import Code, build_code
from .slt import SltSpec, check_alphabet_size, compile_spec, word_encoder

WIDTH2 = "width2"
MAIN = "main"

Row = tuple[str, list[tuple[int, ...]]]  # a context's symbols and, beside each, its targets


@dataclass(frozen=True)
class Homomorphism:
    """A letter-to-letter mapping from local symbols to source letters."""

    pairs: tuple[tuple[str, str], ...]
    _map: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple((s, a) for s, a in self.pairs)
        mapping: dict[str, str] = {}
        for sym, letter in pairs:
            if sym in mapping:
                raise ValueError(f"duplicate symbol: {sym!r}")
            mapping[sym] = letter
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_map", mapping)

    def letter(self, symbol: str) -> str:
        try:
            return self._map[symbol]
        except KeyError:
            raise ValueError(f"unknown symbol: {symbol!r}") from None

    def __call__(self, word: Sequence[str]) -> Word:
        try:
            return tuple(map(self._map.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"unknown symbol: {exc.args[0]!r}") from None

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def image(self) -> tuple[str, ...]:
        return tuple(sorted({a for _, a in self.pairs}))


@dataclass(frozen=True)
class Decomposition:
    """An slt spec, a projection back to source letters, and a finite
    residual word set whose union is claimed to equal the source language.

    The claim is checked by the verification module, never assumed here.
    Both constructions leave the residual empty; hand-written decompositions
    use it, such as the paper's form of the main build, which lists the
    source words shorter than 3m.
    The residual is stored as a deduplicated tuple in length-then-lex
    order; a tuple of tuples already in that order, without duplicates, is
    kept as it is, and any other is deduplicated and sorted.
    """

    kind: str
    slt: SltSpec
    pi: Homomorphism
    residual: tuple[Word, ...] = ()
    h: Optional[int] = None
    m: Optional[int] = None
    source_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (WIDTH2, MAIN):
            raise ValueError(f"unknown decomposition kind: {self.kind!r}")
        if set(self.pi.domain) != set(self.slt.alphabet):
            raise ValueError("projection domain must equal the local alphabet")
        residual = self.residual
        if not (isinstance(residual, tuple) and all(type(w) is tuple for w in residual)
                and all(len(u) < len(v) or (len(u) == len(v) and u < v)
                        for u, v in zip(residual, islice(residual, 1, None)))):
            residual = tuple(sorted({tuple(w) for w in residual}, key=lambda w: (len(w), w)))
        if residual and not residual[0]:
            raise ValueError("residual may not contain the empty word")
        if self.kind == WIDTH2:
            if self.slt.width != 2 or residual or self.h is not None or self.m is not None:
                raise ValueError("width2 decompositions have width 2 and no residual")
        else:
            if self.h is None or self.m is None or self.h < 2 or self.m < 2:
                raise ValueError("main decompositions need h >= 2 and m >= 2")
            if self.slt.width < 2 * self.m - 2:
                raise ValueError("main decompositions have width at least 2m-2")
        object.__setattr__(self, "residual", residual)

    @property
    def k(self) -> int:
        return self.slt.width


def nfa_fingerprint(m: Nfa) -> str:
    """Short stable digest of a machine's canonical description."""
    lines = ["alphabet " + " ".join(m.alphabet), f"states {m.n}", f"initial {m.initial}"]
    lines.extend(f"final {q}" for q in sorted(m.finals))
    lines.extend(f"trans {s} {a} {t}" for s, a, t in m.transitions)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Source:
    """The machine both constructions and the word encoder work on: the
    trim part of a given machine (see :func:`~sltkit.automata.trim`),
    without the states no successful run visits, and its fingerprint.
    Machines with the same trim part, such as ``m`` and ``totalize(m)``,
    have the same source and so give the same decomposition.  The state
    code and the context automaton at each ratio are built once and kept.
    """

    machine: Nfa
    fingerprint: str
    _codes: dict[int, Code] = field(default_factory=dict, init=False, repr=False, compare=False)
    _automata: dict[int, tuple[list[Row], frozenset[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def code(self, h: int) -> Code:
        """The main construction's state code at ratio ``h``, built once, for
        at least two states: an empty-language machine trims to one state,
        and two is the smallest pool the recurrence has."""
        if h not in self._codes:
            self._codes[h] = build_code(max(self.machine.n, 2), h)
        return self._codes[h]

    def automaton(self, h: int) -> tuple[list[Row], frozenset[int]]:
        """The context automaton at ratio ``h`` (see :func:`_context_automaton`),
        built once, after its |A|*h symbols are checked against the
        index-string limit."""
        if h not in self._automata:
            check_alphabet_size(len(self.machine.alphabet) * h, "local alphabet")
            self._automata[h] = _context_automaton(self.machine, self.code(h))
        return self._automata[h]

    def mismatch(self, dec: Decomposition) -> Optional[str]:
        """Why ``dec`` was not built for this source, or None: its
        ``source_fingerprint`` is set and differs from this one."""
        if dec.source_fingerprint and dec.source_fingerprint != self.fingerprint:
            return (f"decomposition was built for machine {dec.source_fingerprint}, "
                    f"not for this one ({self.fingerprint})")
        return None


def prepare(m: Nfa) -> Source:
    """The :class:`Source` of ``m``, computed once per machine object and
    kept on it, so every build, encoding and check of ``m`` shares it."""
    if m._prepared is None:
        machine = trim(m)
        object.__setattr__(m, "_prepared", Source(machine, nfa_fingerprint(machine)))
    return m._prepared


def pair_symbol(first: str, second: str) -> str:
    return f"{first}|{second}"


def state_symbol(state: int, letter: str) -> str:
    return pair_symbol(f"q{state}", letter)


def medvedev_width2(m: Nfa) -> Decomposition:
    """Width-2 decomposition over state-letter pairs.

    A pair <q,a> means "took an a-transition out of q".  The spec is swept
    out of the machine's rows (see :func:`_swept_spec`), where state q reads
    <q,a> into each a-successor: prefixes anchor the initial state, factors
    mirror the transitions, suffixes mark moves into a final state, and the
    short words are the initial state's moves into a final state.  The
    projection keeps the letter, and the alphabet has the
    ``prepare(m).machine.n * |A|`` pairs.
    """
    source = prepare(m)
    m = source.machine
    check_alphabet_size(m.n * len(m.alphabet), "local alphabet")
    alphabet = tuple(state_symbol(q, a) for q in range(m.n) for a in m.alphabet)
    rows = _state_rows(m, len(m.alphabet))
    spec = _swept_spec(rows, m.initial, m.finals, True, range(len(rows)), 2, alphabet,
                       len(alphabet) ** 2)
    pi = Homomorphism(tuple(zip(alphabet, m.alphabet * m.n)))
    return Decomposition(kind=WIDTH2, slt=spec, pi=pi, source_fingerprint=source.fingerprint)


def _context_automaton(m: Nfa, code: Code) -> tuple[list[Row], frozenset[int]]:
    """Automaton emitting the letter-digit stream of block-encoded runs.

    Contexts are (current state, block origin, offset into the block);
    block boundaries roll the origin over to the state just entered.  Only
    contexts reachable from block starts exist: the block start of each
    state, numbered as the state, and the targets of their edges, so every
    context part-way through a block has an edge in.  Edges carry their
    symbol as an index character of the letter-major local alphabet.  A
    context's row is its symbols in ascending order, as one string, and
    beside each symbol the ascending tuple of contexts it leads to.
    Returns the rows and the contexts whose state is final.
    """
    blen, h, cw = code.m, code.h, list(code.codewords)

    keys: list[tuple[int, int, int]] = [(q, q, 0) for q in range(m.n)]
    ids: dict[tuple[int, int, int], int] = {key: q for q, key in enumerate(keys)}

    def ctx(key: tuple[int, int, int]) -> int:
        if key not in ids:
            ids[key] = len(keys)
            keys.append(key)
        return ids[key]

    succ = m.table.succ
    fwd: list[Row] = []
    for state, origin, offset in keys:  # grows while it is read
        digit = ord(cw[origin][offset])
        symbols: list[str] = []
        targets: list[tuple[int, ...]] = []
        for a, dsts in enumerate(succ[state]):
            if dsts:
                symbols.append(chr(a * h + digit))
                targets.append(tuple(
                    ctx((dst, origin, offset + 1) if offset + 1 < blen else (dst, dst, 0))
                    for dst in dsts))
        fwd.append(("".join(symbols), targets))
    return fwd, frozenset(i for i, (q, _, _) in enumerate(keys) if q in m.finals)


def _state_rows(m: Nfa, stride: int) -> list[Row]:
    """The machine's rows: state q reads index ``q * stride + a`` into its
    a-successors, for each letter a it has successors on."""
    return [("".join(chr(q * stride + a) for a, dsts in enumerate(row) if dsts),
             [dsts for dsts in row if dsts]) for q, row in enumerate(m.table.succ)]


def _window_words(rows: list[Row], starts: Sequence[int], steps: int, into: Container[int],
                  ends: Container[int], tails: bool, cap: int,
                  what: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The index strings of all ``steps``-edge walks from ``starts`` whose
    last edge enters one of ``into``, and beside them the walks whose last
    edge enters one of ``ends``: if ``tails``, the ``steps``-edge ones
    less their first symbol, else those of every length from 1 to
    ``steps`` (the short words); both as strictly increasing tuples.
    ``rows`` are the contexts' rows.

    The frontier is two parallel lists: the words read so far, in
    ascending order, and the tuple of contexts each ends in.  A word's
    children append its row's symbols in order, so they come out sorted,
    and the children of different words never collide.  Only a word
    ending in several contexts merges their rows, and picks its last
    symbols, once per distinct tuple.  The walks are counted against
    ``cap`` before any is built, and the short words as each length is
    read; the tails, which collide, and the short words, of several
    lengths, are sorted."""
    merged: dict[tuple[int, ...], Row] = {(q,): row for q, row in enumerate(rows)}
    finals: dict[tuple[int, ...], tuple[str, ...]] = {}

    def merge(t: tuple[int, ...]) -> Row:
        pairs = sorted({(c, dst) for q in t for c, target in zip(*rows[q]) for dst in target})
        runs = [(c, tuple(map(itemgetter(1), run))) for c, run in groupby(pairs, itemgetter(0))]
        row = merged[t] = "".join(c for c, _ in runs), [targets for _, targets in runs]
        return row

    def final(t: tuple[int, ...]) -> tuple[str, ...]:
        symbols, targets = merged.get(t) or merge(t)
        pair = finals[t] = tuple("".join(c for c, target in zip(symbols, targets)
                                         if any(map(keep.__contains__, target)))
                                 for keep in (into, ends))
        return pair

    short: list[str] = []

    def ended(words: list[str], lasts: list[tuple[str, ...]]) -> None:
        short.extend(w + c for w, (_, symbols) in zip(words, lasts) for c in symbols)
        if len(short) > cap:
            raise CapacityError(f"short words exceed cap of {cap}: {len(short)}")

    words: list[str] = [""]
    contexts = [tuple(starts)]
    for _ in range(steps - 1):
        here = [merged.get(t) or merge(t) for t in contexts]
        if not tails:
            ended(words, [finals.get(t) or final(t) for t in contexts])
        words = [w + c for w, (symbols, _) in zip(words, here) for c in symbols]
        if len(words) > cap:
            raise CapacityError(f"window set exceeds cap of {cap}: {len(words)} {what}")
        contexts = [t for _, targets in here for t in targets]
    lasts = [finals.get(t) or final(t) for t in contexts]
    count = sum(map(len, map(itemgetter(0), lasts)))
    if count > cap:
        raise CapacityError(f"window set exceeds cap of {cap}: {count} {what}")
    if tails:
        beside = tuple(sorted({w[1:] + c for w, (_, symbols) in zip(words, lasts)
                               for c in symbols}))
    else:
        ended(words, lasts)
        beside = tuple(sorted(short))
    return tuple(w + c for w, (symbols, _) in zip(words, lasts) for c in symbols), beside


def _swept_spec(rows: list[Row], start: int, ends: Container[int], aligned: bool,
                prefix_into: Container[int], width: int, alphabet: tuple[str, ...],
                cap: int) -> SltSpec:
    """The width-``width`` spec over ``alphabet`` whose window sets and
    short words are swept out of an automaton's ``rows`` (see
    :func:`_window_words`).

    Prefixes are the (width-1)-edge walks from ``start`` whose last edge
    enters a context in ``prefix_into``, and the short words the walks
    from ``start`` of 1 to width-1 edges whose last edge enters one of
    ``ends``, read in the same sweep; factors are all width-edge walks,
    and the suffixes their tails that end in one of ``ends``, so a suffix
    leaves a context with an edge in.  If ``aligned``, every edge into one
    of ``ends`` is a suffix instead, as width 2 has it.  ``cap`` bounds
    each window set and the short words.
    """
    every = range(len(rows))
    prefixes, short = _window_words(rows, [start], width - 1, prefix_into, ends, False, cap,
                                    "prefixes")
    factors, suffixes = _window_words(rows, every, width, every, ends, True, cap, "factors")
    if aligned:
        suffixes = tuple(c for symbols, targets in rows for c, target in zip(symbols, targets)
                         if any(map(ends.__contains__, target)))
    return SltSpec(width=width, alphabet=alphabet, prefixes=prefixes, suffixes=suffixes,
                   factors=factors, short_words=short)


def _main_spec(source: Source, h: int, width: int, cap: int) -> SltSpec:
    """The width-``width`` spec of the block-encoded runs of a source's
    machine under its state code at ratio ``h``, over the letter-major
    letter-digit pairs.  Its windows and short words are swept out of the
    source's context automaton (see :func:`_swept_spec`), where a suffix
    leaves a context with an edge in: part-way through a block, or at a
    block start where a full block ends.  The short words are its walks
    from the initial state's block start into a final state's context
    shorter than ``width``: the source words below ``width``, block-encoded
    along every run.  ``cap`` bounds the automaton, each window set and
    the short words."""
    m, code = source.machine, source.code(h)
    rows, ends = source.automaton(h)
    if len(rows) > cap:
        raise CapacityError(f"context automaton exceeds cap of {cap}: {len(rows)}")
    alphabet = tuple(pair_symbol(a, d) for a in m.alphabet for d in code.digits)
    return _swept_spec(rows, m.initial, ends, False, range(len(rows)), width, alphabet, cap)


def medvedev_main(m: Nfa, h: int, *, cap: int = DEFAULT_CAP) -> Decomposition:
    """Width-(2m-2) decomposition over letter-digit pairs at alphabetic ratio h.

    Prefixes come from walks anchored at the initial state's codeword;
    factors are all (2m-2)-windows of block-encoded runs; suffixes are
    windows of runs that end in a final state.  A (2m-2)-window that starts
    at a block start holds that block's whole codeword and the first m-2
    digits of the next, which fix the next block's state, so these windows
    decide every word of length 2m-2 or more (the README has the argument);
    the source words shorter than 2m-2 are the short words, each written as
    its block encoding along every run, so the residual stays empty.  The
    spec is built by :func:`_main_spec`, whose window sets and short words
    are swept out of the source's context automaton in sorted order (see
    :func:`_window_words`) rather than by materialising path triples.  The
    machine is prepared first, and the automaton is kept on its source for
    :func:`encode_word`.  ``cap`` bounds the context automaton, each
    window set and the short words.
    """
    source = prepare(m)
    m = source.machine
    source.automaton(h)  # refuses an alphabet past the index-string limit first
    code = source.code(h)
    spec = _main_spec(source, h, 2 * code.m - 2, cap)
    pi = Homomorphism(tuple(zip(spec.alphabet, (a for a in m.alphabet for _ in code.digits))))
    return Decomposition(kind=MAIN, slt=spec, pi=pi, h=h, m=code.m,
                         source_fingerprint=source.fingerprint)


def _tightest_spec(m: Nfa, k: int, cap: int) -> SltSpec:
    """The least width-k spec whose language contains the machine's.

    Swept out of the prepared machine's rows (see :func:`_swept_spec`),
    where every walk lies on a successful run: the factors are the labels
    of k-step walks, the prefixes those of (k-1)-step walks from the
    initial state that can take one more step, the suffixes those of
    (k-1)-step walks into a final state from a state with an edge in, and
    the short words those of the walks shorter than k from the initial
    state into a final one, the members shorter than k.  Symbols are
    alphabet positions.
    """
    m = prepare(m).machine
    rows = _state_rows(m, 0)
    onward = {q for q, (symbols, _) in enumerate(rows) if symbols}  # the walk can go on
    return _swept_spec(rows, m.initial, m.finals, False, onward, k, m.alphabet, cap)


def min_slt_width(m: Nfa, max_k: int, cap: int = DEFAULT_CAP) -> Optional[int]:
    """The least width k in 2..max_k at which the machine's language is
    k-slt, or None if there is none.

    Exact: a language is k-slt iff it equals its tightest width-k spec (see
    :func:`_tightest_spec`), and :func:`~sltkit.automata.differences`
    compares the two with no length bound.  ``cap`` bounds each window set,
    the short words, the compiled spec and the product states of each
    comparison.
    """
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    table = prepare(m).machine.table
    for k in range(2, max_k + 1):
        spec = compile_spec(_tightest_spec(m, k, cap), cap)
        if next(differences(spec, table, cap), None) is None:
            return k
    return None


def _least_walk(rows: list[Row], ends: frozenset[int], start: int, h: int,
                path: Sequence[int]) -> Optional[str]:
    """The least index string of a walk from ``start`` along the letter
    positions ``path`` into one of ``ends``, or None; ``rows`` are a
    context automaton's, whose symbols for letter a are ``a*h .. a*h+h-1``.

    Each context reached is kept once, under the least string that
    reaches it.  The contexts are grouped by that string, the groups in
    ascending order, so a group's children, by ascending symbol, come out
    ascending too.  A step records for each new group the group it came
    from and the symbol it read, and only the least group that ends is
    spelled out.  A step depends only on the groups and the letter, so
    each distinct one is worked out once per word."""
    groups: tuple[tuple[int, ...], ...] = ((start,),)
    trail: list[tuple[tuple[int, str], ...]] = []
    steps: dict[tuple, tuple] = {}  # (groups, letter) -> (groups after, their links)
    for a in path:
        step = steps.get((groups, a))
        if step is None:
            seen: set[int] = set()
            after: list[tuple[int, ...]] = []
            links: list[tuple[int, str]] = []
            for i, group in enumerate(groups):
                moves: dict[str, set[int]] = {}
                for q in group:
                    for c, target in zip(*rows[q]):
                        if ord(c) // h == a:
                            moves.setdefault(c, set()).update(target)
                for c in sorted(moves):
                    fresh = tuple(sorted(moves[c] - seen))
                    if fresh:
                        seen.update(fresh)
                        after.append(fresh)
                        links.append((i, c))
            step = steps[groups, a] = tuple(after), tuple(links)
        groups, links = step
        trail.append(links)
    i = next((i for i, group in enumerate(groups) if not ends.isdisjoint(group)), None)
    if i is None:
        return None
    spelled = []
    for links in reversed(trail):
        i, c = links[i]
        spelled.append(c)
    return "".join(reversed(spelled))


def encode_word(nfa: Nfa, dec: Decomposition, word: Sequence[str]) -> Word:
    """Encode a member of the machine's language into the local language.

    The encoding is the least walk of the source's context automaton at
    ``dec.h`` (see :meth:`Source.automaton`) from the initial state's
    block start into a final state's context that spells ``word`` (see
    :func:`_least_walk`): the least block encoding along any of its runs.
    It is checked against ``dec.slt`` and returned in the spec's own
    symbols.  The machine is prepared as in the build, once per machine
    object, so block encodings line up with it.  A decomposition built
    for another machine is rejected: one whose block length differs from
    the source's state code, or whose ``source_fingerprint`` is set and
    differs from the source's.
    """
    if dec.kind != MAIN:
        raise ValueError("word encoding requires a main-kind decomposition")
    source = prepare(nfa)
    m = source.machine
    path = m.letter_positions(word)
    assert dec.m is not None and dec.h is not None
    z = _least_walk(*source.automaton(dec.h), m.initial, dec.h, path)
    if z is None:
        raise ValueError("word is not in the machine's language")
    code = source.code(dec.h)
    if code.m != dec.m:
        raise ValueError(f"decomposition has block length {dec.m}, but the machine's "
                         f"state code has block length {code.m}")
    mismatch = source.mismatch(dec)
    if mismatch:
        raise ValueError(mismatch)
    spec = dec.slt
    symbols = {c: pair_symbol(m.alphabet[ord(c) // dec.h], code.digits[ord(c) % dec.h])
               for c in set(z)}
    z = spec.encode(map(symbols.__getitem__, z))
    if not spec.accepts(z):
        raise ValueError("encoded word is not in the decomposition's slt language")
    return spec.decode(z)


def decode_word(dec: Decomposition, word: Sequence[str]) -> Word:
    """Project a local word back to source letters, symbol by symbol."""
    return dec.pi(word)


_SECTIONS = ("I", "T", "F", "SHORT", "RESIDUAL")


def _check_token(token: str) -> None:
    if not token or any(c in ".#'\"" or c.isspace() for c in token):
        raise ValueError(f"token not serializable: {token!r}")


def serialize_decomposition(dec: Decomposition) -> str:
    """Canonical text form; parse followed by serialize is byte-identical."""
    lines = [f"kind {dec.kind}"]
    if dec.source_fingerprint:
        _check_token(dec.source_fingerprint)
        lines.append(f"source {dec.source_fingerprint}")
    if dec.kind == MAIN:
        lines.append(f"h {dec.h}")
        lines.append(f"m {dec.m}")
    lines.append(f"k {dec.slt.width}")
    for sym in dec.slt.alphabet:
        _check_token(sym)
        letter = dec.pi.letter(sym)
        _check_token(letter)
        lines.append(f"symbol {sym} -> {letter}")
    spec = dec.slt
    for header, words in (("I", spec.prefixes), ("T", spec.suffixes),
                          ("F", spec.factors), ("SHORT", spec.short_words)):
        lines.append(header)
        lines.extend(format_word(spec.decode(z)) for z in words)
    lines.append("RESIDUAL")
    for word in dec.residual:
        for letter in word:
            _check_token(letter)
        lines.append(format_word(word))
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    """Parse the section-headed decomposition file format."""
    kind: Optional[str] = None
    source = ""
    numbers: dict[str, int] = {}
    symbol_pairs: list[tuple[str, str]] = []
    sections: dict[str, list] = {name: [] for name in _SECTIONS}  # index strings, but RESIDUAL
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in _SECTIONS:
            if current is None:  # every symbol line comes before the first header
                encode = word_encoder([s for s, _ in symbol_pairs])
            current = line
            continue
        if current is not None:
            word = parse_word(line)
            try:
                sections[current].append(word if current == "RESIDUAL" else encode(word))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "kind":
            if kind is not None or len(tokens) != 2:
                raise ParseError("bad or duplicate 'kind' line", lineno)
            kind = tokens[1]
        elif keyword == "source":
            if source or len(tokens) != 2:
                raise ParseError("bad or duplicate 'source' line", lineno)
            source = tokens[1]
        elif keyword in ("h", "m", "k"):
            if keyword in numbers or len(tokens) != 2:
                raise ParseError(f"bad or duplicate {keyword!r} line", lineno)
            try:
                numbers[keyword] = int(tokens[1])
            except ValueError:
                raise ParseError(f"expected integer after {keyword!r}", lineno) from None
        elif keyword == "symbol":
            if len(tokens) != 4 or tokens[2] != "->":
                raise ParseError("usage: symbol <token> -> <letter>", lineno)
            symbol_pairs.append((tokens[1], tokens[3]))
        else:
            raise ParseError(f"unknown directive: {keyword!r}", lineno)

    if kind is None:
        raise ParseError("missing 'kind' line")
    if "k" not in numbers:
        raise ParseError("missing 'k' line")
    if not symbol_pairs:
        raise ParseError("missing 'symbol' lines")
    # tuples, so that sections already in canonical order are not re-sorted
    spec = SltSpec(width=numbers["k"], alphabet=tuple(s for s, _ in symbol_pairs),
                   prefixes=tuple(sections["I"]), suffixes=tuple(sections["T"]),
                   factors=tuple(sections["F"]), short_words=tuple(sections["SHORT"]))
    return Decomposition(kind=kind, slt=spec, pi=Homomorphism(tuple(symbol_pairs)),
                         residual=tuple(sections["RESIDUAL"]),
                         h=numbers.get("h"), m=numbers.get("m"),
                         source_fingerprint=source)
