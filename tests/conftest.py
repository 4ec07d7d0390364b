import pathlib
import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Optional

import pytest

import sltkit as sk
from sltkit.automata import DEFAULT_CAP, CapacityError, Table, Transition, differences
from sltkit.construction import _main_spec, pair_symbol, state_symbol
from sltkit.slt import compile_spec

CORPUS_NAMES = ("abbplus", "abplus", "aplus", "evens", "needs_sink", "nondet")


def corpus_text(name: str) -> str:
    return (pathlib.Path(sk.corpus_dir()) / f"{name}.nfa").read_text()


def lh_nfa(h: int) -> sk.Nfa:
    """Machine for one or more repetitions of a followed by h b's."""
    transitions = ([(0, "a", 1)]
                   + [(i, "b", i + 1) for i in range(1, h + 1)]
                   + [(h + 1, "a", 1)])
    return sk.Nfa(n=h + 2, alphabet=("a", "b"), transitions=tuple(transitions),
                  initial=0, finals=frozenset({h + 1}))


def symbol_spec(width, alphabet, prefixes=(), suffixes=(), factors=(),
                short_words=()) -> sk.SltSpec:
    """A spec given by symbol words, encoded over ``alphabet``."""
    encode = sk.word_encoder(alphabet)
    return sk.SltSpec(width=width, alphabet=tuple(alphabet),
                      prefixes=map(encode, prefixes), suffixes=map(encode, suffixes),
                      factors=map(encode, factors), short_words=map(encode, short_words))


def symbol_words(spec: sk.SltSpec, attr: str) -> set:
    """One of the spec's word sets, decoded to symbol words."""
    return set(map(spec.decode, getattr(spec, attr)))


def word_key(m: sk.Nfa):
    """Sort key realising length-then-lexicographic order by the position of
    each letter in ``m``'s alphabet."""
    index = {a: i for i, a in enumerate(m.alphabet)}

    def position(letter: str) -> int:
        if letter not in index:
            raise ValueError(f"unknown letter: {letter!r}")
        return index[letter]

    return lambda word: (len(word), tuple(map(position, word)))


def random_member(m: sk.Nfa, length: int, rng: random.Random):
    """A member of exactly ``length`` letters, drawn letter by letter, or None."""
    ahead = [set(m.finals)]  # ahead[r]: states with a final state exactly r steps on
    for _ in range(length):
        ahead.append({src for src, _, dst in m.transitions if dst in ahead[-1]})
    if m.initial not in ahead[length]:
        return None
    word, states = [], {m.initial}
    for r in range(length, 0, -1):
        successors = {a: {dst for q in states for dst in m.step(q, a) if dst in ahead[r - 1]}
                      for a in m.alphabet}
        a = rng.choice([a for a, targets in successors.items() if targets])
        word.append(a)
        states = successors[a]
    return tuple(word)


@dataclass(frozen=True)
class Path:
    """A run through an NFA: an origin state plus consecutive transitions.

    Zero-length paths are allowed; they consist of the origin alone.  Paths
    are the paper's terms for the encodings; the package encodes words on
    their runs without building them.
    """

    origin: int
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self) -> None:
        prev = self.origin
        for src, _, dst in self.transitions:
            if src != prev:
                raise ValueError("transitions are not consecutive")
            prev = dst

    @property
    def end(self) -> int:
        return self.transitions[-1][2] if self.transitions else self.origin

    @property
    def label(self) -> sk.Word:
        return tuple(a for _, a, _ in self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)


def enumerate_m_paths(m: sk.Nfa, origin: int, length: int,
                      cap: int = DEFAULT_CAP) -> list[Path]:
    """All paths of exactly ``length`` transitions starting at ``origin``.

    ``length == 0`` yields the single empty path.  Output order follows the
    canonical transition order at every step.
    """
    if not (0 <= origin < m.n):
        raise ValueError(f"unknown state: {origin}")
    if length < 0:
        raise ValueError("length must be nonnegative")
    out_by_state: dict[int, list[Transition]] = {q: [] for q in range(m.n)}
    for t in m.transitions:
        out_by_state[t[0]].append(t)
    seqs: list[tuple[Transition, ...]] = [()]
    for _ in range(length):
        nxt: list[tuple[Transition, ...]] = []
        for seq in seqs:
            here = seq[-1][2] if seq else origin
            for t in out_by_state[here]:
                nxt.append(seq + (t,))
                if len(nxt) > cap:
                    raise CapacityError(f"path enumeration exceeds cap of {cap}")
        seqs = nxt
        if not seqs:
            break
    return [Path(origin, seq) for seq in seqs]


def encode_path_width2(m: sk.Nfa, path: Path) -> sk.Word:
    """Encode a successful run transition-by-transition as state-letter pairs."""
    if len(path) < 1 or path.origin != m.initial or path.end not in m.finals:
        raise ValueError("path is not successful")
    for src, a, dst in path.transitions:
        if dst not in m.step(src, a):
            raise ValueError(f"not a transition of the machine: ({src}, {a!r}, {dst})")
    return tuple(state_symbol(src, a) for src, a, _ in path.transitions)


def canonical_decomposition(path: Path, m: int) -> list[Path]:
    """Split a path into maximal m-blocks plus one trailing block.

    The result always ends with the trailing block, which is empty when the
    length is an exact multiple of m.
    """
    if m < 1:
        raise ValueError("block length must be at least 1")
    if len(path) < m:
        raise ValueError("path shorter than the block length")
    blocks: list[Path] = []
    ts = path.transitions
    full = len(ts) // m
    for b in range(full):
        seg = ts[b * m:(b + 1) * m]
        blocks.append(Path(seg[0][0], seg))
    blocks.append(Path(blocks[-1].end, ts[full * m:]))
    return blocks


def encode_m_path(code: sk.Code, path: Path) -> sk.Word:
    """Pair a path's letters with the leading digits of its origin's codeword.

    A full m-block carries the whole codeword; a shorter trailing block
    carries only as many digits as it has letters.  The empty path encodes
    to the empty word.
    """
    if len(path) > code.m:
        raise ValueError(f"path longer than the block length {code.m}")
    codeword = code.codewords[path.origin]
    return tuple(pair_symbol(a, code.digits[ord(codeword[i])])
                 for i, (_, a, _) in enumerate(path.transitions))


def encode_blocks(code: sk.Code, path: Path) -> sk.Word:
    """Block-wise encoding of an arbitrary path: the definition
    :func:`sltkit.encode_word` and the window sweep keep."""
    if len(path) <= code.m:
        return encode_m_path(code, path)
    out: list[str] = []
    for block in canonical_decomposition(path, code.m):
        out.extend(encode_m_path(code, block))
    return tuple(out)


def reference_main_sets(m: sk.Nfa, code: sk.Code, width: int, cap: int = DEFAULT_CAP):
    """Window sets of width ``width`` by brute-force enumeration of
    block-encoded paths.

    Definitional oracle for the swept construction; feasible only on small
    machines.  Returns (prefixes, suffixes, factors) as sets of words.
    Prefixes encode the (width-1)-paths from the initial state; the factors
    starting j < m letters into a block are ``z[j:j+width]`` of the paths of
    j + width steps from a block start, so a walk that cannot run on past its
    window still counts; the suffixes are the last width-1 letters of the
    paths of width + j steps into a final state, which start j + 1 letters
    on.  Unlike the constructions it does not prepare ``m``: it enumerates
    the paths of the machine it is given.
    """
    blen = code.m
    prefixes = {encode_blocks(code, path)
                for path in enumerate_m_paths(m, m.initial, width - 1, cap=cap)}
    suffixes: set[sk.Word] = set()
    factors: set[sk.Word] = set()
    for origin in range(m.n):
        for j in range(blen):
            for path in enumerate_m_paths(m, origin, j + width, cap=cap):
                factors.add(encode_blocks(code, path)[j:])
                if path.end in m.finals:
                    suffixes.add(encode_blocks(code, path)[-(width - 1):])
    return prefixes, suffixes, factors


def reference_width2(m: sk.Nfa) -> sk.Decomposition:
    """The width-2 decomposition read off the prepared machine's transitions
    symbol by symbol: the oracle for :func:`sltkit.medvedev_width2`, which
    sweeps the same windows out of the machine's rows."""
    source = sk.prepare(m)
    m = source.machine
    symbols = {(q, a): state_symbol(q, a) for q in range(m.n) for a in m.alphabet}
    alphabet = tuple(symbols.values())
    encode = sk.word_encoder(alphabet)
    prefixes = {encode((symbols[(m.initial, a)],)) for a in m.alphabet if m.step(m.initial, a)}
    factors = {encode((symbols[(p, a)], symbols[(q, b)]))
               for p, a, q in m.transitions for b in m.alphabet if m.step(q, b)}
    suffixes = {encode((symbols[(p, a)],)) for p, a, q in m.transitions if q in m.finals}
    spec = sk.SltSpec(width=2, alphabet=alphabet, prefixes=prefixes, suffixes=suffixes,
                      factors=factors, short_words=prefixes & suffixes)
    pi = sk.Homomorphism(tuple((s, a) for (_, a), s in symbols.items()))
    return sk.Decomposition(kind="width2", slt=spec, pi=pi, source_fingerprint=source.fingerprint)


def paper_main(m: sk.Nfa, h: int) -> sk.Decomposition:
    """The main decomposition as the paper states it, on the prepared
    machine: the width-2m windows of the build's context automaton, no
    short words, and every source word shorter than 3m as the residual."""
    dec = sk.medvedev_main(m, h)
    source = sk.prepare(m)
    spec = _main_spec(source, h, 2 * dec.m, DEFAULT_CAP)
    residual = sk.enumerate_language(source.machine, 3 * dec.m - 1)
    return replace(dec, slt=replace(spec, short_words=()), residual=tuple(residual))


def find_path(m: sk.Nfa, word: sk.Word) -> Path:
    """Deterministic successful path labelled by ``word``: at each step the
    least viable successor in canonical transition order is taken."""
    by_letter: dict[str, list[tuple[int, int]]] = {a: [] for a in m.alphabet}
    for src, a, dst in m.transitions:
        by_letter[a].append((src, dst))
    unknown = next((a for a in word if a not in by_letter), None)
    if unknown is not None:
        raise ValueError(f"unknown letter: {unknown!r}")
    viable: list[set[int]] = [set(m.finals)]
    for a in reversed(word):
        ahead = viable[-1]
        viable.append({src for src, dst in by_letter[a] if dst in ahead})
    viable.reverse()
    if m.initial not in viable[0]:
        raise ValueError("word is not in the machine's language")
    current = m.initial
    transitions: list[tuple[int, str, int]] = []
    for t, a in enumerate(word):
        nxt = min(q for q in m.step(current, a) if q in viable[t + 1])
        transitions.append((current, a, nxt))
        current = nxt
    return Path(m.initial, tuple(transitions))


def run_encodings(m: sk.Nfa, h: int, word) -> set[sk.Word]:
    """The block encodings of ``word`` along every successful run of the
    prepared machine under its state code at ratio ``h``: the runs are
    followed letter by letter, and runs that agree on their state, their
    block's origin and their encoding so far are followed once."""
    source = sk.prepare(m)
    machine, code = source.machine, source.code(h)
    runs = {(machine.initial, machine.initial, ())}
    for i, a in enumerate(word):
        offset = i % code.m
        step = set()
        for q, origin, z in runs:
            origin = q if offset == 0 else origin
            symbol = pair_symbol(a, code.digits[ord(code.codewords[origin][offset])])
            step.update((dst, origin, z + (symbol,)) for dst in machine.step(q, a))
        runs = step
    return {z for q, _, z in runs if q in machine.finals}


def reference_encoding(m: sk.Nfa, dec: sk.Decomposition, word) -> sk.Word:
    """The definitional encoding of a member: the least of its block
    encodings along every successful run on the prepared machine, in the
    order of the build's letter-major, digit-minor local alphabet."""
    encodings = run_encodings(m, dec.h, word)
    if not encodings:
        raise ValueError("word is not in the machine's language")
    code = sk.prepare(m).code(dec.h)
    rank = {pair_symbol(a, d): i for i, (a, d) in enumerate(product(m.alphabet, code.digits))}
    return min(encodings, key=lambda z: tuple(map(rank.__getitem__, z)))


def projected_language(dec: sk.Decomposition, alphabet) -> sk.Nfa:
    """An NFA for the projected slt language of ``dec`` plus its residual."""
    image = sk.relabel(sk.slt_to_nfa(dec.slt), dict(dec.pi.pairs), alphabet)
    if dec.residual:
        image = sk.union_nfa(image, sk.word_set_nfa(dec.residual, alphabet))
    return image


def _step(succ, s: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The ascending subset a table moves the subset ``s`` to on letter ``a``."""
    if len(s) == 1:
        return succ[s[0]][a]
    return tuple(sorted({dst for q in s for dst in succ[q][a]}))


def reference_differences(t1: Table, t2: Table, cap: int = DEFAULT_CAP,
                          max_len: Optional[int] = None) -> Iterator[tuple[sk.Word, bool]]:
    """The subset product keyed by pairs of subset tuples, with a depth per
    queue entry: the definition :func:`sltkit.automata.differences` keeps.

    Runs the subset construction on both tables at once, breadth first with
    letters in alphabet order, and yields ``(word, accepted by t1)`` for the
    least word reaching each pair of subsets that disagree on acceptance.
    With ``max_len``, the search stops there: pairs at that depth are not
    expanded, and nothing else changes.  Raises :class:`CapacityError` past
    ``cap`` visited product states.
    """
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be at least 1")
    succ1, succ2 = t1.succ, t2.succ
    fin1, fin2 = t1.finals, t2.finals
    letters = range(len(t1.alphabet))
    start = (t1.initial, t2.initial)

    def accepting(s: tuple[int, ...], finals: frozenset[int]) -> bool:
        return s[0] in finals if len(s) == 1 else not finals.isdisjoint(s)

    parent: dict[tuple[tuple[int, ...], tuple[int, ...]],
                 Optional[tuple[tuple[tuple[int, ...], tuple[int, ...]], int]]] = {start: None}
    queue = deque([(start, 0)])
    while queue:
        pair, depth = queue.popleft()
        s1, s2 = pair
        if accepting(s1, fin1) != accepting(s2, fin2):
            word: list[str] = []
            link = parent[pair]
            while link is not None:
                last, a = link
                word.append(t1.alphabet[a])
                link = parent[last]
            yield tuple(reversed(word)), accepting(s1, fin1)
        if depth == max_len:
            continue
        for a in letters:
            nxt = (_step(succ1, s1, a), _step(succ2, s2, a))
            if nxt not in parent:
                if len(parent) >= cap:
                    raise CapacityError(
                        f"equivalence check exceeds cap of {cap} product states")
                parent[nxt] = (pair, a)
                queue.append((nxt, depth + 1))


def reference_claimed(dec: sk.Decomposition, alphabet) -> Table:
    """One table for the claimed language: the projected slt table with the
    residual, in its stored order, appended as a trie whose root joins the
    start subset, even when the residual is empty.  Its subsets merge window
    states and trie nodes."""
    projected = compile_spec(dec.slt, onto=(tuple(alphabet), dec.pi.letter))
    succ = list(projected.succ)
    index = {a: i for i, a in enumerate(alphabet)}
    root = len(succ)
    succ.append([()] * len(alphabet))
    finals = set(projected.finals)
    for word in dec.residual:
        try:
            path = list(map(index.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"unknown letter: {exc.args[0]!r}") from None
        node = root
        for a in path:
            row = succ[node]
            if not row[a]:
                row[a] = (len(succ),)
                succ.append([()] * len(alphabet))
            node = row[a][0]
        finals.add(node)
    return Table(tuple(alphabet), succ, frozenset(finals), projected.initial + (root,))


def infer_slt(sample, k: int, alphabet=None) -> sk.SltSpec:
    """The width-k spec of the windows occurring in a sample of words.

    Prefixes, suffixes and factors are exactly those occurring in the
    sample, and a word of length k-1 is its own prefix and suffix; sample
    words shorter than k become short words.  So a sample word of length
    k-1 can let in longer words that start or end with it, which the
    tightest spec containing the sample would not; :func:`sampled_min_width`
    infers the windows from the longer words alone.
    """
    words = {tuple(w) for w in sample}
    if not words:
        raise ValueError("sample must be nonempty")
    if () in words:
        raise ValueError("sample may not contain the empty word")
    if alphabet is None:
        alphabet = sorted({s for w in words for s in w})
    encode = sk.word_encoder(alphabet)
    prefixes: set[str] = set()
    suffixes: set[str] = set()
    factors: set[str] = set()
    short: set[str] = set()
    for w in map(encode, words):
        if len(w) < k:
            short.add(w)
        if len(w) >= k - 1:
            prefixes.add(w[:k - 1])
            suffixes.add(w[-(k - 1):])
        factors.update(w[i:i + k] for i in range(len(w) - k + 1))
    return sk.SltSpec(width=k, alphabet=tuple(alphabet), prefixes=prefixes,
                      suffixes=suffixes, factors=factors, short_words=short)


def sampled_min_width(m: sk.Nfa, max_k: int, max_len: int) -> Optional[int]:
    """The least width in 2..max_k whose spec inferred from the members up
    to ``max_len`` agrees with the machine up to ``max_len``, or None.
    Bounded, so not a proof; None also for an empty sample."""
    sample = sk.enumerate_language(m, max_len)
    if not sample:
        return None
    encode = sk.word_encoder(m.alphabet)
    table = m.table
    for k in range(2, max_k + 1):
        # a member shorter than k is a short word only, never a prefix or
        # suffix; with no longer member there is no factor to let one in
        windows = infer_slt([w for w in sample if len(w) >= k] or sample, k, m.alphabet)
        spec = replace(windows, short_words=tuple(encode(w) for w in sample if len(w) < k))
        if next(differences(compile_spec(spec), table, DEFAULT_CAP, max_len), None) is None:
            return k
    return None


def reference_window_words(rows, starts, steps: int, into, ends, tails: bool, cap: int,
                           what: str) -> tuple[set[str], set[str]]:
    """The window sweep keyed by the word read so far, with the set of
    contexts it ends in, over each context's edges one by one: the
    definition ``construction._window_words`` keeps, with the same caps,
    counts and messages.  Returns the walks whose last edge enters one of
    ``into``, and beside them those whose last edge enters one of
    ``ends``: if ``tails``, the ``steps``-edge ones without their first
    symbol, else those of every length up to ``steps``, the short words.
    The arguments are as that function takes them."""
    edges = [[(c, dst) for c, target in zip(*row) for dst in target] for row in rows]
    short: set[str] = set()

    def extend(frontier: dict[str, set[int]]) -> list[tuple[str, int]]:
        walks = [(w + c, dst) for w, states in frontier.items() for st in states
                 for c, dst in edges[st]]
        if not tails:
            short.update(z for z, dst in walks if dst in ends)
            if len(short) > cap:
                raise CapacityError(f"short words exceed cap of {cap}: {len(short)}")
        return walks

    frontier: dict[str, set[int]] = {"": set(starts)}
    for _ in range(steps - 1):
        nxt: dict[str, set[int]] = {}
        for z, dst in extend(frontier):
            nxt.setdefault(z, set()).add(dst)
        if len(nxt) > cap:
            raise CapacityError(f"window set exceeds cap of {cap}: {len(nxt)} {what}")
        frontier = nxt
    walks = [(w + c, dst) for w, states in frontier.items() for st in states
             for c, dst in edges[st]]
    words = {z for z, dst in walks if dst in into}
    if len(words) > cap:
        raise CapacityError(f"window set exceeds cap of {cap}: {len(words)} {what}")
    if tails:
        return words, {z[1:] for z, dst in walks if dst in ends}
    extend(frontier)
    return words, short


def reference_factor_decodable(code: sk.Code, cap: int = DEFAULT_CAP) -> sk.CodeCheck:
    """Sweep every (2m-1)-window over all codeword triples.

    Windows of that length span at most three codewords, so triples cover
    every window of an arbitrarily long codeword stream.  Distinct window
    contents are checked once against every alignment that produces them:
    the check passes iff each window has exactly one codeword occurrence
    and it sits where the true alignment put it.
    """
    m = code.m
    state_of = {w: q for q, w in enumerate(code.codewords)}
    cws = list(state_of)
    prefixes = {length: sorted({w[:length] for w in cws}) for length in range(m)}
    suffixes = {length: sorted({w[-length:] for w in cws}) for length in range(1, m)}

    expected: dict[str, set[tuple[int, int]]] = {}

    def add(window: str, pos: int, state: int) -> None:
        expected.setdefault(window, set()).add((pos, state))
        if len(expected) > cap:
            raise CapacityError(f"window sweep exceeds cap of {cap} distinct windows")

    # window aligned with the start of the first codeword
    for state, w in enumerate(cws):
        for pre in prefixes[m - 1]:
            add(w + pre, 1, state)
    # window starting offset positions into the first codeword: it shows a
    # codeword suffix, a full middle codeword, then a codeword prefix
    for offset in range(1, m):
        for suf in suffixes[m - offset]:
            for state in range(len(cws)):
                middle = cws[state]
                for pre in prefixes[offset - 1]:
                    add(suf + middle + pre, m + 1 - offset, state)

    for window, exp in expected.items():
        matches = [(j + 1, state_of[window[j:j + m]])
                   for j in range(m) if window[j:j + m] in state_of]
        if len(matches) != 1 or set(matches) != exp:
            return sk.CodeCheck(False, window, len(expected))
    return sk.CodeCheck(True, None, len(expected))


@pytest.fixture(scope="session")
def machines() -> dict[str, sk.Nfa]:
    return {name: sk.parse_nfa(corpus_text(name)) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def build_main(machines):
    """Session cache of main-construction decompositions per (machine, ratio)."""
    cache: dict[tuple[str, int], sk.Decomposition] = {}

    def _build(name: str, h: int) -> sk.Decomposition:
        if (name, h) not in cache:
            cache[(name, h)] = sk.medvedev_main(machines[name], h)
        return cache[(name, h)]

    return _build
