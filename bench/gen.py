"""Seeded input generators.  The package only ever sees what these produce:
``.nfa`` text for the random machines and letter tuples for the words."""

from __future__ import annotations

import random
from typing import Sequence

from sltkit import Nfa, Word, accepts


def _reachable(delta: dict[tuple[int, str], int], start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        q = todo.pop()
        for (src, _), dst in delta.items():
            if src == q and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _coreachable(delta: dict[tuple[int, str], int], finals: set[int]) -> set[int]:
    seen = set(finals)
    grown = True
    while grown:
        grown = False
        for (src, _), dst in delta.items():
            if dst in seen and src not in seen:
                seen.add(src)
                grown = True
    return seen


def random_total_dfa_text(rng: random.Random, n: int,
                          alphabet: Sequence[str] = ("a", "b")) -> str:
    """A total DFA with n states in ``.nfa`` format: each letter permutes
    the states at random, state 0 is initial and n/2 of the others are final.

    Every state has exactly one in-edge per letter, which keeps the window
    sets of machines of one size within a few percent of each other across
    seeds.  Redrawn until every state is reachable and co-reaches a final
    state, so trimming leaves the machine unchanged.
    """
    while True:
        delta = {}
        for a in alphabet:
            targets = list(range(n))
            rng.shuffle(targets)
            delta.update({(q, a): dst for q, dst in enumerate(targets)})
        finals = set(rng.sample(range(1, n), n // 2))
        if (len(_reachable(delta, 0)) == n
                and len(_coreachable(delta, finals)) == n):
            break
    lines = ["alphabet " + " ".join(alphabet), f"states {n}", "initial 0"]
    lines += [f"final {q}" for q in sorted(finals)]
    lines += [f"trans {q} {a} {dst}" for (q, a), dst in sorted(delta.items())]
    return "\n".join(lines) + "\n"


def require_trim_total(m: Nfa) -> None:
    """Raise unless the parsed machine is total, reachable and co-reachable."""
    delta = {(src, a): dst for src, a, dst in m.transitions}
    if not m.total or len(delta) != len(m.transitions):
        raise RuntimeError("generated machine is not a total DFA")
    if (len(_reachable(delta, m.initial)) != m.n
            or len(_coreachable(delta, set(m.finals))) != m.n):
        raise RuntimeError("generated machine is not trim")


def member_words(rng: random.Random, m: Nfa, count: int, lo: int, hi: int) -> list[Word]:
    """``count`` words of L(m) with lengths drawn uniformly from lo..hi.

    Each word follows a uniformly chosen viable transition at every step;
    lengths with no accepted word are redrawn.  Every word is confirmed
    with :func:`sltkit.accepts`.
    """
    # ahead[j]: states from which some final state is j transitions away
    ahead = [set(m.finals)]
    for _ in range(hi):
        ahead.append({src for src, _, dst in m.transitions if dst in ahead[-1]})
    out_edges: dict[int, list[tuple[str, int]]] = {q: [] for q in range(m.n)}
    for src, a, dst in m.transitions:
        out_edges[src].append((a, dst))
    words: list[Word] = []
    while len(words) < count:
        length = rng.randint(lo, hi)
        if m.initial not in ahead[length]:
            continue
        q, word = m.initial, []
        for left in range(length - 1, -1, -1):
            a, q = rng.choice([(a, dst) for a, dst in out_edges[q] if dst in ahead[left]])
            word.append(a)
        w = tuple(word)
        if not accepts(m, w):
            raise RuntimeError(f"drawn word is not a member: {'.'.join(w)}")
        words.append(w)
    return words


def mutate(word: Word, position: int, pick: int, symbols: Sequence[str]) -> Word:
    """A copy of ``word`` whose symbol at ``position`` is replaced by the
    ``pick``-th of the other symbols."""
    other = [s for s in symbols if s != word[position]][pick]
    return word[:position] + (other,) + word[position + 1:]
