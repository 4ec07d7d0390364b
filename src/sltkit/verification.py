"""Verification of decompositions, the corpus runner, the paper's growth
constants, and the refuter that demonstrates why fewer than 2|A| local
symbols cannot work.

Nothing here trusts a decomposition: the claimed equality between the
projected slt language (plus residual) and the machine's language is
re-derived either exactly, via automata equivalence, or up to a length
horizon, via pruned enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Optional, Sequence

from .automata import (
    DEFAULT_SET_CAP,
    DEFAULT_STATE_CAP,
    DEFAULT_WORD_CAP,
    CapacityError,
    Nfa,
    Table,
    Word,
    accepts,
    enumerate_language,
    first_difference,
    nfa_table,
    parse_nfa,
    table_language,
)
from .codes import f_value, g_value, g_value_printed, verify_factor_decodable
from .construction import (
    MAIN,
    WIDTH2,
    Decomposition,
    medvedev_main,
    medvedev_width2,
    parse_decomposition,
    prepare,
    source_mismatch,
    state_code,
)
from .slt import compile_spec, slt_membership, window_ops


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a decomposition against its source machine.

    A failing verdict always carries at least one counterexample: a source
    word that is missing from the claimed language, or one the claim
    produces in excess (with a local-side witness when it came through the
    slt language).
    """

    mode: str
    horizon: Optional[int]
    ok: bool
    missing: Optional[Word] = None
    extra: Optional[Word] = None
    extra_local: Optional[Word] = None
    set_sizes: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    notice: Optional[str] = None


def default_horizon(dec: Decomposition) -> int:
    """Bounded-mode horizon: past the residual and a full window period."""
    if dec.kind == MAIN:
        assert dec.m is not None
        return max(3 * dec.m + 6, 2 * dec.k + 4)
    return 2 * dec.k + 4


def _set_sizes(dec: Decomposition) -> dict[str, int]:
    return {"I": len(dec.slt.prefixes), "T": len(dec.slt.suffixes),
            "F": len(dec.slt.factors), "short": len(dec.slt.short_words),
            "residual": len(dec.residual)}


def _project(dec: Decomposition, compiled: Table, letters: tuple[str, ...]) -> Table:
    """The compiled slt table with every symbol replaced by its source
    letter, as an index into ``letters``."""
    index = {a: i for i, a in enumerate(letters)}
    letter_of = []
    for symbol in dec.slt.alphabet:
        letter = dec.pi.letter(symbol)
        if letter not in index:
            raise ValueError(f"mapped letter not in target alphabet: {letter!r}")
        letter_of.append(index[letter])
    succ: list[list[tuple[int, ...]]] = []
    for row in compiled.succ:
        out: list[tuple[int, ...]] = [()] * len(letters)
        for symbol, targets in enumerate(row):
            if targets:
                a = letter_of[symbol]
                out[a] = tuple(sorted(out[a] + targets)) if out[a] else targets
        succ.append(out)
    return Table(letters, succ, compiled.finals, compiled.initial)


def _claimed(dec: Decomposition, compiled: Table, alphabet: tuple[str, ...]) -> Table:
    """A table for the claimed language: the projected slt table, with the
    residual appended as a trie whose root joins the start subset."""
    table = _project(dec, compiled, alphabet)
    index = {a: i for i, a in enumerate(alphabet)}
    succ = table.succ
    root = len(succ)
    succ.append([()] * len(alphabet))
    finals = set(table.finals)
    for word in sorted(dec.residual):
        node = root
        for letter in word:
            if letter not in index:
                raise ValueError(f"unknown letter: {letter!r}")
            a = index[letter]
            if not succ[node][a]:
                succ[node][a] = (len(succ),)
                succ.append([()] * len(alphabet))
            node = succ[node][a][0]
        finals.add(node)
    return Table(alphabet, succ, frozenset(finals), table.initial + (root,))


def verify_decomposition(m: Nfa, dec: Decomposition, mode: str = "bounded",
                         horizon: Optional[int] = None,
                         word_cap: int = DEFAULT_WORD_CAP,
                         state_cap: int = DEFAULT_STATE_CAP) -> VerificationReport:
    """Check that the projected slt language plus residual equals L(m).

    Both modes compile the spec once into a table and project it onto
    source letters.  Bounded mode compares enumerations up to the horizon
    and reports the least witness on each failing side.  Exact mode joins
    the residual to the projected table as a trie and decides equivalence
    with one subset product; if a cap is hit it downgrades itself to
    bounded mode with a notice.  A decomposition whose recorded source
    fingerprint is not the prepared machine's is still checked, with a
    notice saying so.
    """
    t0 = time.perf_counter()
    sizes = _set_sizes(dec)
    mismatch = source_mismatch(dec, prepare(m))
    notices = [mismatch] if mismatch else []
    compiled = None
    if mode == "exact":
        try:
            compiled = compile_spec(dec.slt)
            w = first_difference(_claimed(dec, compiled, m.alphabet), nfa_table(m),
                                 state_cap)
            missing = extra = extra_local = None
            if w is not None:
                if accepts(m, w):
                    missing = w
                else:
                    extra = w
                    extra_local = _local_preimage(dec, compiled, w, word_cap)
            return VerificationReport(mode="exact", horizon=None, ok=w is None,
                                      missing=missing, extra=extra,
                                      extra_local=extra_local, set_sizes=sizes,
                                      elapsed=time.perf_counter() - t0,
                                      notice="; ".join(notices) or None)
        except CapacityError as exc:
            notices.append(f"exact mode hit a resource cap ({exc}); fell back to bounded")
    elif mode != "bounded":
        raise ValueError(f"unknown mode: {mode!r}")

    h = horizon if horizon is not None else default_horizon(dec)
    want = set(enumerate_language(m, h, cap=word_cap))
    if compiled is None:
        compiled = compile_spec(dec.slt)
    # letters outside the machine's alphabet stay in play, as extra words
    letters = m.alphabet + tuple(dict.fromkeys(
        a for a in dec.pi.image if a not in m.alphabet))
    image = set(table_language(_project(dec, compiled, letters), h, cap=word_cap))
    have = image | set(dec.residual)

    missing = extra = extra_local = None
    missing_set = want - have
    extra_set = have - want
    if missing_set:
        missing = min(missing_set, key=m.word_key)
    if extra_set:
        extra = min(extra_set, key=m.word_key)
        if extra in image:
            extra_local = _local_preimage(dec, compiled, extra, word_cap)
    return VerificationReport(mode="bounded", horizon=h,
                              ok=not missing_set and not extra_set,
                              missing=missing, extra=extra, extra_local=extra_local,
                              set_sizes=sizes, elapsed=time.perf_counter() - t0,
                              notice="; ".join(notices) or None)


def _local_preimage(dec: Decomposition, compiled: Table, word: Word,
                    word_cap: int) -> Optional[Word]:
    """The least local word projecting onto ``word``, if the slt side has one."""
    for z in table_language(compiled, len(word), cap=word_cap):
        if len(z) == len(word) and dec.pi(z) == word:
            return z
    return None


@dataclass(frozen=True)
class RefutationResult:
    """Outcome of the small-alphabet refutation procedure."""

    letter: Optional[str]
    symbol: Optional[str]
    indistinguishable_pair: Optional[tuple[Word, Word]]
    witness: Optional[Word]
    bound: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def refute_small_ratio(dec: Decomposition, alphabet: Sequence[str]) -> RefutationResult:
    """Refute a claimed decomposition of the even-doubles language at a
    local alphabet smaller than twice the source alphabet.

    The target language is the union over letters a of (aa)+.  Some letter
    has at most one local preimage b; then b-to-the-2k and b-to-the-(2k+1)
    cannot be told apart by any width-k window test, so the claim must
    either produce an odd-length word or miss an even-length one.  The
    search is bounded by the residual length plus one window period and is
    honest about that bound.
    """
    letters = tuple(alphabet)
    local = dec.slt.alphabet
    if len(local) >= 2 * len(letters):
        raise ValueError(
            "refutation requires fewer than 2|A| local symbols "
            f"(got |B|={len(local)}, |A|={len(letters)})")
    preimages: dict[str, list[str]] = {a: [] for a in letters}
    for sym in local:
        target = dec.pi.letter(sym)
        if target in preimages:
            preimages[target].append(sym)
    k = dec.slt.width
    max_residual = max((len(w) for w in dec.residual), default=0)
    bound = max_residual + 2 * k + 2
    residual_set = set(dec.residual)

    for a in letters:
        syms = preimages[a]
        if len(syms) > 1:
            continue
        b = syms[0] if syms else None
        pair = None
        if b is not None:
            even, odd = (b,) * (2 * k), (b,) * (2 * k + 1)
            if (window_ops(even, k - 1)[:2] != window_ops(odd, k - 1)[:2]
                    or window_ops(even, k)[2] != window_ops(odd, k)[2]):
                raise AssertionError("window triples of b^2k and b^(2k+1) must agree")
            pair = (even, odd)
        for t in range(1, bound + 1):
            claimed = ((b is not None and slt_membership(dec.slt, (b,) * t))
                       or (a,) * t in residual_set)
            if claimed != (t % 2 == 0):
                return RefutationResult(letter=a, symbol=b, indistinguishable_pair=pair,
                                        witness=(a,) * t, bound=bound)
    return RefutationResult(letter=None, symbol=None, indistinguishable_pair=None,
                            witness=None, bound=bound)


@dataclass(frozen=True)
class FgValues:
    f: float
    g_printed: float
    g_reconciled: float


def fg_values(h: int) -> FgValues:
    """The growth-rate coefficient and both additive-constant readings."""
    return FgValues(f=f_value(h), g_printed=g_value_printed(h), g_reconciled=g_value(h))


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    task: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CorpusReport:
    entries: tuple[CorpusEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            line = f"file={e.name} task={e.task} result={'pass' if e.ok else 'FAIL'}"
            if e.detail:
                line += f" {e.detail}"
            lines.append(line)
        failures = sum(1 for e in self.entries if not e.ok)
        lines.append(f"tasks={len(self.entries)} failures={failures}")
        return lines


def _witness_detail(report: VerificationReport) -> str:
    parts = [f"mode={report.mode}"]
    if report.horizon is not None:
        parts.append(f"horizon={report.horizon}")
    if report.missing is not None:
        parts.append("missing=" + ".".join(report.missing))
    if report.extra is not None:
        parts.append("extra=" + ".".join(report.extra))
    return " ".join(parts)


def _code_detail(machine: Nfa, h: int) -> tuple[bool, str]:
    check = verify_factor_decodable(state_code(prepare(machine), h))
    detail = f"windows={check.windows_checked}"
    if check.witness is not None:
        detail += " witness=" + ".".join(check.witness)
    return check.ok, detail


def _run_corpus_file(nfa_path: FsPath, dec_paths: Sequence[FsPath], ratios: Sequence[int],
                     mode: str, horizon: Optional[int], cap: int) -> list[CorpusEntry]:
    name = nfa_path.name
    try:
        machine = parse_nfa(nfa_path.read_text())
    except (OSError, ValueError) as exc:
        return [CorpusEntry(name, "parse", False, f"error={exc}")]
    entries: list[CorpusEntry] = []

    def run(task: str, check: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, detail = check()
        except (OSError, ValueError, CapacityError) as exc:
            ok, detail = False, f"error={exc}"
        entries.append(CorpusEntry(name, task, ok, detail))

    def verified(dec: Decomposition, how: str, limit: Optional[int]) -> tuple[bool, str]:
        report = verify_decomposition(machine, dec, mode=how, horizon=limit, word_cap=cap)
        return report.ok, _witness_detail(report)

    run("width2", lambda: verified(medvedev_width2(machine), "exact", None))
    for h in ratios:
        run(f"main h={h}", lambda: verified(
            medvedev_main(machine, h, set_cap=cap, word_cap=cap), mode, horizon))
        run(f"code h={h}", lambda: _code_detail(machine, h))
    for path in dec_paths:
        run(f"fixture {path.name}", lambda: verified(
            parse_decomposition(path.read_text()), mode, horizon))
    return entries


def run_corpus(directory: str, *, ratios: Sequence[int] = (2, 3), mode: str = "bounded",
               horizon: Optional[int] = None, cap: int = DEFAULT_SET_CAP) -> CorpusReport:
    """Build and verify both constructions for every machine in a directory.

    Picks up ``<stem>.nfa`` machine files plus any ``<stem>[.tag].dec``
    decomposition fixtures, which are verified against their machine: the
    one with the longest stem the fixture's name starts with.  ``cap``
    bounds both set sizes and enumerated words.  Per-file problems are
    reported as failing entries without aborting the run; entries come in
    file-name order.
    """
    nfa_files = sorted(FsPath(directory).glob("*.nfa"))
    fixtures: dict[str, list[FsPath]] = {p.stem: [] for p in nfa_files}
    for dec_file in sorted(FsPath(directory).glob("*.dec")):
        owners = [stem for stem in fixtures if dec_file.name.startswith(stem + ".")]
        if owners:
            fixtures[max(owners, key=len)].append(dec_file)
    return CorpusReport(entries=tuple(
        entry for p in nfa_files
        for entry in _run_corpus_file(p, fixtures[p.stem], ratios, mode, horizon, cap)))
