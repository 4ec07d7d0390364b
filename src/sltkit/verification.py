"""Verification of decompositions, the corpus runner, the paper's growth
constants, and the refuter that demonstrates why fewer than 2|A| local
symbols cannot work.

Nothing here trusts a decomposition: the claimed equality between the
projected slt language (plus residual) and the machine's language is
re-derived by one subset product, either exactly or up to a length
horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Optional, Sequence

from .automata import (
    DEFAULT_CAP,
    CapacityError,
    Nfa,
    Table,
    Word,
    differences,
    parse_nfa,
)
from .codes import f_value, g_value, g_value_printed, verify_factor_decodable
from .construction import (
    Decomposition,
    medvedev_main,
    medvedev_width2,
    parse_decomposition,
    prepare,
)
from .slt import check_alphabet_size, compile_spec, slt_membership, window_ops


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a decomposition against its source machine.

    A failing verdict carries the least counterexample of each kind found:
    a source word that is missing from the claimed language, and one the
    claim produces in excess (with a local-side witness when it came
    through the slt language).
    """

    mode: str
    horizon: Optional[int]
    ok: bool
    missing: Optional[Word] = None
    extra: Optional[Word] = None
    extra_local: Optional[Word] = None
    set_sizes: dict[str, int] = field(default_factory=dict)
    notice: Optional[str] = None


def default_horizon(dec: Decomposition) -> int:
    """Bounded-mode horizon 2k+4: two full window periods and four letters
    more, past every short word."""
    return 2 * dec.k + 4


def _set_sizes(dec: Decomposition) -> dict[str, int]:
    return {"I": len(dec.slt.prefixes), "T": len(dec.slt.suffixes),
            "F": len(dec.slt.factors), "short": len(dec.slt.short_words),
            "residual": len(dec.residual)}


def claimed_table(m: Nfa, dec: Decomposition) -> Table:
    """The language ``dec`` claims for ``m`` as one table over ``m``'s
    letters: the spec compiled straight onto them (see
    :func:`compile_spec`) and, if ``dec`` has a residual, its words read in
    stored order into a trie appended to that table, whose root is one
    more start state.  A residual letter outside the alphabet raises
    ``ValueError``."""
    table = compile_spec(dec.slt, onto=(m.alphabet, dec.pi.letter))
    if not dec.residual:
        return table
    succ, finals, root = table.succ, set(table.finals), len(table.succ)
    succ.append([()] * len(m.alphabet))
    for word in dec.residual:
        node = root
        for a in m.letter_positions(word):
            row = succ[node]
            if not row[a]:
                row[a] = (len(succ),)
                succ.append([()] * len(m.alphabet))
            node = row[a][0]
        finals.add(node)
    return Table(table.alphabet, succ, frozenset(finals), table.initial + (root,))


def verify_decomposition(m: Nfa, dec: Decomposition, mode: str = "exact",
                         horizon: Optional[int] = None,
                         cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check that the projected slt language plus residual equals L(m).

    Both modes build the claim as one table (see :func:`claimed_table`)
    and search the product of its subsets and the machine's subsets for
    words on which the claim and the machine disagree (see
    :func:`differences`), visiting at most ``cap`` product states, until
    they have the least missing and the least extra word.  Bounded mode
    stops the search at the horizon (default 2k+4), so residual words past
    it are not compared.  Exact mode that hits the cap falls back to
    bounded mode, under the same cap, with a notice.  A spec whose table
    exceeds the compiler's cap raises :class:`CapacityError` in either
    mode, since both search the same table.  An extra word's least local
    preimage is found by walking the spec's symbol-level table along that
    word alone.  A decomposition whose recorded source fingerprint is not
    that of ``prepare(m)`` is still checked against ``m``, with a notice
    saying so.  A ``horizon`` below 1 raises ``ValueError`` in either mode.
    """
    if mode not in ("exact", "bounded"):
        raise ValueError(f"unknown mode: {mode!r}")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    mismatch = prepare(m).mismatch(dec)
    notices = [mismatch] if mismatch else []
    claimed, machine = claimed_table(m, dec), m.table

    def report(h: Optional[int]) -> VerificationReport:
        found: dict[bool, Word] = {}
        for word, is_extra in differences(claimed, machine, cap, h):
            found.setdefault(is_extra, word)
            if len(found) == 2:
                break
        extra = found.get(True)
        return VerificationReport(
            mode="exact" if h is None else "bounded", horizon=h, ok=not found,
            missing=found.get(False), extra=extra,
            extra_local=None if extra is None else _local_preimage(dec, extra),
            set_sizes=_set_sizes(dec), notice="; ".join(notices) or None)

    if mode == "exact":
        try:
            return report(None)
        except CapacityError as exc:
            notices.append(f"exact mode hit a resource cap ({exc}); fell back to bounded")
    return report(horizon if horizon is not None else default_horizon(dec))


def _local_preimage(dec: Decomposition, word: Word) -> Optional[Word]:
    """The least word of the slt language that projects onto ``word``, if any.

    Walks the spec's symbol-level table (see :func:`compile_spec`) along
    ``word``, keeping for each state the least string that reaches it.  The
    table is deterministic and strings are extended in ascending symbol
    order, so the first string to reach a state is its least one.
    """
    spec = dec.slt
    table = compile_spec(spec)
    preimages: dict[str, list[int]] = {}
    for b, symbol in enumerate(spec.alphabet):
        preimages.setdefault(dec.pi.letter(symbol), []).append(b)
    least = {table.initial[0]: ""}
    for letter in word:
        reached: dict[int, str] = {}
        for q, z in least.items():
            for b in preimages.get(letter, ()):
                for dst in table.succ[q][b]:
                    reached.setdefault(dst, z + chr(b))
        least = reached
    z = next((z for q, z in least.items() if q in table.finals), None)
    return None if z is None else spec.decode(z)


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
    search reads lengths up to the longest residual word plus 2k + 2, and
    the result records that bound.
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


def _code_detail(machine: Nfa, h: int, cap: int) -> tuple[bool, str]:
    code = prepare(machine).code(h)
    check = verify_factor_decodable(code, cap)
    detail = f"windows={check.windows_checked}"
    if check.witness is not None:
        detail += " witness=" + ".".join(code.digits[ord(d)] for d in check.witness)
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
        report = verify_decomposition(machine, dec, mode=how, horizon=limit, cap=cap)
        return report.ok, _witness_detail(report)

    run("width2", lambda: verified(medvedev_width2(machine), "exact", None))
    for h in ratios:
        run(f"main h={h}", lambda: verified(
            medvedev_main(machine, h, cap=cap), mode, horizon))
        run(f"code h={h}", lambda: _code_detail(machine, h, cap))
    for path in dec_paths:
        run(f"fixture {path.name}", lambda: verified(
            parse_decomposition(path.read_text()), mode, horizon))
    return entries


def run_corpus(directory: str, *, ratios: Sequence[int] = (2, 3), mode: str = "exact",
               horizon: Optional[int] = None, cap: int = DEFAULT_CAP) -> CorpusReport:
    """Build and verify both constructions for every machine in a directory.

    Picks up ``<stem>.nfa`` machine files plus any ``<stem>[.tag].dec``
    decomposition fixtures, which are verified against their machine: the
    one with the longest stem the fixture's name starts with.  ``mode`` and
    ``horizon`` apply to the main builds and the fixtures; width-2 builds
    are verified exactly.  ``cap`` bounds set sizes, enumerated words,
    product states in either verification mode and the codewords a
    state-code check holds.  Per-file problems are reported as failing
    entries without aborting the run; entries come in file-name order.  A
    ``horizon`` below 1 or a ratio past the index-string limit raises
    ValueError and a ``directory`` that is not one raises
    NotADirectoryError, before any task runs.
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    for h in ratios:
        check_alphabet_size(h, "digit alphabet")
    if not FsPath(directory).is_dir():
        raise NotADirectoryError(f"not a directory: {directory!r}")
    nfa_files = sorted(FsPath(directory).glob("*.nfa"))
    fixtures: dict[str, list[FsPath]] = {p.stem: [] for p in nfa_files}
    for dec_file in sorted(FsPath(directory).glob("*.dec")):
        owners = [stem for stem in fixtures if dec_file.name.startswith(stem + ".")]
        if owners:
            fixtures[max(owners, key=len)].append(dec_file)
    return CorpusReport(entries=tuple(
        entry for p in nfa_files
        for entry in _run_corpus_file(p, fixtures[p.stem], ratios, mode, horizon, cap)))
