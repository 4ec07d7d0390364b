"""Command-line entry point wiring every operation together.

Exit status: 0 on success or a passing verdict, 1 when a verification
fails or a refutation witness is found, 2 on usage or input errors.  All
output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path as FsPath
from typing import Optional, Sequence

from .automata import (
    DEFAULT_CAP,
    CapacityError,
    Nfa,
    format_word,
    parse_nfa,
    parse_word,
)
from .codes import build_code, choose_m, closed_form_m
from .construction import (
    MAIN,
    Decomposition,
    decode_word,
    encode_word,
    medvedev_main,
    medvedev_width2,
    min_slt_width,
    parse_decomposition,
    prepare,
    serialize_decomposition,
)
from .slt import slt_membership
from .verification import (
    fg_values,
    refute_small_ratio,
    run_corpus,
    verify_decomposition,
)


def _read_nfa(path: str) -> Nfa:
    return parse_nfa(FsPath(path).read_text())


def _read_dec(path: str) -> Decomposition:
    return parse_decomposition(FsPath(path).read_text())


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; scientific forms like 1e40 stay exact, and
    an empty or negative exponent (which would give a fraction) is rejected."""
    values = []
    for item in text.split(","):
        base, e, exp = item.strip().lower().partition("e")
        if (e and not exp) or int(exp or 0) < 0:
            raise ValueError(f"not an integer: {item.strip()!r}")
        values.append(int(base) * 10 ** int(exp or 0))
    return values


def _positive(text: str, what: str = "a cap") -> int:
    """A count given on the command line (``what``, as the error names
    it): an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{what} must be at least 1, got {value}")
    return value


def _check_out_path(path: str) -> None:
    parent = FsPath(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output directory does not exist: {parent}")


def _write_build(out: str, dec: Decomposition) -> int:
    """Write a built decomposition to ``out`` and print its sizes."""
    FsPath(out).write_text(serialize_decomposition(dec))
    spec = dec.slt
    shape = f"h={dec.h} m={dec.m} " if dec.kind == MAIN else ""
    print(f"written {out} kind={dec.kind} {shape}k={dec.k} |B|={len(spec.alphabet)} "
          f"|I|={len(spec.prefixes)} |T|={len(spec.suffixes)} |F|={len(spec.factors)}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    _check_out_path(args.out)
    machine = _read_nfa(args.nfa)
    states = prepare(machine).machine.n
    if args.ratio >= states:
        print(f"warning: ratio {args.ratio} >= state count {states}; "
              "the width-2 construction would use no more symbols", file=sys.stderr)
    return _write_build(args.out, medvedev_main(machine, args.ratio, cap=args.cap))


def _cmd_build2(args: argparse.Namespace) -> int:
    _check_out_path(args.out)
    return _write_build(args.out, medvedev_width2(_read_nfa(args.nfa)))


def _cmd_verify(args: argparse.Namespace) -> int:
    machine = _read_nfa(args.nfa)
    dec = _read_dec(args.dec)
    report = verify_decomposition(machine, dec, mode=args.mode, horizon=args.maxlen,
                                  cap=args.cap)
    verdict = "pass" if report.ok else "FAIL"
    if report.ok:
        print(f"verification passed in {report.mode} mode"
              + (f" up to length {report.horizon}" if report.horizon else ""))
    else:
        print("verification FAILED:")
        if report.missing is not None:
            print(f"  word in the machine's language but not covered: "
                  f"{format_word(report.missing)}")
        if report.extra is not None:
            print(f"  word covered but not in the machine's language: "
                  f"{format_word(report.extra)}")
            if report.extra_local is not None:
                print(f"  produced by local word: {format_word(report.extra_local)}")
    print(f"verdict={verdict}")
    print(f"mode={report.mode}")
    print(f"horizon={report.horizon if report.horizon is not None else '-'}")
    for key in ("I", "T", "F", "short", "residual"):
        print(f"size_{key}={report.set_sizes[key]}")
    print(f"missing={format_word(report.missing) if report.missing else '-'}")
    print(f"extra={format_word(report.extra) if report.extra else '-'}")
    if report.notice:
        print(f"notice={report.notice}")
    return 0 if report.ok else 1


def _cmd_encode(args: argparse.Namespace) -> int:
    machine = _read_nfa(args.nfa)
    dec = _read_dec(args.dec)
    print(format_word(encode_word(machine, dec, parse_word(args.word))))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    dec = _read_dec(args.dec)
    print(format_word(decode_word(dec, parse_word(args.word))))
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    dec = _read_dec(args.dec)
    spec = dec.slt
    known = set(spec.alphabet)
    for raw in sys.stdin:
        word = parse_word(raw)
        if not word:
            print("reject # empty word")
            continue
        unknown = next((s for s in word if s not in known), None)
        if unknown is not None:
            print(f"reject # unknown symbol: {unknown}")
            continue
        print("accept" if slt_membership(spec, word) else "reject")
    return 0


def _cmd_code(args: argparse.Namespace) -> int:
    code = build_code(args.states, args.ratio)
    print(f"h {code.h}")
    print(f"m {code.m}")
    joiner = "" if code.h <= 10 else "."
    for state, word in enumerate(code.codewords):
        print(f"state {state} {joiner.join(code.digits[ord(d)] for d in word)}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    h_values = _parse_int_list(args.h)
    n_values = _parse_int_list(args.n)
    lines = []  # every value is computed, and so checked, before any is printed
    for h in h_values:
        vals = fg_values(h)
        lines.append(f"h={h} f={vals.f:.4f} g={vals.g_reconciled:.4f} "
                     f"g_printed={vals.g_printed:.4f}")
    for h in h_values:
        for n in n_values:
            lines.append(f"width h={h} n={n} closed={2 * closed_form_m(n, h)} "
                         f"exact={2 * choose_m(n, h)}")
    print("\n".join(lines))
    return 0


def _cmd_minwidth(args: argparse.Namespace) -> int:
    machine = _read_nfa(args.nfa)
    width = min_slt_width(machine, args.max_k, args.cap)
    print(f"width={'none' if width is None else width}")
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    dec = _read_dec(args.dec)
    alphabet = dec.pi.image
    if len(alphabet) != args.alphabet_size:
        raise ValueError(
            f"projection image has {len(alphabet)} letters, expected {args.alphabet_size}")
    result = refute_small_ratio(dec, alphabet)
    print(f"bound={result.bound}")
    if result.found:
        assert result.witness is not None
        print(f"letter={result.letter}")
        print(f"unique_preimage={result.symbol if result.symbol else '-'}")
        if result.indistinguishable_pair:
            lo, hi = result.indistinguishable_pair
            print(f"indistinguishable_pair={format_word(lo)} / {format_word(hi)}")
        print(f"witness={format_word(result.witness)}")
        return 1
    print("no witness found (bounded)")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    report = run_corpus(args.dir, ratios=_parse_int_list(args.ratio), mode=args.mode,
                        horizon=args.maxlen, cap=args.cap)
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltkit",
        description="Convert NFAs into strictly locally testable languages plus "
                    "letter-to-letter projections, and verify the constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p: argparse.ArgumentParser, bounds: str) -> None:
        p.add_argument("--cap", type=_positive, default=DEFAULT_CAP,
                       help=f"cap on {bounds} (default: %(default)s)")

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("exact", "bounded"), default="exact",
                       help="exact equivalence, or bounded to a horizon (default: %(default)s)")
        p.add_argument("--maxlen", type=partial(_positive, what="a horizon"), default=None,
                       help="bounded mode's horizon, and exact mode's fallback horizon "
                            "when it hits the cap (default: 2k+4)")

    p = sub.add_parser("build", help="build the width-(2m-2) decomposition at a ratio")
    p.add_argument("--nfa", required=True)
    p.add_argument("--ratio", type=int, required=True)
    p.add_argument("--out", required=True)
    add_cap(p, "the context automaton, each window set and the short words")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("build2", help="build the width-2 decomposition")
    p.add_argument("--nfa", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build2)

    p = sub.add_parser("verify", help="verify a decomposition against its machine")
    p.add_argument("--nfa", required=True)
    p.add_argument("--dec", required=True)
    add_mode(p)
    add_cap(p, "product states in either mode, each reached by a distinct word")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="encode a source word into the local language")
    p.add_argument("--nfa", required=True)
    p.add_argument("--dec", required=True)
    p.add_argument("--word", required=True, help="'.'-separated source letters")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="project a local word back to source letters")
    p.add_argument("--dec", required=True)
    p.add_argument("--word", required=True, help="'.'-separated local symbols")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("recognize", help="read words from stdin, print accept/reject")
    p.add_argument("--dec", required=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("code", help="emit the factor-decodable state code")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--ratio", type=int, required=True)
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("table", help="print growth constants and width tables")
    p.add_argument("--h", default="2,3,4,10,100,1000", help="comma-separated ratios")
    p.add_argument("--n", default="10,1e3,1e6,1e9,1e40",
                   help="comma-separated state counts (1e40 form allowed)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("minwidth", help="smallest window width of a machine's language")
    p.add_argument("--nfa", required=True)
    p.add_argument("--max-k", type=int, required=True)
    add_cap(p, "each window set, the short words, the compiled spec and the product "
               "states of each comparison")
    p.set_defaults(func=_cmd_minwidth)

    p = sub.add_parser("refute", help="refute a small-alphabet decomposition claim")
    p.add_argument("--dec", required=True)
    p.add_argument("--alphabet-size", type=int, required=True)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("corpus", help="build and verify everything in a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--ratio", default="2,3")
    add_mode(p)
    add_cap(p, "the context automaton, each window set, the short words, product "
               "states in either verification mode and the codewords a state-code "
               "check holds")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
