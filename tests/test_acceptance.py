"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from decimal import ROUND_DOWN, Decimal
from typing import NamedTuple

import sltkit as sk

from conftest import CORPUS_NAMES, lh_nfa, symbol_spec


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_width2_exact(machines):
    t0 = time.perf_counter()
    failures = []
    for name in CORPUS_NAMES:
        machine = machines[name]
        dec = sk.medvedev_width2(machine)
        rep = sk.verify_decomposition(machine, dec, mode="exact")
        if not (rep.ok and rep.mode == "exact"
                and rep.missing is None and rep.extra is None):
            failures.append((name, rep))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(1, "width2-exact-all-machines", ok,
           f"{len(CORPUS_NAMES) - len(failures)}/{len(CORPUS_NAMES)} machines, "
           f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_main_bounded_and_exact(machines, build_main):
    t0 = time.perf_counter()
    failures = []
    for name in CORPUS_NAMES:
        machine = machines[name]
        for h in (2, 3):
            dec = build_main(name, h)
            horizon = max(3 * dec.m + 6, 2 * dec.k + 4)
            rep = sk.verify_decomposition(machine, dec, mode="bounded", horizon=horizon)
            if not rep.ok:
                failures.append((name, h, "bounded", rep.missing, rep.extra))
    for name in CORPUS_NAMES:
        for h in (2, 3):
            rep = sk.verify_decomposition(machines[name], build_main(name, h),
                                          mode="exact")
            if not (rep.ok and rep.mode == "exact"):
                failures.append((name, h, "exact", rep.missing, rep.extra))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report(2, "main-construction-verified", ok,
           f"6 machines x h in {{2,3}} bounded + exact, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_3_factor_decodability():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for h in (2, 3, 4):
        for n in range(2, 51):
            result = sk.verify_factor_decodable(sk.build_code(n, h))
            checked += result.windows_checked
            if not result.ok:
                failures.append((n, h, result.witness))
    broken = sk.Code(h=2, m=4, codewords=("\0\0\0\0", "\1\1\0\0"))
    adversarial = sk.verify_factor_decodable(broken)
    elapsed = time.perf_counter() - t0
    ok = not failures and not adversarial.ok and adversarial.witness is not None \
        and elapsed < 60.0
    report(3, "factor-decodability-sweep", ok,
           f"n=2..50, h=2..4, {checked} windows, adversarial witness="
           f"{''.join(broken.digits[ord(d)] for d in adversarial.witness or '')}, {elapsed:.1f}s")
    assert not failures, failures
    assert not adversarial.ok and adversarial.witness is not None
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_recurrence_and_closed_form():
    count_mismatches = [(h, m) for h in (2, 3, 4) for m in range(2, 11)
                        if sk.count_S(h, m) != len(sk.enumerate_S(h, m))]
    samples = list(range(2, 101)) + list(range(101, 1001, 13)) + [1000]
    bound_violations = [(n, h) for h in (2, 3, 4, 10) for n in samples
                        if sk.choose_m(n, h) > sk.closed_form_m(n, h)]
    ok = not count_mismatches and not bound_violations
    report(4, "recurrence-and-closed-form", ok,
           f"{len(samples)} state counts x 4 ratios")
    assert not count_mismatches, count_mismatches
    assert not bound_violations, bound_violations


# Frozen reference rows as the paper prints them: two decimals, truncated
# (f(3) = 0.6897 prints as 0.68).  These rows are never edited; the two
# entries that do not survive recomputation are listed in REFERENCE_ERRATA.
PRINTED_F = {2: "1.44", 3: "0.68", 4: "0.52", 10: "0.29", 100: "0.15", 1000: "0.10"}
PRINTED_G = {2: "4.11", 3: "2.92", 4: "2.66", 10: "2.34", 100: "2.15", 1000: "2.10"}
PRINTED_WIDTHS = {
    2: {10: 18, 10**3: 38, 10**6: 66, 10**9: 94, 10**40: 392},
    3: {10: 12, 10**3: 20, 10**6: 34, 10**9: 48, 10**40: 190},
    4: {10: 10, 10**3: 16, 10**6: 28, 10**9: 38, 10**40: 144},
    10: {10: 8, 10**3: 12, 10**6: 18, 10**9: 24, 10**40: 86},
    100: {10: 6, 10**3: 8, 10**6: 12, 10**9: 14, 10**40: 46},
    1000: {10: 6, 10**3: 8, 10**6: 10, 10**9: 12, 10**40: 32},
}


class Erratum(NamedTuple):
    printed: str | int
    corrected: str | int
    reason: str


# Misprints in the reference table, with the value the paper's own formula
# and constants give.  errata_evidence() re-derives each reason.
REFERENCE_ERRATA = {
    "f(10)": Erratum(
        "0.29", "0.30",
        "the pool's growth rate gives 0.3022, and the printed g(10) = 2.34 "
        "needs f(10) >= 0.30"),
    "width(h=2, n=10^9)": Erratum(
        94, 96,
        "the printed f(2) and g(2) put g + f*lg2(n) in [47.16, 47.47), "
        "so the width is 2*48"),
}


def trunc2(x: float) -> str:
    """x truncated to two decimals, as the reference table prints it."""
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_DOWN))


def g_from_f(f: float, h: int) -> float:
    """The additive constant g(h) as g_value computes it, from a given f."""
    return 1.0 + f * (1.0 + 0.5 * math.log2((h - 1) * (h + 3)))


def printed_interval(value: str) -> tuple[float, float]:
    """The half-open range of values that truncate to a printed entry."""
    low = float(value)
    return low, low + 0.01


def errata_evidence() -> list[str]:
    """Re-derive why each entry of REFERENCE_ERRATA is a misprint; return
    the derivations that no longer hold."""
    problems = []

    f10 = sk.f_value(10)
    if not math.isclose(g_from_f(f10, 10), sk.g_value(10), rel_tol=1e-12):
        problems.append(f"g_from_f(f(10)) = {g_from_f(f10, 10):.6f} is not "
                        f"g_value(10) = {sk.g_value(10):.6f}")
    # S(m) = 9*(S(m-1) + S(m-2)) grows by a factor r per digit; f = 1/lg2(r).
    growth_f = 1.0 / math.log2(sk.count_S(10, 81) / sk.count_S(10, 80))
    if not (math.isclose(growth_f, f10, rel_tol=1e-12)
            and trunc2(growth_f) == REFERENCE_ERRATA["f(10)"].corrected):
        problems.append(f"f(10): pool growth rate gives {growth_f:.6f}, "
                        f"f_value(10) = {f10:.6f}")
    # g rises with f, so every f that truncates to 0.29 gives g below 2.34.
    f_low, f_high = printed_interval(PRINTED_F[10])
    g_low, _ = printed_interval(PRINTED_G[10])
    if not (g_from_f(f_high, 10) < g_low
            and trunc2(g_from_f(growth_f, 10)) == PRINTED_G[10]):
        problems.append(f"f(10): printed f in [{f_low:.2f}, {f_high:.2f}) gives g up to "
                        f"{g_from_f(f_high, 10):.4f}, growth-rate f gives "
                        f"{g_from_f(growth_f, 10):.4f}, printed g(10) = {PRINTED_G[10]}")

    # Every (f, g) pair that truncates to the printed f(2), g(2) gives the
    # same ceiling at n = 10^9; neither it nor the exact pool width is 94.
    erratum = REFERENCE_ERRATA["width(h=2, n=10^9)"]
    lg_n = math.log2(10**9)
    f_low, f_high = printed_interval(PRINTED_F[2])
    g_low, g_high = printed_interval(PRINTED_G[2])
    raw_low, raw_high = g_low + f_low * lg_n, g_high + f_high * lg_n
    exact = 2 * sk.choose_m(10**9, 2)
    width = 2 * math.ceil(raw_low)
    if not (raw_high <= math.ceil(raw_low) and width == erratum.corrected
            and erratum.printed not in (width, exact)):
        problems.append(f"width(h=2, n=10^9): printed f(2), g(2) give g + f*lg2(n) in "
                        f"[{raw_low:.4f}, {raw_high:.4f}), exact width {exact}, "
                        f"printed {erratum.printed}")
    return problems


def test_criterion_5_reference_table_reproduction():
    # entry -> (computed value, printed value, computed intermediates)
    entries = {}
    problems = []
    for h in PRINTED_F:
        vals = sk.fg_values(h)
        entries[f"f({h})"] = (trunc2(vals.f), PRINTED_F[h], f"{vals.f:.6f}")
        entries[f"g({h})"] = (trunc2(vals.g_reconciled), PRINTED_G[h],
                              f"{vals.g_reconciled:.6f}")
    for h, row in PRINTED_WIDTHS.items():
        vals = sk.fg_values(h)
        for n, printed in row.items():
            raw = vals.g_reconciled + vals.f * math.log2(n)
            computed = 2 * sk.closed_form_m(n, h)
            entries[f"width(h={h}, n=10^{len(str(n)) - 1})"] = (
                computed, printed,
                f"2*ceil({vals.g_reconciled:.4f} + {vals.f:.4f}*{math.log2(n):.4f}) "
                f"= 2*ceil({raw:.4f})")
            if 2 * sk.choose_m(n, h) > computed:
                problems.append(f"exact width exceeds closed form at h={h}, n={n}")

    # Every erratum's corrected value differs from its printed one, so these
    # two checks together make the mismatching entries exactly the errata.
    mismatched = {entry for entry, (value, printed, _) in entries.items()
                  if value != printed}
    for entry in sorted(mismatched - REFERENCE_ERRATA.keys()):
        value, printed, detail = entries[entry]
        problems.append(f"{entry}: computed {detail} -> {value}, printed {printed}")
    for entry, erratum in REFERENCE_ERRATA.items():
        value, printed, detail = entries[entry]
        if (printed, value) != (erratum.printed, erratum.corrected):
            problems.append(f"erratum {entry}: computed {detail} -> {value}, printed "
                            f"{printed}; expected corrected {erratum.corrected} "
                            f"({erratum.reason})")
    problems += errata_evidence()

    ok = not problems
    report(5, "reference-table-reproduction", ok,
           f"{len(entries) - len(REFERENCE_ERRATA)} entries reproduced, "
           f"{len(REFERENCE_ERRATA)} errata confirmed" if ok
           else f"{len(problems)} problems")
    assert ok, ("reference table problems with computed intermediates:\n"
                + "\n".join(problems))


def test_criterion_6_lower_bound_core():
    core_failures = []
    for k in range(2, 11):
        even, odd = ("b",) * (2 * k), ("b",) * (2 * k + 1)
        if (sk.window_ops(even, k - 1)[:2] != sk.window_ops(odd, k - 1)[:2]
                or sk.window_ops(even, k)[2] != sk.window_ops(odd, k)[2]):
            core_failures.append(k)

    pi = sk.Homomorphism((("a1", "a"), ("a2", "a"), ("b1", "b")))

    def width2_candidate(prefixes, suffixes, factors):
        spec = symbol_spec(width=2, alphabet=("a1", "a2", "b1"), prefixes=prefixes,
                           suffixes=suffixes, factors=factors)
        return sk.Decomposition(kind="width2", slt=spec, pi=pi)

    def main_candidate(width, prefixes, suffixes, factors, residual):
        spec = symbol_spec(width=width, alphabet=("a1", "a2", "b1"), prefixes=prefixes,
                           suffixes=suffixes, factors=factors)
        return sk.Decomposition(kind="main", slt=spec, pi=pi, residual=residual,
                                h=2, m=width // 2)

    candidates = [
        width2_candidate([("a1",), ("b1",)], [("a2",), ("b1",)],
                         [("a1", "a2"), ("a2", "a1"), ("b1", "b1")]),
        main_candidate(4, [("a1", "a2", "a1")], [("a2", "a1", "a2")],
                       [("a1", "a2", "a1", "a2"), ("a2", "a1", "a2", "a1")],
                       (("b", "b"),)),
        main_candidate(6, [("b1",) * 5], [("b1",) * 5], [("b1",) * 6],
                       (("b", "b"), ("b", "b", "b", "b"))),
    ]
    refute_failures = []
    for i, dec in enumerate(candidates):
        result = sk.refute_small_ratio(dec, ("a", "b"))
        confirmed = False
        if result.found:
            word = result.witness
            sym = result.symbol
            claimed = ((sym is not None
                        and sk.slt_membership(dec.slt, (sym,) * len(word)))
                       or word in dec.residual)
            confirmed = claimed != (len(word) % 2 == 0)
        if not confirmed:
            refute_failures.append(i)

    ok = not core_failures and not refute_failures
    report(6, "lower-bound-core", ok,
           f"k=2..10 window agreement + {len(candidates)} refuted candidates")
    assert not core_failures, core_failures
    assert not refute_failures, refute_failures


def test_criterion_7_width_hierarchy():
    widths = {}
    for h in (2, 3, 4):
        widths[h] = sk.min_slt_width(lh_nfa(h), max_k=h + 2)
    evens = sk.parse_nfa((__import__("pathlib").Path(sk.corpus_dir()) / "evens.nfa")
                         .read_text())
    no_width = sk.min_slt_width(evens, max_k=8)
    ok = all(widths[h] == h + 1 for h in (2, 3, 4)) and no_width is None
    report(7, "width-hierarchy", ok,
           f"minimum widths {widths}, even-runs language: none up to 8")
    assert widths == {2: 3, 3: 4, 4: 5}
    assert no_width is None


def test_criterion_8_round_trip_and_streaming(machines, build_main):
    rng = random.Random(20260811)
    round_trip_failures = []
    stream_failures = []
    for name in CORPUS_NAMES:
        machine = machines[name]
        dec = build_main(name, 2)
        blen = dec.m
        members = []
        max_len = 3 * blen + 4
        while len(members) < 100:
            max_len += 60
            members = [w for w in sk.enumerate_language(machine, max_len)
                       if len(w) >= 3 * blen][:100]
        encoded = []
        for word in members:
            z = sk.encode_word(machine, dec, word)
            if (z is None or sk.decode_word(dec, z) != word
                    or not sk.slt_membership(dec.slt, z)):
                round_trip_failures.append((name, word))
                continue
            encoded.append(z)

        spec = dec.slt
        words = []
        for _ in range(500):
            base = list(rng.choice(encoded))
            base[rng.randrange(len(base))] = rng.choice(spec.alphabet)
            words.append(tuple(base))
        for _ in range(500):
            length = rng.randint(1, 3 * spec.width)
            words.append(tuple(rng.choice(spec.alphabet) for _ in range(length)))
        for w in words:
            recognizer = sk.StreamRecognizer(spec)
            for s in w:
                recognizer.feed(s)
            if recognizer.finish() != sk.slt_membership(spec, w):
                stream_failures.append((name, w))

    ok = not round_trip_failures and not stream_failures
    report(8, "round-trip-and-streaming", ok,
           f"{len(CORPUS_NAMES) * 100} encoded members, "
           f"{len(CORPUS_NAMES) * 1000} streamed words")
    assert not round_trip_failures, round_trip_failures[:3]
    assert not stream_failures, stream_failures[:3]
