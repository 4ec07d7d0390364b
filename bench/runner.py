"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this in a fresh child process per run, so that the
child's peak RSS belongs to one workload.  Untraced runs repeat set-up and
passes and report medians; traced runs make a warm-up pass, a traced pass
with replays and an untraced pass, and report the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import replay  # noqa: E402
from recorder import MODULES, PassStats, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sltkit; "
                "print(time.perf_counter() - t)")

# ROADMAP baseline for totalized evens at h=2 on a 2-core machine
BASELINE = {"build_s": 5.2, "verify_bounded_s": 5.0, "slt_to_nfa_s": 4.6}


def import_seconds() -> float:
    """Time ``import sltkit`` in a fresh interpreter, as a user's first call pays it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def environment() -> dict[str, Any]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "src_lines": src_lines}


def _one_pass(rec: Recorder, workload, inputs: Any) -> PassStats:
    rec.begin_pass()
    workload.run_pass(rec, inputs)
    return rec.end_pass()


def timed_run(workload, seed: int, seconds: float) -> dict[str, Any]:
    setup_runs = []
    for _ in range(workload.setup_reps):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(Recorder(tracing=False), ROOT, seed)
        setup_runs.append(time.perf_counter() - t0)
    imports = [import_seconds() for _ in range(IMPORT_PROBES)]

    rec = Recorder(tracing=False)
    passes: list[PassStats] = []
    start = time.perf_counter()
    # start a pass only if it should end within the measuring time
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(_one_pass(rec, workload, inputs))

    setup_s = statistics.median(imports) + statistics.median(setup_runs)
    figures = [("setup_s", setup_s, "s")] + workload.figures(passes)
    return {
        "rec": rec,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in figures},
        "detail": {"passes": [p.pass_s for p in passes], "setup_runs_s": setup_runs,
                   "import_s": imports},
    }


def _baseline(spans) -> dict[str, Any]:
    """Evens h=2 in a traced corpus run, next to the ROADMAP baseline."""
    def under(op_name: str, name: str, replayed: bool) -> float:
        ops = {s.id for s in spans if s.name == op_name}
        return sum(s.duration for s in spans
                   if s.name == name and s.replay == replayed and s.op in ops)

    measured = {
        "build_s": under("op evens main h=2 build", "construction.medvedev_main", False),
        "verify_bounded_s": under("op evens main h=2 bounded verify",
                                  "verification.verify_decomposition", False),
        "slt_to_nfa_s": under("op evens main h=2 bounded verify", "slt.slt_to_nfa", True),
    }
    within = all(abs(measured[k] - v) <= 0.25 * v for k, v in BASELINE.items())
    return {"roadmap": BASELINE, "measured": measured,
            "reproduced_within_25pct": within}


def traced_run(workload, seed: int) -> dict[str, Any]:
    rec = Recorder(tracing=True)
    inputs = workload.setup(rec, ROOT, seed)
    setup_stats = rec.current or PassStats()
    rec.current = None

    # the first pass of a process pays for growing the heap, so it only warms
    # up; the overhead compares the traced pass with the untraced pass after it
    plain = Recorder(tracing=False)
    _one_pass(plain, workload, inputs)
    traced = _one_pass(rec, workload, inputs)
    untraced = _one_pass(plain, workload, inputs)

    layers = replay.layer_metrics(rec.spans, [setup_stats, traced])
    for module in MODULES:
        layers[f"{module}.failed"] = rec.module_failed[module]
    layers.update({
        "trace.overhead_s": traced.pass_s - untraced.pass_s,
        "trace.untraced_pass_s": untraced.pass_s,
        "trace.traced_pass_s": traced.pass_s,
        "trace.spans": len(rec.spans),
        "fail_rate": rec.failed / rec.attempted,
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"{workload.name}-seed{seed}.spans.json"
    spans_file.write_text(json.dumps(rec.span_dicts()))
    detail: dict[str, Any] = {"spans_file": str(spans_file.relative_to(ROOT))}
    if workload.name == "corpus":
        detail["evens_h2_baseline"] = _baseline(rec.spans)
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.wrong += plain.wrong
    rec.failures += plain.failures
    for module in MODULES:
        rec.module_failed[module] += plain.module_failed[module]
    return {
        "rec": rec,
        "metrics": {name: {"value": value, "unit": replay.PER_LAYER_UNITS[name]}
                    for name, value in sorted(layers.items())},
        "detail": detail,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trace:
        run = traced_run(workload, args.seed)
    else:
        run = timed_run(workload, args.seed, args.seconds)
    rec = run["rec"]
    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": run["metrics"],
        "report": {
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(),
            "fail_rate": rec.failed / rec.attempted,
            "module_failed": rec.module_failed,
            "failures": dict(rec.failures.most_common(50)),
            **run["detail"],
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
