"""Benchmark entry point.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Runs one workload (corpus, total-dfa, recognize or codes) in a fresh child
process, adds that child's peak RSS, prints every metric by name and unit,
writes the full report under ``.bench_out/`` and ends with one JSON line
holding ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` names: its end-to-end metrics with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  ``--workload all`` runs the four
workloads one after another, each in its own fresh child process.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("corpus", "total-dfa", "recognize", "codes")
CHILD_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its child (subprocess.run does)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload == "all":
        worst = 0
        for name in WORKLOAD_NAMES:
            argv_one = ["--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run([sys.executable, __file__] + argv_one).returncode)
        return worst

    if not (ROOT / "src" / "sltkit" / "__init__.py").is_file():
        print(f"error: no sltkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: workload {args.workload} exited with {done.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = result.pop("report")
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_mib, "unit": "MiB"}
    report["peak_rss_mb"] = peak_mib

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**result, "report": report}, indent=1) + "\n")

    env = report["environment"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} commit={env['git_commit']} "
          f"src_lines={env['src_lines']}")
    print(f"# {report['why']}")
    for name, m in metrics.items():
        print(f"{args.workload:<10} {name:<40} {m['value']:>18.6f} {m['unit']}")
    print(f"{args.workload:<10} {'fail_rate':<40} {report['fail_rate']:>18.6f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure, times in list(report["failures"].items())[:10]:
        print(f"# failed {times}x: {failure}")
    if "evens_h2_baseline" in report:
        print(f"# evens h=2 baseline: {json.dumps(report['evens_h2_baseline'])}")
    print(f"# full report: {out_file.relative_to(ROOT)}")

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: metrics[name] for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
