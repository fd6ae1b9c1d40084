"""Steadiness check: two sets of runs of one commit, compared against the bounds.

Usage::

    python3 bench/steadiness.py [--sets 2] [--runs 10]

Each run is ``bench/run.py --trace 0`` on a workload of BENCHMARK.json, for
its ``run_seconds``, with its own seed; set k uses seeds
k*runs+1 .. (k+1)*runs.  For every end-to-end metric and workload it prints
the median and quartiles of each set, the quartile spread as a share of the
median against the metric's bound, and how far the last set's median is
worse than the first's, also against the bound.  ``--sets 1 --runs 1`` runs
every workload once and prints every metric.  Exits 1 when a spread or a
drift exceeds its bound.  The runs are saved to
``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in manifest["workloads"]]

    values: dict = {w: [] for w in workloads}  # workload -> set -> list of metric dicts
    for k in range(args.sets):
        for w in workloads:
            runs = []
            for r in range(args.runs):
                runs.append(run_once(w, k * args.runs + r + 1, manifest["run_seconds"]))
                print(f"set {k + 1} {w} run {r + 1}: "
                      + " ".join(f"{n}={v:.6g}" for n, v in runs[-1].items()), flush=True)
            values[w].append(runs)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / "steadiness.json").write_text(json.dumps(values, indent=1))

    steady = True
    print(f"\n{'workload':<8} {'metric':<13} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'drift':>8} {'bound':>6}")
    for w in workloads:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(values[w]):
                q1, med, q3 = quartiles([run[name] for run in runs])
                medians.append(med)
                spread = (q3 - q1) / med
                worse = medians[-1] - medians[0] if metric["better"] == "lower" \
                    else medians[0] - medians[-1]
                drift = worse / medians[0]
                bad = spread > bound or drift > bound
                steady = steady and not bad
                print(f"{w:<8} {name:<13} {k + 1:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {drift:>8.4f} {bound:>6.3f}{'  EXCEEDS' if bad else ''}")
    print("steady" if steady else "not steady: a spread or drift exceeds its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
