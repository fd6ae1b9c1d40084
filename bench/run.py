"""bentspectra benchmark: runs one workload for a fixed time and prints its metrics.

Usage::

    python3 bench/run.py --workload {report,verify,kernels} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from its
``src/``, never from an installed copy.  Jobs run one after another (a
closed loop with one client), each in a fresh interpreter started by
``job.py``, so lazy caches and the memory high-water mark start cold as
they do for a CLI user.  Every job's outputs are checked after its timed
region by ``checks.py``, which does not call the package.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with the
times scaled by the host's speed around each job (see ``end_to_end``).
``--trace 1`` reports the per-layer metrics, unscaled: it cycles jobs
through three modes (plain, spans, memory) and takes self times from the
span jobs, call counts from the span and memory jobs, tracemalloc peaks
from the memory jobs, and the tracing overhead as the difference between
span and plain job times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric by name and unit, and the environment.  The full record of the run
(environment, every job, every span) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

sys.path.insert(0, str(BENCH_DIR))
from workloads import KINDS, WORKLOADS, kind_of  # noqa: E402

JOB_TIMEOUT_S = 60
#: Typical sum of the two ``calibration_s`` timings of a job (workloads.py)
#: on the 2-vCPU machine the bounds were set on.  End-to-end times are
#: scaled by this over the job's own sum, so they read in seconds of that
#: machine at its typical speed and follow the host's own speed changes less.
REFERENCE_CALIBRATION_S = 0.16
MODES = ("plain", "spans", "memory")

#: Spans reported by name; every other wrapped call still counts in its
#: module's self time.
SPANS = {
    "boolfn": ("TruthTable", "from_string", "random_function", "make_mm_bent",
               "AnfPolynomial", "to_anf", "from_anf"),
    "walsh": ("WalshSpectrum", "Classification", "fwht", "classify"),
    "djsim": ("Amplitudes", "MeasurementHistogram", "amplitudes_direct",
              "amplitudes_from_walsh", "simulate_circuit", "simulate_with_ancilla",
              "probabilities", "sample_measurements"),
    "spectra": ("SpectrumReport", "make_report", "export_csv", "export_json",
                "read_report", "render_bars", "export_histogram_csv"),
    "cli": ("gen", "dj", "plot", "sample", "verify"),
}
#: Outermost spans of some workload, plus the sampler inside ``cli.sample``.
PEAKS = ("cli.gen", "cli.dj", "cli.plot", "cli.sample", "cli.verify",
         "boolfn.TruthTable", "walsh.fwht", "walsh.classify",
         "djsim.amplitudes_from_walsh", "djsim.simulate_circuit",
         "djsim.simulate_with_ancilla", "djsim.probabilities", "boolfn.to_anf",
         "boolfn.from_anf", "djsim.sample_measurements")
PROPS = ("tables_per_job", "rows_per_table", "distinct_w.random", "distinct_w.bent")
COMPUTED = ("pass_bytes.walsh", "pass_bytes.statevector", "pass_bytes.ancilla",
            "pass_bytes.mobius")


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in SPANS.items():
        for name in names:
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.calls"] = "count"
    for module in (*SPANS, "harness"):
        units[f"{module}.self_s"] = "s"
    for name in PEAKS:
        units[f"{name}.peak_mb"] = "MB"
    units.update({"trace.job_s": "s", "trace.plain_job_s": "s", "trace_overhead_s": "s"})
    units.update({f"prop.{name}": "count" for name in PROPS})
    units.update({f"computed.{name}": "B" for name in COMPUTED})
    return units


END_TO_END_UNITS = {"job_s": "s", "tables_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "1"}


def load_manifest() -> dict:
    """BENCHMARK.json, checked against the metrics this file computes."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != units:
            raise SystemExit(f"BENCHMARK.json {key} does not match bench/run.py")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads do not match bench/workloads.py")
    return manifest


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _sysconf(code: int) -> int | None:
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    value = libc.sysconf(code)
    return value if value > 0 else None


def _blas_threads() -> int | None:
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            return int(ctypes.CDLL(path).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2_bytes": _sysconf(191),  # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": _sysconf(194),  # _SC_LEVEL3_CACHE_SIZE
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def run_job(workload: str, index: int, seed: int, mode: str, rundir: Path) -> dict:
    workdir = rundir / f"job{index}-{mode}"
    workdir.mkdir()
    spec = {"workload": workload, "index": index, "seed": seed * 1_000_003 + index,
            "kind": kind_of(workload, index), "mode": mode, "root": str(ROOT),
            "dir": str(workdir)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "job.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
                              check=False)
        exited = time.monotonic()
        result = json.loads((workdir / "result.json").read_text())
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return {"index": index, "kind": spec["kind"], "mode": mode, "ok": False,
                "errors": [repr(exc)], "wall_s": time.monotonic() - spawned}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("errors", []).append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result["wall_s"] = exited - spawned
    if "ready" in result:
        result["setup_s"] = result.pop("ready") - spawned
    spans = workdir / "spans.json"
    if spans.exists():
        result["spans"] = json.loads(spans.read_text())
    shutil.rmtree(workdir)
    return result


def run_jobs(workload: str, seed: int, seconds: float, trace: bool, rundir: Path) -> list[dict]:
    """Start pairs of jobs, one of each kind, until the next pair would overrun.

    Whole pairs keep both kinds equally weighted in every median.
    """
    modes = MODES if trace else ("plain",)
    min_jobs = len(modes) * len(KINDS)
    jobs: list[dict] = []
    start = time.monotonic()
    while True:
        if len(jobs) >= min_jobs and len(jobs) % len(KINDS) == 0:
            typical = statistics.median(j["wall_s"] for j in jobs)
            if time.monotonic() - start + len(KINDS) * typical > seconds:
                break
        index = len(jobs)
        mode = modes[(index // len(KINDS)) % len(modes)]
        jobs.append(run_job(workload, index, seed, mode, rundir))
    return jobs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median_over_kinds(jobs: list[dict], key: str) -> float:
    """Mean over table kinds of the median per kind of ``key`` times ``speed``.

    The kinds take different times, so one median over all jobs would lie in
    the gap between the two clusters and jump with every slow job.
    """
    kinds = sorted({j["kind"] for j in jobs})
    return statistics.fmean(
        statistics.median(j[key] * j["speed"] for j in jobs if j["kind"] == kind)
        for kind in kinds)


def end_to_end(jobs: list[dict]) -> dict[str, float]:
    good = [j for j in jobs if j["ok"]]
    for job in good:  # host speed relative to the reference, as a factor on times
        job["speed"] = REFERENCE_CALIBRATION_S / job["calibration_s"]
    busy = sum(j["job_s"] * j["speed"] for j in good)
    return {
        "job_s": median_over_kinds(good, "job_s"),
        "tables_per_s": sum(j["props"]["tables_per_job"] for j in good) / busy,
        "setup_s": median_over_kinds(good, "setup_s"),
        # a mean: numpy's huge-page arrays make RSS bimodal at random (ASLR
        # alignment), so a median over jobs would flip between the two modes
        "peak_rss_mb": statistics.fmean(j["rss_mb"] for j in good),
        "ok_frac": len(good) / len(jobs),
    }


def span_problems(spans: dict, t0: float, job_s: float) -> list[str]:
    """Ways the spans fail to nest inside the timed window ``[t0, t0 + job_s]``.

    Every span must be closed and lie inside its parent, and the outermost
    spans must not overlap.  Then no self time is negative, and the module
    self times plus the harness residual cover the job time exactly.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems = [f"span {i} ends before it starts" for i in range(len(start)) if end[i] < start[i]]
    for i, p in enumerate(parent):
        if p >= 0 and not start[p] <= start[i] <= end[i] <= end[p]:
            problems.append(f"span {i} lies outside its parent span {p}")
    previous = t0
    for i in sorted((i for i, p in enumerate(parent) if p < 0), key=lambda i: start[i]):
        if start[i] < previous:
            problems.append(f"outermost span {i} starts before the timed window "
                            "or the previous outermost span ends")
        previous = max(previous, end[i])
    if previous > t0 + job_s:
        problems.append("an outermost span ends after the timed window")
    return problems


def span_table(spans: dict, job_s: float) -> tuple[dict, dict, dict, float]:
    """Per-name self time and calls, per-module self time, and harness residual.

    A span's self time is its duration minus the durations of its children;
    the residual is the job time not covered by any outermost span.
    """
    names = spans["names"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    covered = 0.0
    for i, parent in enumerate(spans["parent"]):
        if parent < 0:
            covered += dur[i]
        else:
            child[parent] += dur[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    modules: dict[str, float] = {}
    for i, nid in enumerate(spans["name"]):
        label = names[nid]
        own = dur[i] - child[i]
        self_s[label] = self_s.get(label, 0.0) + own
        calls[label] = calls.get(label, 0) + 1
        module = label.split(".")[0]
        modules[module] = modules.get(module, 0.0) + own
    return self_s, calls, modules, job_s - covered


def per_layer(jobs: list[dict], problems: list[str]) -> dict[str, float]:
    good = [j for j in jobs if j["ok"]]
    span_jobs = [j for j in good if j["mode"] == "spans"]
    memory_jobs = [j for j in good if j["mode"] == "memory"]
    plain_jobs = [j for j in good if j["mode"] == "plain"]
    metrics: dict[str, float] = {}

    calls_by_kind: dict[str, dict] = {}
    for job in span_jobs + memory_jobs:
        problems.extend(f"job {job['index']}: {problem}"
                        for problem in span_problems(job["spans"], job["t0"], job["job_s"]))
        calls = span_table(job["spans"], job["job_s"])[1]
        first = calls_by_kind.setdefault(job["kind"], calls)
        if calls != first:
            problems.append(f"job {job['index']}: call counts differ from an earlier "
                            f"{job['kind']} job")
    tables = [span_table(j["spans"], j["job_s"]) for j in span_jobs]
    for module, names in SPANS.items():
        for name in names:
            label = f"{module}.{name}"
            metrics[f"{label}.self_s"] = statistics.median(t[0].get(label, 0.0) for t in tables)
            metrics[f"{label}.calls"] = statistics.mean(
                c.get(label, 0) for c in calls_by_kind.values())
    for module in SPANS:
        metrics[f"{module}.self_s"] = statistics.median(t[2].get(module, 0.0) for t in tables)
    metrics["harness.self_s"] = statistics.median(t[3] for t in tables)

    peak_tables = []
    for job in memory_jobs:
        spans, peaks = job["spans"], {}
        for nid, peak in zip(spans["name"], spans["peak_bytes"]):
            label = spans["names"][nid]
            peaks[label] = max(peaks.get(label, 0), peak)
        peak_tables.append(peaks)
    for label in PEAKS:
        metrics[f"{label}.peak_mb"] = statistics.median(
            p.get(label, 0) / 2**20 for p in peak_tables)

    metrics["trace.job_s"] = statistics.median(j["job_s"] for j in span_jobs)
    metrics["trace.plain_job_s"] = statistics.median(j["job_s"] for j in plain_jobs)
    metrics["trace_overhead_s"] = metrics["trace.job_s"] - metrics["trace.plain_job_s"]

    first: dict[str, dict] = {}
    for job in good:
        first.setdefault(job["kind"], job["props"])
    props = next(iter(first.values()))
    metrics["prop.tables_per_job"] = props["tables_per_job"]
    metrics["prop.rows_per_table"] = props["rows_per_table"]
    metrics["prop.distinct_w.random"] = first.get("random", {}).get("distinct_w", 0)
    metrics["prop.distinct_w.bent"] = first.get("mm-bent", {}).get("distinct_w", 0)
    for name in COMPUTED:
        metrics[f"computed.{name}"] = props[name]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "bentspectra" / "__init__.py").is_file():
        print(f"error: no bentspectra source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    TMP_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        jobs = run_jobs(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    failed = [j for j in jobs if not j["ok"]]
    for job in failed:
        print(f"job {job['index']} failed: {'; '.join(job['errors'])}", file=sys.stderr)
    if len(failed) == len(jobs):
        print("error: every job failed", file=sys.stderr)
        return 1
    problems: list[str] = []
    if args.trace:
        try:
            values = per_layer(jobs, problems)
        except statistics.StatisticsError as exc:
            print(f"error: too few good jobs to report per-layer metrics: {exc!r}",
                  file=sys.stderr)
            return 1
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    else:
        values = end_to_end(jobs)
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    counts = {mode: sum(j["mode"] == mode for j in jobs) for mode in MODES}
    print(f"# {args.workload} seed={args.seed} jobs={len(jobs)} "
          f"({', '.join(f'{m} {c}' for m, c in counts.items() if c)}) failed={len(failed)}")
    for name, unit in units.items():
        print(f"{name:<44} {values[name]:>16.6f} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "args": vars(args), "metrics": values, "problems": problems,
              "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in jobs]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for job in jobs:
                if "spans" in job:
                    fh.write(json.dumps(job["spans"]) + "\n")

    result = {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
