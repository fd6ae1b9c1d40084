"""Job bodies: each builds its inputs from the job seed and makes the timed calls.

A job body returns what the output checks need; it checks nothing itself.
Tables alternate between the two kinds by job index, except on ``verify``,
where the package draws its own tables from the seed.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("report", "verify", "kernels")
KINDS = ("random", "mm-bent")

REPORT_N = 16
REPORT_SHOTS = 1_000_000
VERIFY_RUNS = ((1000, 8), (8, 12))  # (--random COUNT, --n N) per job
KERNELS_N = 20


#: Sizes of the three calibration loops, each about 25 ms on the machine the
#: bounds were set on.
CALIBRATION_CALLS = 200_000
CALIBRATION_FORMATS = 15_000
CALIBRATION_PASSES = 32


def _step(x: int) -> int:
    return x + 1


def calibration_s() -> float:
    """Wall time of three fixed loops that are the benchmark's own code.

    They make Python function calls and format floats with ``.17g``, as the
    interpreted layers and the exporters do, and run a numpy butterfly over
    a 4 MB buffer, past L2, as the kernels do.  Timed in the job process
    just before and just after the timed calls, they tell how fast the host
    ran around them; ``run.py`` scales the job's times by their sum.  The
    loops allocate no buffer while timed (each formatted string is freed at
    once), so they hardly depend on the heap the job leaves behind, and
    their two 4 MB buffers stay far below the peak RSS of every job.
    """
    a = np.arange(1 << 19, dtype=np.int64)
    b = a.copy()  # touched now, so the timed passes neither allocate nor fault
    half = a.size // 2
    values = (a[:CALIBRATION_FORMATS] / 65536.0).tolist()
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_CALLS):
        acc = _step(acc) ^ (i & 15)
    for v in values:
        format(v, ".17g")
        format(v * v, ".17g")
    for _ in range(CALIBRATION_PASSES):
        pairs = a.reshape(-1, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=b[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=b[half:])
        a, b = b, a
    return time.perf_counter() - start


def kind_of(workload: str, index: int) -> str:
    return "random" if workload == "verify" else KINDS[index % 2]


def tables_per_job(workload: str) -> int:
    return sum(count for count, _ in VERIFY_RUNS) if workload == "verify" else 1


def largest_n(workload: str) -> int:
    return {"report": REPORT_N, "verify": max(n for _, n in VERIFY_RUNS),
            "kernels": KERNELS_N}[workload]


def kernels_input(seed: int, kind: str) -> np.ndarray:
    """Truth-table bits, uniform or Maiorana-McFarland f(x, y) = x.pi(y) ^ g(y)."""
    rng = np.random.default_rng(seed)
    size = 1 << KERNELS_N
    if kind == "random":
        return rng.integers(0, 2, size=size, dtype=np.uint8)
    half = KERNELS_N // 2
    pi = rng.permutation(1 << half)
    g = rng.integers(0, 2, size=1 << half, dtype=np.uint8)
    idx = np.arange(size, dtype=np.int64)
    x, y = idx & ((1 << half) - 1), idx >> half
    return ((np.bitwise_count(x & pi[y]) & 1).astype(np.uint8) ^ g[y]).astype(np.uint8)


def report(seed: int, kind: str, workdir: Path, cli_main) -> dict:
    """The README pipeline: gen, dj as CSV and JSON, SVG plot, sampling."""
    paths = {name: str(workdir / name) for name in ("f.tt", "r.csv", "r.json", "r.svg", "h.csv")}
    argvs = (
        ["gen", "--kind", kind, "--n", str(REPORT_N), "--seed", str(seed), "--out", paths["f.tt"]],
        ["dj", "--in", paths["f.tt"], "--out", paths["r.csv"]],
        ["dj", "--in", paths["f.tt"], "--format", "json", "--out", paths["r.json"]],
        ["plot", "--in", paths["r.csv"], "--format", "svg", "--out", paths["r.svg"]],
        ["sample", "--in", paths["f.tt"], "--shots", str(REPORT_SHOTS), "--seed", str(seed),
         "--out", paths["h.csv"]],
    )
    codes = [cli_main(argv) for argv in argvs]
    return {"codes": codes, "paths": paths}


def verify(seed: int, kind: str, workdir: Path, cli_main) -> dict:
    codes, stdouts = [], []
    for count, n in VERIFY_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli_main(["verify", "--random", str(count), "--n", str(n),
                                   "--seed", str(seed)]))
        stdouts.append(buf.getvalue())
    return {"codes": codes, "stdouts": stdouts}


def kernels(bits: np.ndarray, bs) -> dict:
    """One table through every library kernel; ``bs`` is the package."""
    tt = bs.TruthTable(KERNELS_N, bits)
    spec = bs.fwht(tt)
    amps = bs.amplitudes_from_walsh(spec)
    anf = bs.to_anf(tt)
    return {
        "spec": spec,
        "classification": bs.classify(spec),
        "walsh": amps,
        "circuit": bs.simulate_circuit(tt),
        "ancilla": bs.simulate_with_ancilla(tt),
        "probabilities": bs.probabilities(amps),
        "roundtrip": bs.from_anf(anf),
    }
