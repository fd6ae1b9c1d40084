"""Output checks that do not call the package under test.

They run after the timed region.  Each returns a list of error strings
(empty when the outputs are right) and the workload-property counts of
the job's inputs.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from workloads import KERNELS_N, REPORT_N, REPORT_SHOTS, largest_n, tables_per_job

ROUTE_TOL = 1e-12
_SVG_RECT = "{http://www.w3.org/2000/svg}rect"


def butterfly(bits: np.ndarray) -> np.ndarray:
    """Integer Walsh spectrum as a Kronecker product of 2x2 Hadamard factors."""
    n = bits.size.bit_length() - 1
    a = (1 - 2 * bits.astype(np.int64)).reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack((lo + hi, lo - hi), axis=axis)
    return a.reshape(-1)


def parse_hex_table(text: str, n: int) -> np.ndarray:
    """Hex text form: four entries per digit, earliest index in the high bit."""
    raw = np.frombuffer(bytes.fromhex(text.strip()), np.uint8)
    bits = np.unpackbits(raw, bitorder="big")
    if bits.size != 1 << n:
        raise ValueError(f"table has {bits.size} entries, expected {1 << n}")
    return bits


def properties(workload: str, walsh: np.ndarray | None) -> dict:
    """Input properties that repeat exactly for a given seed."""
    n = largest_n(workload)
    return {
        "tables_per_job": tables_per_job(workload),
        "rows_per_table": 1 << n,
        "distinct_w": 0 if walsh is None else int(np.unique(walsh).size),
        # computed, not measured: one read and one write of the buffer per pass
        "pass_bytes.walsh": 2 * 4 << n,
        "pass_bytes.statevector": 2 * 8 << n,
        "pass_bytes.ancilla": 2 * 8 << (n + 1),
        "pass_bytes.mobius": 2 * 1 << n,
    }


def _expected_columns(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    amp = w.astype(np.float64) / (1 << n)
    return amp, amp * amp


def check_report(kind: str, out: dict) -> tuple[list[str], dict]:
    errors = [f"{step} exited {code}" for step, code in zip(
        ("gen", "dj csv", "dj json", "plot", "sample"), out["codes"]) if code != 0]
    if errors:
        return errors, properties("report", None)
    paths = {k: Path(v) for k, v in out["paths"].items()}
    n = REPORT_N
    bits = parse_hex_table(paths["f.tt"].read_text(), n)
    w = butterfly(bits)
    amp, prob = _expected_columns(w, n)
    flat = bool(np.all(np.abs(w) == 1 << (n // 2)))
    if kind == "mm-bent" and not flat:
        errors.append("gen --kind mm-bent produced a table that is not bent")

    # amplitude and probability are functions of W, so format each W value once
    cells = {}
    for wi in np.unique(w).tolist():
        a = wi / (1 << n)
        cells[wi] = f"{wi},{format(a, '.17g')},{format(a * a, '.17g')}"
    rows = [f"{p},{cells[wi]}" for p, wi in enumerate(w.tolist())]
    expected_csv = "p,walsh,amplitude,probability\n" + "\n".join(rows) + "\n"
    if paths["r.csv"].read_text() != expected_csv:
        errors.append("dj CSV differs from the rebuilt CSV")

    obj = json.loads(paths["r.json"].read_text())
    jrows = obj.get("rows", [])
    if obj.get("n") != n or len(jrows) != 1 << n:
        errors.append("dj JSON has the wrong n or row count")
    elif ([r["p"] for r in jrows] != list(range(1 << n))
          or [r["walsh"] for r in jrows] != w.tolist()
          or [r["amplitude"] for r in jrows] != amp.tolist()
          or [r["probability"] for r in jrows] != prob.tolist()):
        errors.append("dj JSON rows differ from the expected numbers")
    if obj.get("classification", {}).get("is_bent") is not flat:
        errors.append("dj JSON classification disagrees on bentness")

    svg = ET.fromstring(paths["r.svg"].read_text())
    rects = sum(1 for _ in svg.iter(_SVG_RECT))
    if rects != 1 << n:
        errors.append(f"SVG has {rects} rect elements, expected {1 << n}")

    lines = paths["h.csv"].read_text().splitlines()
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    if lines[0] != "p,count" or len(counts) != 1 << n or sum(counts) != REPORT_SHOTS:
        errors.append("histogram rows or total shots are wrong")
    return errors, properties("report", w)


def check_verify(kind: str, out: dict) -> tuple[list[str], dict]:
    errors = [f"verify run {i} exited {code}" for i, code in enumerate(out["codes"]) if code]
    errors += [f"verify run {i} did not print (OK)" for i, text in enumerate(out["stdouts"])
               if "(OK)" not in text]
    return errors, properties("verify", None)


def check_kernels(kind: str, bits: np.ndarray, out: dict) -> tuple[list[str], dict]:
    n = KERNELS_N
    errors = []
    w = butterfly(bits)
    amp, prob = _expected_columns(w, n)
    if not np.array_equal(out["spec"].coeffs, w):
        errors.append("fwht differs from the reference butterfly")
    if int((w * w).sum()) != 1 << (2 * n):
        errors.append("Parseval identity fails")
    routes = {name: out[name].amps for name in ("walsh", "circuit", "ancilla")}
    routes["reference"] = amp
    names = sorted(routes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dev = float(np.abs(routes[a] - routes[b]).max())
            if not dev <= ROUTE_TOL:
                errors.append(f"routes {a} and {b} deviate by {dev:.3e}")
    if not np.array_equal(out["probabilities"], prob):
        errors.append("probabilities differ from the squared reference amplitudes")
    if not np.array_equal(out["roundtrip"].bits, bits):
        errors.append("from_anf(to_anf(f)) != f")
    flat = bool(np.all(np.abs(w) == 1 << (n // 2)))
    cls = out["classification"]
    if cls.is_bent is not flat or (kind == "mm-bent" and not cls.is_bent):
        errors.append("classify disagrees on bentness")
    if cls.nonlinearity != (1 << (n - 1)) - int(np.abs(w).max()) // 2:
        errors.append("classify reports the wrong nonlinearity")
    return errors, properties("kernels", w)
