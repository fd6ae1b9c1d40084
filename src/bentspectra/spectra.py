"""Report containers and the CSV / JSON / SVG / ASCII output surfaces.

A ``SpectrumReport`` bundles, for every outcome index p, the integer Walsh
coefficient W(p), the real output amplitude W(p) / 2^n and the measurement
probability (W(p) / 2^n)^2, plus metadata (generator description, seed when
one was used, and the spectral classification).  It is built from a
``WalshSpectrum`` alone and derives every other column from W, so every row
is a pure function of its W value; ``read_report`` rejects files whose
columns disagree with their W.  The exporters use that: they format each
distinct W once (a bent function has two) and index the formatted text by
outcome.  All exporters are deterministic: identical inputs produce
identical bytes.  Floating-point columns are printed with up to 17
significant digits, enough to round-trip float64 losslessly.
"""

from __future__ import annotations

import json
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .boolfn import TruthTable, _check_arity, _Frozen
from .walsh import WalshSpectrum, classify, fwht

ASCII_MAX_BARS = 1 << 8
SVG_MAX_BARS = 1 << 20
_BAR_WIDTH = 60  # '#' characters at full scale

_CSV_HEADER = "p,walsh,amplitude,probability"


class SpectrumReport(_Frozen):
    """Per-outcome rows (walsh, amplitude, probability) plus run metadata.

    Every column comes from ``spectrum``: the amplitude is W / 2^n, the
    probability its square, and the classification that of W.
    """

    __slots__ = ("n", "walsh", "amplitudes", "probabilities", "generator", "seed",
                 "classification")

    def __init__(self, spectrum: WalshSpectrum, generator: str = "",
                 seed: int | None = None):
        a = spectrum.coeffs / float(1 << spectrum.n)
        p = a * a
        for arr in (a, p):
            arr.setflags(write=False)
        self._set(n=spectrum.n, walsh=spectrum.coeffs, amplitudes=a, probabilities=p,
                  generator=generator, seed=None if seed is None else int(seed),
                  classification=classify(spectrum))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectrumReport):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.walsh, other.walsh)
            and self.generator == other.generator
            and self.seed == other.seed
        )

    def __repr__(self) -> str:
        return f"SpectrumReport(n={self.n}, generator={self.generator!r})"


def make_report(
    tt: TruthTable, generator: str = "", seed: int | None = None
) -> SpectrumReport:
    """Full report for a truth table via the integer Walsh route."""
    return SpectrumReport(fwht(tt), generator, seed)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _distinct_rows(report: SpectrumReport) -> tuple[list, np.ndarray]:
    """(w, amplitude, probability) per distinct W, and each outcome's index."""
    _, first, inv = np.unique(report.walsh, return_index=True, return_inverse=True)
    rows = zip(report.walsh[first].tolist(), report.amplitudes[first].tolist(),
               report.probabilities[first].tolist())
    return list(rows), inv


def export_csv(report: SpectrumReport) -> str:
    """CSV text: header ``p,walsh,amplitude,probability`` then one row per p."""
    distinct, inv = _distinct_rows(report)
    tails = [f",{w},{_fmt(a)},{_fmt(q)}" for w, a, q in distinct]
    rows = "\n".join([f"{p}{tails[i]}" for p, i in enumerate(inv.tolist())])
    return f"{_CSV_HEADER}\n{rows}\n"


def export_json(report: SpectrumReport) -> str:
    """JSON text with the CSV content plus the metadata object.

    The bytes equal ``json.dumps(obj, indent=2)`` with a ``rows`` list of
    ``{p, walsh, amplitude, probability}`` objects; the rows are spliced in
    by hand (floats printed with ``repr``, as ``json`` does).
    """
    obj: dict = {"n": report.n, "generator": report.generator}
    if report.seed is not None:
        obj["seed"] = report.seed
    obj["classification"] = report.classification.as_dict()
    head = json.dumps(obj, indent=2)[: -len("\n}")]
    distinct, inv = _distinct_rows(report)
    tails = [
        f',\n      "walsh": {w},\n      "amplitude": {a!r},'
        f'\n      "probability": {q!r}\n    }}'
        for w, a, q in distinct
    ]
    rows = ",\n".join([f'    {{\n      "p": {p}{tails[i]}' for p, i in enumerate(inv.tolist())])
    return f'{head},\n  "rows": [\n{rows}\n  ]\n}}\n'


def _parse_column(fields: list[str], parse) -> list:
    """Parse each distinct string of a column once."""
    values = {s: parse(s) for s in set(fields)}
    return [values[s] for s in fields]


def _check_order(p_column: Sequence[int]) -> None:
    if not np.array_equal(np.asarray(p_column), np.arange(len(p_column))):
        raise ValueError("report rows must cover p = 0 .. 2^n - 1 in order")


def _checked_report(n: int, walsh: list, amplitudes: list, probs: list,
                    generator: str = "", seed: int | None = None) -> SpectrumReport:
    """Report of a parsed W column whose float columns must be exactly its own."""
    report = SpectrumReport(WalshSpectrum(n, walsh), generator, seed)
    if not np.array_equal(amplitudes, report.amplitudes):
        raise ValueError("amplitude column must equal walsh / 2^n")
    if not np.array_equal(probs, report.probabilities):
        raise ValueError("probability column must equal amplitude^2")
    return report


def _read_json(obj) -> SpectrumReport:
    try:
        n, rows = obj["n"], obj["rows"]
        columns = [[r[key] for r in rows] for key in ("p", "walsh", "amplitude", "probability")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON report ({type(exc).__name__}: {exc})") from None
    if type(n) is not int:
        raise ValueError(f"JSON report needs an integer n, got {n!r}")
    if len(rows) != 1 << _check_arity(n):
        raise ValueError(f"JSON report with n = {n} needs {1 << n} rows, got {len(rows)}")
    _check_order(columns[0])
    for name, column, kinds in zip(("walsh", "amplitude", "probability"), columns[1:],
                                   ("i", "if", "if")):
        if np.asarray(column).dtype.kind not in kinds:
            raise ValueError(f"JSON report {name} column holds non-numbers")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"JSON report seed must be an integer, got {seed!r}")
    report = _checked_report(n, *columns[1:], str(obj.get("generator", "")), seed)
    if obj.get("classification") != report.classification.as_dict():
        raise ValueError("JSON report classification is missing or contradicts its walsh column")
    return report


def _read_csv(lines: list[str]) -> SpectrumReport:
    if lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected report header: {lines[0]!r}")
    rows = list(filter(None, lines[1:]))
    count = len(rows)
    if count < 2 or count & (count - 1):
        raise ValueError(f"report must have a power-of-two row count, got {count}")
    commas = np.fromiter(map(str.count, rows, [","] * count), dtype=np.int64, count=count)
    bad = np.flatnonzero(commas != 3)
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"report row {row} has {commas[row] + 1} fields, expected 4")
    flat = ",".join(rows).split(",")
    _check_order(list(map(int, flat[0::4])))
    return _checked_report(
        count.bit_length() - 1,
        _parse_column(flat[1::4], int),
        _parse_column(flat[2::4], float),
        _parse_column(flat[3::4], float),
    )


def read_report(text: str) -> SpectrumReport:
    """Parse a report previously exported as CSV or JSON.

    Malformed or self-contradicting input raises ``ValueError``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty report")
    if text.startswith("{"):
        return _read_json(json.loads(text))
    return _read_csv(text.splitlines())


def _indexed_csv(name: str, values: list) -> str:
    """Header ``p,<name>`` then one ``p,value`` row per outcome."""
    rows = "\n".join([f"{p},{v}" for p, v in enumerate(values)])
    return f"p,{name}\n{rows}\n"


def export_walsh_csv(spec: WalshSpectrum) -> str:
    """Bare spectrum CSV: header ``p,walsh`` then one row per p."""
    return _indexed_csv("walsh", spec.coeffs.tolist())


def export_histogram_csv(hist) -> str:
    """Histogram CSV: header ``p,count`` then one row per outcome."""
    return _indexed_csv("count", hist.counts.tolist())


def export_histogram_json(hist, seed: int | None = None) -> str:
    obj: dict = {"n": hist.n, "shots": hist.shots}
    if seed is not None:
        obj["seed"] = int(seed)
    obj["counts"] = hist.counts.tolist()
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Bar rendering
# ---------------------------------------------------------------------------


def render_bars(values: Sequence[float] | np.ndarray, title: str = "",
                format: str = "ascii") -> str:
    """Render one bar per value, heights scaled by |value| / max |value|.

    ``format`` is ``"svg"`` (well-formed XML, exactly one rect per value)
    or ``"ascii"`` (one line per value, at most 256 values).  An all-zero
    input renders zero-height / zero-width bars.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("render_bars needs a non-empty 1-d value sequence")
    if format == "ascii":
        return _render_ascii(vals, title)
    if format == "svg":
        return _render_svg(vals, title)
    raise ValueError(f"unknown render format: {format!r}")


def _render_ascii(vals: np.ndarray, title: str) -> str:
    if vals.size > ASCII_MAX_BARS:
        raise ValueError(f"ascii rendering is capped at {ASCII_MAX_BARS} bars")
    peak = float(np.abs(vals).max())
    lines = [title] if title else []
    for i, v in enumerate(vals):
        w = 0 if peak == 0.0 else int(round(_BAR_WIDTH * abs(float(v)) / peak))
        lines.append(f"{i:>5} {float(v):>12.6g} |{'#' * w}")
    return "\n".join(lines) + "\n"


def _render_svg(vals: np.ndarray, title: str) -> str:
    if vals.size > SVG_MAX_BARS:
        raise ValueError(f"svg rendering is capped at {SVG_MAX_BARS} bars")
    width, height = 800.0, 360.0
    left, right, top, bottom = 40.0, 10.0, 30.0, 20.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    base_y = top + plot_h
    peak = float(np.abs(vals).max())
    slot = plot_w / vals.size
    bar_w = slot * 0.9

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(title)}</text>'
        )
    # every bar of the same |v| shares the text after its x attribute
    magnitudes, inv = np.unique(np.abs(vals), return_inverse=True)
    tails = []
    for v in magnitudes.tolist():
        h = 0.0 if peak == 0.0 else plot_h * v / peak
        tails.append(f'" y="{base_y - h:.2f}" width="{bar_w:.2f}" '
                     f'height="{h:.2f}" fill="steelblue"/>')
    offset = (slot - bar_w) / 2
    out.extend([f'<rect x="{left + i * slot + offset:.2f}{tails[k]}'
                for i, k in enumerate(inv.tolist())])
    out.append(
        f'<line x1="{left:.2f}" y1="{base_y:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{base_y:.2f}" stroke="black"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
