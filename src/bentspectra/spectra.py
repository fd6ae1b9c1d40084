"""Report containers and the CSV / JSON / SVG / ASCII output surfaces.

A ``SpectrumReport`` bundles, for every outcome index p, the integer Walsh
coefficient W(p), the real output amplitude W(p) / 2^n and the measurement
probability (W(p) / 2^n)^2, plus metadata (generator description, seed when
one was used, and the spectral classification).  It is built from a
``WalshSpectrum`` alone, so every row is a pure function of its W value, and
``read_report`` rejects files whose columns disagree with their W.

Every row writer (report CSV and JSON, Walsh and histogram CSV, histogram
JSON, SVG bars) goes through one engine that treats a row as a few table
columns: each column is a small table of strings and one table index per
row.  p is two columns, its thousands and a fixed table of its last three
digits; the value text is a table of one tail per distinct value (a bent
function has two W values); an SVG ``x`` is a table of whole parts and one
of two-digit decimals.  Each column is gathered once per block of 2^12 rows
and the block is joined once, so no string is built per row.  The
string-returning exporters join their blocks; the CLI writes the blocks as
they come, so a command's memory is its columns and a few blocks, not its
text.  ``_read_source`` reads a binary file, the one kind of source, which
it first copies to a temporary file when it cannot read it from byte 0 (a
pipe, say).  It meets a caller's caps with a CSV's row count, read off the
last row, reads W in pieces of whole rows, and accepts the input when the
report rebuilt from W exports to its bytes; any other input is decoded once,
as strict UTF-8 with universal newlines (``boolfn._read_text``), and parsed
field by field.  Bars are keyed by W, so their heights come from W.  All
exporters are deterministic; float columns are printed with up to 17
significant digits, enough to round-trip float64 losslessly.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import tempfile
from functools import partial
from typing import Sequence

import numpy as np

from .boolfn import (TruthTable, _check_arity, _Fresh, _Frozen, _index, _load_json, _read_text,
                     _short_repr)
from .walsh import WalshSpectrum, classify, fwht

ASCII_MAX_BARS = 1 << 8
SVG_MAX_BARS = 1 << 20
_BAR_WIDTH = 60  # '#' characters at full scale

_CSV_HEADER = "p,walsh,amplitude,probability"


class SpectrumReport(_Frozen):
    """Per-outcome rows (walsh, amplitude, probability) plus run metadata.

    Only the W column is stored.  The amplitude column W / 2^n and the
    probability column, its square, are computed on each access as new
    read-only arrays, and the classification is that of W.
    """

    __slots__ = ("n", "walsh", "generator", "seed", "classification")

    def __init__(self, spectrum: WalshSpectrum, generator: str = "",
                 seed: int | None = None):
        if not isinstance(generator, str):
            raise ValueError(f"report generator must be a string, got {_short_repr(generator)}")
        self._set(n=spectrum.n, walsh=spectrum.coeffs, generator=generator,
                  seed=None if seed is None else _index(seed, "report seed"),
                  classification=classify(spectrum))

    @property
    def amplitudes(self) -> np.ndarray:
        a = self.walsh / float(1 << self.n)
        a.setflags(write=False)
        return a

    @property
    def probabilities(self) -> np.ndarray:
        p = self.walsh / float(1 << self.n)
        np.square(p, out=p)
        p.setflags(write=False)
        return p

    def __repr__(self) -> str:
        return f"SpectrumReport(n={self.n}, generator={self.generator!r})"


def make_report(
    tt: TruthTable, generator: str = "", seed: int | None = None
) -> SpectrumReport:
    """Full report for a truth table via the integer Walsh route."""
    return SpectrumReport(fwht(tt), generator, seed)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``values`` in increasing order, and each entry's index among them.

    An integer column spanning at most 2 * len + 1 values (every W column, by
    Parseval, and a count column unless one outcome takes nearly all shots)
    uses a presence table and its running count, sized by the column's span;
    both are filled and read one ``_BLOCK_ROWS`` slice of the column at a
    time, so the int32 index is the only array of the column's length it makes.
    Any other column goes through ``np.unique``.
    """
    if values.dtype.kind in "iu":
        low, high = int(values.min()), int(values.max())
        if high - low <= 2 * values.size:
            slices = [slice(at, at + _BLOCK_ROWS) for at in range(0, values.size, _BLOCK_ROWS)]
            present = np.zeros(high - low + 1, dtype=bool)
            for part in slices:
                present[values[part] - low] = True
            rank = np.cumsum(present, dtype=np.int32)
            rank -= 1
            index = np.empty(values.size, dtype=np.int32)
            for part in slices:
                index[part] = rank[values[part] - low]
            return np.flatnonzero(present) + low, index
    return np.unique(values, return_inverse=True)


#: Rows per text block: each writer builds, and ``cli`` writes, 2^12 rows (at most
#: about half a megabyte of text) at a time.
_BLOCK_ROWS = 1 << 12


def _table(strings: Sequence[str]) -> np.ndarray:
    return np.array(strings, dtype=object)


#: The last three digits of p, indexed by ``low + 1000 * (p >= 1000)``: bare below
#: 1000, zero-padded after the thousands.
_LOW_DIGITS = _table([str(r) for r in range(1000)] + [f"{r:03d}" for r in range(1000)])


def _p_columns(start: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The two columns that spell p = start .. stop - 1: its thousands, then its last three digits."""
    high, low = np.divmod(np.arange(start, stop), 1000)
    first = int(high[0])
    thousands = _table([str(h) if h else "" for h in range(first, int(high[-1]) + 1)])
    return [(thousands, high - first), (_LOW_DIGITS, low + 1000 * (high > 0))]


def _row_blocks(head: str, values: np.ndarray, tail, sep: str, end: str, lead=_p_columns):
    """``head``, then one row per entry of ``values``, in blocks of ``_BLOCK_ROWS``.

    Row i is the leading columns ``lead(start, stop)`` gives it, then
    ``tail(values[i])`` and ``sep``; the last row ends in ``end`` in place of
    ``sep``.  ``tail`` runs once per distinct value.
    """
    yield head
    distinct, index = _distinct(values)
    tails = [tail(v) for v in distinct.tolist()]
    table = _table([t + sep for t in tails])
    for start in range(0, index.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, index.size)
        last = tails[index[-1]] + end if stop == index.size else None
        yield _join([*lead(start, stop), (table, index[start:stop])], last)


def _join(columns: list[tuple[np.ndarray, np.ndarray]], last: str | None) -> str:
    """The rows of ``columns`` as one string; ``last``, if given, replaces the final column's last entry.

    A column is a table of strings and one table index per row.  Each column
    is gathered once and slice-assigned into one flat list, which is joined
    once, so no string is built per row.
    """
    k = len(columns)
    flat = [""] * (k * columns[0][1].size)
    for j, (strings, at) in enumerate(columns):
        flat[j::k] = strings[at].tolist()
    if last is not None:
        flat[-1] = last
    return "".join(flat)


def _report_blocks(report: SpectrumReport, head: str, row: str, sep: str, end: str):
    """Rows tailed by ``row.format(w, a, a * a)``, a = w / 2^n as the report computes it."""
    scale = float(1 << report.n)
    return _row_blocks(head, report.walsh, lambda w: row.format(w, a := w / scale, a * a),
                       sep, end)


def _csv_blocks(report: SpectrumReport):
    return _report_blocks(report, _CSV_HEADER + "\n", ",{},{:.17g},{:.17g}", "\n", "\n")


def export_csv(report: SpectrumReport) -> str:
    """CSV text: header ``p,walsh,amplitude,probability`` then one row per p."""
    return "".join(_csv_blocks(report))


def _json_blocks(report: SpectrumReport):
    obj: dict = {"n": report.n, "generator": report.generator}
    if report.seed is not None:
        obj["seed"] = report.seed
    obj["classification"] = report.classification.as_dict()
    start = '\n    {\n      "p": '
    head = json.dumps(obj, indent=2)[: -len("\n}")] + ',\n  "rows": [' + start
    return _report_blocks(report, head, ',\n      "walsh": {},\n      "amplitude": {!r},'
                          '\n      "probability": {!r}\n    }}', "," + start, "\n  ]\n}\n")


def export_json(report: SpectrumReport) -> str:
    """JSON text with the CSV content plus the metadata object.

    The bytes equal ``json.dumps(obj, indent=2)`` with a ``rows`` list of
    ``{p, walsh, amplitude, probability}`` objects; the rows are spliced in
    by hand (floats printed with ``repr``, as ``json`` does).
    """
    return "".join(_json_blocks(report))


def _parse_column(fields: list[str], parse) -> list:
    """Parse each distinct string of a column once, in first-seen order."""
    values = {s: parse(s) for s in dict.fromkeys(fields)}
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
    keys = ("p", "walsh", "amplitude", "probability")
    try:
        n, rows = obj["n"], obj["rows"]
        columns = [[r[key] for r in rows] for key in keys]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON report ({type(exc).__name__}: {exc})") from None
    if type(n) is not int:
        raise ValueError(f"JSON report needs an integer n, got {_short_repr(n)}")
    if len(rows) != 1 << _check_arity(n):
        raise ValueError(f"JSON report with n = {n} needs {1 << n} rows, got {len(rows)}")
    for key, column, kinds in zip(keys, columns, ({int}, {int}, {int, float}, {int, float})):
        if not set(map(type, column)) <= kinds:  # JSON true and false load as bool
            what = "integers" if float not in kinds else "numbers"
            raise ValueError(f"JSON report {key} column holds values that are not {what}")
    _check_order(columns[0])
    seed, generator = obj.get("seed"), obj.get("generator", "")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"JSON report seed must be an integer, got {_short_repr(seed)}")
    if type(generator) is not str:
        raise ValueError(
            f"JSON report generator must be a string, got {_short_repr(generator)}")
    report = _checked_report(n, *columns[1:], generator, seed)
    if obj.get("classification") != report.classification.as_dict():
        raise ValueError("JSON report classification is missing or contradicts its walsh column")
    return report


def _read_csv(lines: list[str]) -> SpectrumReport:
    if lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected report header: {_short_repr(lines[0])}")
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


#: ``_canonical_csv`` reads its source in pieces of ``_SCAN_BYTES``, and finds
#: the last row in its last ``_TAIL_BYTES`` (an export's row is under 80 bytes).
_SCAN_BYTES = 1 << 18
_TAIL_BYTES = 256


def _comma_positions(buf: np.ndarray) -> np.ndarray:
    """The int32 positions of the commas in ``buf``, a piece of under 2^31 bytes."""
    return np.flatnonzero(buf == ord(",")).astype(np.int32)


def _walsh_fields(source, rows: int) -> np.ndarray | None:
    """The int32 walsh field of each of ``rows`` rows, read from ``source`` after the header.

    Each piece is ``_SCAN_BYTES`` and the rest of the row they end in, read into
    one reused buffer, so an export's piece holds whole rows: its commas 3r
    and 3r + 1 bound its row r's walsh field.  None when the fields are not
    ``rows`` numbers of a sign and at most eight digits (|W| <= 2^24).
    """
    w = np.empty(rows, dtype=np.int32)
    buf = np.empty(_SCAN_BYTES + 80, dtype=np.uint8)  # a piece and the rest of its last row
    filled = 0
    while got := source.readinto(buf[:_SCAN_BYTES]):
        rest = np.frombuffer(source.readline(80), np.uint8)  # an export's row is under 80 bytes
        buf[got:got + rest.size] = rest
        commas = _comma_positions(buf[:got + rest.size])
        end = commas[1::3]
        if not commas.size or commas.size % 3 or filled + end.size > rows:
            return None
        start = commas[0::3] + 1
        negative = buf[start] == ord("-")
        width = end - start - negative
        if width.min() < 1 or width.max() > 8:
            return None
        # any byte is read as a "digit" (eight may wrap int32), so a field that is not
        # a number is misread; the re-export spells W in ASCII digits and refuses it
        v = np.zeros(end.size, dtype=np.int32)
        for k in range(int(width.max())):
            digit = buf[end - 1 - k].astype(np.int32) - ord("0")
            v += np.where(width > k, digit, 0) * 10**k
        np.negative(v, out=v, where=negative)
        w[filled:filled + end.size] = v
        filled += end.size
    return w if filled == rows else None


def _canonical_csv(source, check=None) -> SpectrumReport | None:
    """The report whose ``export_csv`` is exactly ``source``; None for any other input.

    ``source`` is a seekable binary file, read from its start, so the reader
    holds W and a few pieces, not the input:

    1. the header and the last ``_TAIL_BYTES`` are read: the last row's p,
       one final ``\\n`` aside, gives the row count p + 1.  When that is 2^k,
       k >= 1, and the input holds 8 bytes (the shortest row) for each,
       ``check``, if given, is called with it before any W is held, and may raise;
    2. the input must end in ``\\n``, and the walsh field of each row is
       parsed, digit by digit, into one int32 W (``_walsh_fields``);
    3. the report is rebuilt from W, and each block of its export must be the
       next bytes of the input, and the last block its end.

    Acceptance rests on the re-export, which checks every byte, so a misread
    row count or W can only send the input on to ``_read_csv``.  An export is
    at most about 1.1 GB, so an input of 2^31 bytes or more is refused unread.
    """
    head = (_CSV_HEADER + "\n").encode()
    size = source.seek(0, io.SEEK_END)
    source.seek(0)
    if size >> 31 or source.read(len(head)) != head:
        return None
    source.seek(max(size - _TAIL_BYTES, 0))
    tail = source.read()
    _, newline, last = tail.removesuffix(b"\n").rpartition(b"\n")
    p = last.partition(b",")[0]
    rows = int(p) + 1 if newline and p.isdigit() else 0
    if rows < 2 or rows & (rows - 1) or 8 * rows > size:
        return None
    if check is not None:
        check(rows)
    if not tail.endswith(b"\n"):  # an export ends its last row; W is not parsed for less
        return None
    source.seek(len(head))
    w = _walsh_fields(source, rows)
    if w is None:
        return None
    try:
        report = SpectrumReport(WalshSpectrum(rows.bit_length() - 1, _Fresh(w)))
    except ValueError:
        return None
    source.seek(0)
    for block in _csv_blocks(report):
        block = block.encode("ascii")
        if source.read(len(block)) != block:
            return None
    return report if not source.read(1) else None


def read_report(text: str | bytes) -> SpectrumReport:
    """Parse a report previously exported as CSV or JSON, given as text or as its UTF-8 bytes.

    Text is encoded as UTF-8, and the bytes are read as a file by
    ``_read_source``: first as a CSV (``_canonical_csv``), whose row count
    comes from the last row and whose walsh column is parsed in pieces, and
    the report rebuilt from W alone is accepted when its export is the bytes
    themselves.  Any other input is decoded as strict UTF-8 with universal
    newlines and stripped.  A CSV that then is an export (one with other line
    ends, or that lost its final newline or gained surrounding whitespace) is
    read the same way; any other (blank lines or other number spellings, say)
    is parsed field by field, to the same report or the same error.  In JSON,
    n and any seed must be integers and any generator a string.  Malformed
    input, deep JSON nesting, bytes that are not UTF-8 and text that is not
    Unicode (a lone surrogate) included, or self-contradicting input raises
    ``ValueError``.
    """
    return _read_source(io.BytesIO(text.encode() if isinstance(text, str) else text))


def _read_source(source, check=None) -> SpectrumReport:
    """``read_report`` of a binary file; ``check(rows)`` may refuse a CSV unparsed.

    A seekable file at byte 0 is read in pieces, then, if it is not an export
    as it stands, decoded once by ``_read_text`` and stripped.  Any other file
    (a pipe, a FIFO, a TTY, a stdin at an offset) is first copied in pieces to
    a temporary file.
    """
    if not (source.seekable() and source.tell() == 0):
        with tempfile.TemporaryFile() as copy:
            shutil.copyfileobj(source, copy)
            copy.seek(0)
            return _read_source(copy, check)
    if (report := _canonical_csv(source, check)) is not None:
        return report
    source.seek(0)
    text = _read_text(source).strip()  # no name holds the text before its strip
    if not text:
        raise ValueError("empty report")
    if text.startswith("{"):
        return _read_json(_load_json(text, "report"))
    if check is not None:
        check(text.count(",") // 3 - 1)  # exact for a valid CSV report
    report = _canonical_csv(io.BytesIO((text + "\n").encode()))
    return report if report is not None else _read_csv(text.splitlines())


def _walsh_csv_blocks(spec: WalshSpectrum):
    return _row_blocks("p,walsh\n", spec.coeffs, ",{}".format, "\n", "\n")


def export_walsh_csv(spec: WalshSpectrum) -> str:
    """Bare spectrum CSV: header ``p,walsh`` then one row per p."""
    return "".join(_walsh_csv_blocks(spec))


def _histogram_csv_blocks(hist):
    return _row_blocks("p,count\n", hist.counts, ",{}".format, "\n", "\n")


def export_histogram_csv(hist) -> str:
    """Histogram CSV: header ``p,count`` then one row per outcome."""
    return "".join(_histogram_csv_blocks(hist))


def _histogram_json_blocks(hist, seed: int | None = None):
    obj: dict = {"n": hist.n, "shots": hist.shots}
    if seed is not None:
        obj["seed"] = _index(seed, "histogram seed")
    head = json.dumps(obj, indent=2)[: -len("\n}")] + ',\n  "counts": [\n'
    return _row_blocks(head, hist.counts, "    {}".format, ",\n", "\n  ]\n}\n",
                       lambda start, stop: [])


def export_histogram_json(hist, seed: int | None = None) -> str:
    """Histogram JSON: the bytes of ``json.dumps(obj, indent=2)`` and a newline, for
    ``obj = {n, shots[, seed], counts}``; the counts list is spliced in by hand."""
    return "".join(_histogram_json_blocks(hist, seed))


# ---------------------------------------------------------------------------
# Bar rendering
# ---------------------------------------------------------------------------


def render_bars(values: Sequence[float] | np.ndarray, title: str = "",
                format: str = "ascii") -> str:
    """Render one bar per value, heights scaled by |value| / max |value|.

    ``format`` is ``"svg"`` (well-formed XML, exactly one rect per value)
    or ``"ascii"`` (one line per value, at most 256 values).  The SVG title
    escapes ``&``, ``<`` and ``>``, each code point outside XML 1.0's ``Char``
    production becomes U+FFFD, and each non-ASCII one a character reference,
    so the SVG is ASCII whatever the locale.  An all-zero input renders
    zero-height / zero-width bars; NaN and infinities raise ``ValueError``.
    """
    if not isinstance(title, str):
        raise ValueError(f"render_bars title must be a string, got {_short_repr(title)}")
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("render_bars needs a non-empty 1-d value sequence")
    if not np.isfinite(vals).all():
        raise ValueError("render_bars needs finite values")
    return "".join(_bar_blocks(vals, title, format))


def _bar_blocks(keys: np.ndarray, title: str, format: str, value=float):
    """Blocks of one bar per key, |value(key)| high: ``cli`` keys a report's bars by its int32 W.

    ``value`` runs on a key's Python scalar and grows with |key|, so the
    smallest or largest key gives the tallest bar.
    """
    if format == "ascii":
        return [_render_ascii(keys, title, value)]
    if format == "svg":
        return _svg_blocks(keys, title, value)
    raise ValueError(f"unknown render format: {format!r}")


def _check_bar_count(count: int, format: str) -> None:
    """Refuse more bars than ``format`` draws."""
    cap = {"ascii": ASCII_MAX_BARS, "svg": SVG_MAX_BARS}[format]
    if count > cap:
        raise ValueError(f"{format} rendering is capped at {cap} bars")


def _peak(keys: np.ndarray, value) -> float:
    return max(abs(value(keys.min().item())), abs(value(keys.max().item())))


def _render_ascii(keys: np.ndarray, title: str, value=float) -> str:
    _check_bar_count(keys.size, "ascii")
    peak = _peak(keys, value)
    lines = [title] if title else []
    for i, key in enumerate(keys.tolist()):
        v = value(key)
        w = 0 if peak == 0.0 else int(round(_BAR_WIDTH * abs(v) / peak))
        lines.append(f"{i:>5} {v:>12.6g} |{'#' * w}")
    return "\n".join(lines) + "\n"


#: The code points outside XML 1.0's ``Char`` production, as a positive class:
#: it compiles in about an eighth of the time of the negated ``Char`` class.
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _cents(x: np.ndarray) -> np.ndarray:
    """``format(v, ".2f")`` of each v in ``x``, |v| < 1310.72, as a count of hundredths.

    ``rint(v * 100)`` rounds the float product, which is within 2^-37 of the
    exact v * 100 below 2^17, so it can differ from the correctly rounded
    ``format`` only where the product is that close to a half; every v within
    1e-6 of one is formatted on its own.
    """
    scaled = x * 100
    cents = np.rint(scaled)
    near = np.flatnonzero(np.abs(np.abs(scaled - cents) - 0.5) < 1e-6)
    cents = cents.astype(np.int64)
    cents[near] = [int(format(v, ".2f").replace(".", "")) for v in x[near].tolist()]
    return cents


#: The two decimals of an x attribute, by cents modulo 100.
_TWO_DIGITS = _table([f"{d:02d}" for d in range(100)])


def _x_columns(left: float, slot: float, offset: float,
               start: int, stop: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The columns spelling ``f'<rect x="{x:.2f}'`` for bars i = start .. stop - 1.

    x is ``left + i * slot + offset`` in float64, the per-bar expression
    operation for operation, and ``_cents`` rounds it as ``format`` does.
    """
    whole, frac = np.divmod(_cents(left + np.arange(start, stop) * slot + offset), 100)
    first = int(whole[0])
    heads = _table([f'<rect x="{w}.' for w in range(first, int(whole[-1]) + 1)])
    return [(heads, whole - first), (_TWO_DIGITS, frac)]


def _svg_blocks(keys: np.ndarray, title: str, value=float):
    """The SVG of ``_bar_blocks``; ``value`` runs once per distinct key, in its rows' tail."""
    _check_bar_count(keys.size, "svg")
    width, height = 800.0, 360.0
    left, right, top, bottom = 40.0, 10.0, 30.0, 20.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    base_y = top + plot_h
    peak = _peak(keys, value)
    slot = plot_w / keys.size
    bar_w = slot * 0.9
    offset = (slot - bar_w) / 2

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n')
    if title:
        title = re.sub(_NOT_XML_CHAR, "\ufffd", title)
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        title = title.encode("ascii", "xmlcharrefreplace").decode("ascii")
        head += (f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="14">{title}</text>\n')
    foot = (f'\n<line x1="{left:.2f}" y1="{base_y:.2f}" x2="{left + plot_w:.2f}" '
            f'y2="{base_y:.2f}" stroke="black"/>\n</svg>\n')

    def tail(key) -> str:  # every bar of the same key shares the text after its x
        h = 0.0 if peak == 0.0 else plot_h * abs(value(key)) / peak
        return f'" y="{base_y - h:.2f}" width="{bar_w:.2f}" height="{h:.2f}" fill="steelblue"/>'

    return _row_blocks(head, keys, tail, "\n", foot,
                       partial(_x_columns, left, slot, offset))
