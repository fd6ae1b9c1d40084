"""Report exports (CSV/JSON), parsing round trips, and bar rendering."""

import io
import json
import re
import tracemalloc
import xml.etree.ElementTree as ET
from functools import partial
from types import SimpleNamespace
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bentspectra import (
    MeasurementHistogram,
    SpectrumReport,
    TruthTable,
    WalshSpectrum,
    amplitudes_from_walsh,
    classify,
    export_csv,
    export_json,
    fwht,
    make_affine,
    make_constant,
    make_inner_product_bent,
    make_report,
    random_function,
    read_report,
    render_bars,
    sample_measurements,
)
from bentspectra import cli, spectra
from bentspectra.spectra import (
    ASCII_MAX_BARS,
    SVG_MAX_BARS,
    export_histogram_csv,
    export_histogram_json,
    export_walsh_csv,
)


def test_csv_constant_report():
    text = export_csv(make_report(make_constant(2, 0)))
    lines = text.splitlines()
    assert lines[0] == "p,walsh,amplitude,probability"
    assert lines[1] == "0,4,1,1"
    assert len(lines) == 5


def test_csv_bent_report():
    text = export_csv(make_report(make_inner_product_bent(4)))
    rows = text.splitlines()[1:]
    assert len(rows) == 16
    assert all(row.split(",")[3] == "0.0625" for row in rows)


def test_csv_linear_report_single_peak():
    text = export_csv(make_report(make_affine(4, 9, 0)))
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [float(r[3]) for r in rows] == [0.0] * 9 + [1.0] + [0.0] * 6


def test_exports_deterministic():
    report = make_report(make_inner_product_bent(4), generator="ip-bent n=4")
    assert export_csv(report) == export_csv(report)
    assert export_json(report) == export_json(report)


def test_json_round_trip():
    report = make_report(make_affine(4, 9, 1), generator="affine", seed=42)
    parsed = read_report(export_json(report))
    assert parsed == report


def test_json_metadata():
    report = make_report(make_inner_product_bent(4), generator="ip-bent n=4")
    obj = json.loads(export_json(report))
    assert obj["n"] == 4
    assert obj["generator"] == "ip-bent n=4"
    assert "seed" not in obj  # deterministic generator
    assert obj["classification"]["is_bent"] is True
    assert len(obj["rows"]) == 16

    seeded = make_report(make_inner_product_bent(4), generator="g", seed=7)
    assert json.loads(export_json(seeded))["seed"] == 7


def test_csv_and_json_numeric_content_identical():
    report = make_report(make_affine(4, 9, 1), generator="affine", seed=3)
    from_csv = read_report(export_csv(report))
    from_json = read_report(export_json(report))
    assert np.array_equal(from_csv.walsh, from_json.walsh)
    assert np.array_equal(from_csv.amplitudes, from_json.amplitudes)
    assert np.array_equal(from_csv.probabilities, from_json.probabilities)


def test_csv_round_trip_reconstructs_classification():
    report = make_report(make_inner_product_bent(4))
    parsed = read_report(export_csv(report))
    assert parsed.classification == report.classification
    assert np.array_equal(parsed.walsh, report.walsh)


@pytest.mark.parametrize("tt", [
    TruthTable(2, [0, 0, 0, 1]),
    make_inner_product_bent(6),
    make_affine(5, 9, 1),
    make_constant(3, 0),
    random_function(7, np.random.default_rng(3)),
])
def test_report_derives_every_column_from_its_spectrum(tt):
    spec = fwht(tt)
    report = SpectrumReport(spec, "g", 11)
    assert report == make_report(tt, "g", 11)
    assert report.n == tt.n
    assert np.array_equal(report.walsh, spec.coeffs)
    assert np.array_equal(report.amplitudes, spec.coeffs / 2**tt.n)
    assert np.array_equal(report.probabilities, report.amplitudes ** 2)
    assert report.classification == classify(spec)
    assert (report.generator, report.seed) == ("g", 11)
    assert SpectrumReport(spec) == make_report(tt)
    assert SpectrumReport(spec) != report


def _report_texts(walsh, amplitudes, probs):
    """The columns as CSV and as JSON; the reader checks them before the missing classification."""
    rows = list(zip(range(len(walsh)), walsh, map(float, amplitudes), map(float, probs)))
    csv = "p,walsh,amplitude,probability\n" + "".join(
        f"{p},{w},{a!r},{q!r}\n" for p, w, a, q in rows)
    obj = {"n": 2, "generator": "", "rows": [
        {"p": p, "walsh": w, "amplitude": a, "probability": q} for p, w, a, q in rows]}
    return csv, json.dumps(obj)


@pytest.mark.parametrize("walsh, amplitudes, probs, message", [
    ([4, 0, 0, 0], [1, 0, 0, 0], [0.5, 0, 0, 0], "probability"),
    ([4, 0, 0], [1, 0, 0], [1, 0, 0], "row"),
    # columns that contradict the walsh column, each by one sign or one ulp
    ([2, 2, 2, -2], [0.5, 0.5, 0.5, 0.5], [0.25] * 4, "amplitude"),
    ([2, 2, 2, -2], [0.5, 0.5, 0.5, -0.5], [0.25, 0.25, 0.25, np.nextafter(0.25, 1)],
     "probability"),
    # a walsh column that is no spectrum, even though the other columns agree
    ([4, 0, 0, 2], [1, 0, 0, 0.5], [1, 0, 0, 0.25], "Parseval"),
])
def test_report_contradictions_rejected(walsh, amplitudes, probs, message):
    for text in _report_texts(walsh, amplitudes, probs):
        with pytest.raises(ValueError, match=message):
            read_report(text)


def test_report_validation():
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        WalshSpectrum(2, [4, 0, 0])
    with pytest.raises(ValueError, match="Parseval"):
        WalshSpectrum(2, [4, 0, 0, 2])
    csv, _ = _report_texts([2, 2, 2, -2], [0.5, 0.5, 0.5, -0.5], [0.25] * 4)
    assert read_report(csv) == make_report(TruthTable(2, [0, 0, 0, 1]))
    with pytest.raises(ValueError):
        read_report("")
    with pytest.raises(ValueError):
        read_report("a,b\n1,2\n")


def test_report_of_a_wrapping_spectrum_rejected():
    # export_csv of the spectrum that an int32 np.abs and an int64 square sum let
    # through: |-2^31| wraps to -2^31, and four squares 2^62 sum to 0 (mod 2^64)
    walsh = [-2**31] * 4 + [4] * 4
    text = "p,walsh,amplitude,probability\n" + "".join(
        f"{p},{w},{_fmt17(w / 8)},{_fmt17((w / 8) ** 2)}\n" for p, w in enumerate(walsh))
    with pytest.raises(ValueError, match=r"^coefficients must be in \[-8, 8\] with its parity$"):
        read_report(text)


def test_walsh_and_histogram_exports():
    spec = fwht(make_constant(2, 0))
    assert export_walsh_csv(spec) == "p,walsh\n0,4\n1,0\n2,0\n3,0\n"

    amps = amplitudes_from_walsh(spec)
    hist = sample_measurements(amps, 10, np.random.default_rng(0))
    assert export_histogram_csv(hist) == "p,count\n0,10\n1,0\n2,0\n3,0\n"
    obj = json.loads(export_histogram_json(hist, seed=0))
    assert obj == {"n": 2, "shots": 10, "seed": 0, "counts": [10, 0, 0, 0]}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _rects(svg_text):
    root = ET.fromstring(svg_text)
    return [e for e in root.iter() if e.tag.endswith("rect")]


def test_svg_flat_bars():
    svg = render_bars([0.0625] * 16, "flat", format="svg")
    rects = _rects(svg)
    assert len(rects) == 16
    heights = {r.get("height") for r in rects}
    assert len(heights) == 1 and heights != {"0.00"}


def test_svg_delta_bars():
    values = [0.0] * 16
    values[9] = 1.0
    rects = _rects(render_bars(values, "delta", format="svg"))
    assert len(rects) == 16
    assert sum(1 for r in rects if float(r.get("height")) > 0) == 1
    assert float(rects[9].get("height")) > 0


def test_svg_single_and_zero_values():
    rects = _rects(render_bars([1.0], "one", format="svg"))
    assert len(rects) == 1 and float(rects[0].get("height")) > 0
    rects = _rects(render_bars([0.0, 0.0], "zeros", format="svg"))
    assert [r.get("height") for r in rects] == ["0.00", "0.00"]


def test_svg_element_allowlist():
    svg = render_bars([0.5, 1.0], "t & t", format="svg")
    root = ET.fromstring(svg)
    tags = {e.tag.split("}")[-1] for e in root.iter()}
    assert tags <= {"svg", "rect", "text", "line"}


def test_ascii_bars():
    text = render_bars([0.0625] * 16, "", format="ascii")
    lines = text.splitlines()
    assert len(lines) == 16
    assert all(line.endswith("#" * 60) for line in lines)

    text = render_bars([0.0, 1.0, 0.5], "title", format="ascii")
    lines = text.splitlines()
    assert lines[0] == "title"
    assert lines[1].endswith("|")
    assert lines[2].count("#") == 60
    assert lines[3].count("#") == 30


def test_render_validation():
    with pytest.raises(ValueError):
        render_bars([], "x", format="ascii")
    with pytest.raises(ValueError):
        render_bars([1.0], "x", format="png")
    with pytest.raises(ValueError):
        render_bars([1.0] * (ASCII_MAX_BARS + 1), "x", format="ascii")
    for bad in (float("nan"), float("inf"), -float("inf")):
        for fmt in ("ascii", "svg"):
            with pytest.raises(ValueError, match="^render_bars needs finite values$"):
                render_bars([bad, 1.0], "x", format=fmt)
    # the same size is fine as SVG
    assert len(_rects(render_bars([1.0] * (ASCII_MAX_BARS + 1), "x", format="svg"))) \
        == ASCII_MAX_BARS + 1


@pytest.mark.parametrize("fmt, cap", [("ascii", ASCII_MAX_BARS), ("svg", SVG_MAX_BARS)])
def test_render_refuses_more_bars_than_its_cap(fmt, cap):
    with pytest.raises(ValueError, match=f"^{fmt} rendering is capped at {cap} bars$"):
        render_bars(np.zeros(cap + 1), "x", format=fmt)


def test_render_deterministic():
    values = np.linspace(0, 1, 32)
    assert render_bars(values, "t", format="svg") == render_bars(values, "t", format="svg")
    assert render_bars(values, "t", format="ascii") == render_bars(values, "t", format="ascii")


# ---------------------------------------------------------------------------
# Self-contradicting and malformed reports
# ---------------------------------------------------------------------------


def _bent_json():
    return json.loads(export_json(make_report(make_inner_product_bent(4), generator="ip")))


def _constant_with(row, key, value):
    """An edit to a constant n=1 report, whose 0/1 cells a JSON bool equals, of one cell."""

    def edit(obj):
        obj.clear()
        obj.update(json.loads(export_json(make_report(make_constant(1, 0)))))
        obj["rows"][row][key] = value

    return edit


def test_json_amplitude_contradicting_walsh_rejected():
    obj = _bent_json()
    obj["rows"][3]["amplitude"] = -obj["rows"][3]["amplitude"]
    with pytest.raises(ValueError, match="amplitude"):
        read_report(json.dumps(obj))


def test_json_classification_contradicting_walsh_rejected():
    obj = _bent_json()
    obj["classification"]["is_bent"] = False
    with pytest.raises(ValueError, match="classification"):
        read_report(json.dumps(obj))
    obj["classification"]["is_bent"] = True
    obj["classification"]["nonlinearity"] += 1
    with pytest.raises(ValueError, match="classification"):
        read_report(json.dumps(obj))


def test_json_missing_classification_rejected():
    obj = _bent_json()
    del obj["classification"]
    with pytest.raises(ValueError, match="classification"):
        read_report(json.dumps(obj))


@pytest.mark.parametrize("n", [None, "4", 4.0, True, -1, 0, 10**9])
def test_json_bad_n_rejected(n):
    obj = _bent_json()
    obj["n"] = n
    with pytest.raises(ValueError):
        read_report(json.dumps(obj))


@pytest.mark.parametrize("edit", [
    lambda o: o.pop("rows"),
    lambda o: o["rows"].pop(),
    lambda o: o["rows"][5].pop("walsh"),
    lambda o: o["rows"].__setitem__(2, 7),
    lambda o: o["rows"][2].__setitem__("p", 3),
    lambda o: o["rows"][2].__setitem__("walsh", "4"),
    lambda o: o["rows"][2].__setitem__("walsh", 4.0),
    lambda o: o["rows"][2].__setitem__("amplitude", "0.25"),
    lambda o: o.__setitem__("seed", "7"),
    _constant_with(0, "p", False),
    _constant_with(1, "p", 1.0),
    _constant_with(1, "walsh", False),
    _constant_with(0, "amplitude", True),
    _constant_with(0, "probability", True),
])
def test_json_malformed_rows_rejected(edit):
    obj = _bent_json()
    edit(obj)
    with pytest.raises(ValueError):
        read_report(json.dumps(obj))


@pytest.mark.parametrize("generator", [None, 7, ["ip"], {"name": "ip"}, True])
def test_json_generator_must_be_a_string(generator):
    obj = _bent_json()
    obj["generator"] = generator
    with pytest.raises(ValueError, match="generator must be a string"):
        read_report(json.dumps(obj))
    obj.pop("generator")
    assert read_report(json.dumps(obj)).generator == ""


@pytest.mark.parametrize("metadata, message", [
    ({"generator": 123}, "report generator must be a string, got 123"),
    ({"generator": b"x"}, "report generator must be a string, got b'x'"),
    ({"generator": None}, "report generator must be a string, got None"),
    ({"seed": 1.7}, "report seed must be an integer, got 1.7"),
    ({"seed": "3"}, "report seed must be an integer, got '3'"),
], ids=["generator-int", "generator-bytes", "generator-none", "seed-float", "seed-str"])
def test_report_refuses_metadata_its_reader_refuses(metadata, message):
    # the report is checked where it is built, not when its export is read back
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_report(make_inner_product_bent(4), **metadata)


def test_report_metadata_round_trips():
    report = make_report(make_inner_product_bent(4), "ip", np.int64(3))
    assert type(report.seed) is int and report.seed == 3
    assert read_report(export_json(report)) == report


@pytest.mark.parametrize("text", [
    '{"n": ' + "[" * 100_000,
    '{"n": 4, "rows": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["unclosed-n", "closed-rows"])
def test_deeply_nested_json_report_is_a_value_error(text):
    with pytest.raises(ValueError, match="^malformed report JSON: "):
        read_report(text)


def test_json_decode_error_names_the_report():
    with pytest.raises(ValueError, match="^malformed report JSON: Expecting"):
        read_report('{"n": 2')


def _bent_csv_lines():
    return export_csv(make_report(make_inner_product_bent(4))).splitlines()


@pytest.mark.parametrize("replacement", [
    "2,-4,-0.25",             # short row
    "2,-4,-0.25,0.0625,1",    # long row
    "2",                      # one field
])
def test_csv_wrong_field_count_rejected(replacement):
    lines = _bent_csv_lines()
    lines[3] = replacement
    with pytest.raises(ValueError, match="fields"):
        read_report("\n".join(lines))


def test_csv_short_then_long_row_does_not_realign():
    # four fields per row on average, so only a per-row count catches it
    lines = _bent_csv_lines()
    lines[3] = "2,4,0.25"
    lines[4] = "0.0625,3,4,0.25,0.0625"
    with pytest.raises(ValueError, match="row 2 has 3 fields"):
        read_report("\n".join(lines))


def test_csv_contradicting_columns_rejected():
    lines = _bent_csv_lines()
    lines[5] = "4,4,0.25,0.0625000001"
    with pytest.raises(ValueError, match="probability"):
        read_report("\n".join(lines))
    lines = _bent_csv_lines()
    for big in ("99999999999", str(2**32 + 4)):  # the second wraps to 4 in int32
        lines[5] = f"4,{big},0.25,0.0625"
        with pytest.raises(ValueError, match="coefficients"):
            read_report("\n".join(lines))
    lines = _bent_csv_lines()
    lines[5] = "5,4,0.25,0.0625"
    with pytest.raises(ValueError, match="in order"):
        read_report("\n".join(lines))


def test_csv_reader_tolerates_crlf_and_blank_lines():
    report = make_report(make_inner_product_bent(4))
    lines = export_csv(report).splitlines()
    lines.insert(4, "")
    assert read_report("\r\n".join(lines)) == report


# ---------------------------------------------------------------------------
# Byte identity with the per-row writers the exporters replaced
# ---------------------------------------------------------------------------


def _fmt17(x):
    return format(float(x), ".17g")


def reference_export_csv(report):
    lines = ["p,walsh,amplitude,probability"]
    for p in range(1 << report.n):
        lines.append(
            f"{p},{int(report.walsh[p])},{_fmt17(report.amplitudes[p])},"
            f"{_fmt17(report.probabilities[p])}"
        )
    return "\n".join(lines) + "\n"


def reference_export_json(report):
    obj = {"n": report.n, "generator": report.generator}
    if report.seed is not None:
        obj["seed"] = report.seed
    obj["classification"] = report.classification.as_dict()
    obj["rows"] = [
        {
            "p": p,
            "walsh": int(report.walsh[p]),
            "amplitude": float(report.amplitudes[p]),
            "probability": float(report.probabilities[p]),
        }
        for p in range(1 << report.n)
    ]
    return json.dumps(obj, indent=2) + "\n"


def _xml_char(c):
    """``c`` if XML 1.0's Char production allows it, else U+FFFD."""
    o = ord(c)
    allowed = (o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD
               or 0x10000 <= o <= 0x10FFFF)
    return c if allowed else "\ufffd"


def reference_render_svg(values, title):
    vals = np.asarray(values, dtype=np.float64)
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
        text = escape("".join(map(_xml_char, title)))
        out.append(
            f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">'
            f'{text.encode("ascii", "xmlcharrefreplace").decode("ascii")}</text>'
        )
    for i, v in enumerate(vals):
        h = 0.0 if peak == 0.0 else plot_h * abs(float(v)) / peak
        x = left + i * slot + (slot - bar_w) / 2
        out.append(
            f'<rect x="{x:.2f}" y="{base_y - h:.2f}" width="{bar_w:.2f}" '
            f'height="{h:.2f}" fill="steelblue"/>'
        )
    out.append(
        f'<line x1="{left:.2f}" y1="{base_y:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{base_y:.2f}" stroke="black"/>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_indexed_csv(name, values):
    lines = [f"p,{name}"]
    lines.extend(f"{p},{int(c)}" for p, c in enumerate(values))
    return "\n".join(lines) + "\n"


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(["random", "random", "ip-bent", "affine", "constant"]))
    n = draw(st.integers(1, 10))
    if kind == "random":
        return TruthTable.from_int(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    if kind == "ip-bent":
        return make_inner_product_bent(2 * draw(st.integers(1, 5)))
    if kind == "affine":
        return make_affine(n, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, 1)))
    return make_constant(n, draw(st.integers(0, 1)))


def _assert_writers_match_reference(report):
    assert export_csv(report) == reference_export_csv(report)
    assert export_json(report) == reference_export_json(report)
    for column in (report.walsh, report.amplitudes, report.probabilities):
        assert render_bars(column, report.generator, format="svg") \
            == reference_render_svg(column, report.generator)
    spec = WalshSpectrum(report.n, report.walsh)
    assert export_walsh_csv(spec) == reference_indexed_csv("walsh", spec.coeffs)
    assert read_report(export_csv(report)) == SpectrumReport(spec)
    assert read_report(export_json(report)) == report


@settings(max_examples=120, deadline=None)
@given(tables(), st.one_of(st.none(), st.integers(0, 2**63 - 1)), st.text(max_size=12))
def test_writers_match_per_row_reference(tt, seed, generator):
    _assert_writers_match_reference(make_report(tt, generator=generator, seed=seed))


@pytest.mark.parametrize("tt", [
    make_inner_product_bent(10),
    make_affine(9, 0x155, 1),
    make_constant(7, 1),
    TruthTable(1, [0, 1]),
    # W = +-2^n, the two ends of the exporters' distinct-W table, at n = 1 and beyond
    make_constant(1, 0),
    make_constant(1, 1),
    TruthTable(1, [1, 0]),
    make_constant(12, 0),
    make_affine(12, 0xABC, 1),
])
def test_writers_match_per_row_reference_fixed(tt):
    _assert_writers_match_reference(make_report(tt))
    _assert_writers_match_reference(make_report(tt, generator='g "q" <&>', seed=0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), st.text(max_size=8))
def test_svg_matches_per_row_reference_on_any_values(values, title):
    assert render_bars(values, title, format="svg") == reference_render_svg(values, title)


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from("\x00\x01\x1f\ud800\udfff\ufffe\uffff&<>"))))
@example("\x01")
@example("\x00")
@example("\ufffe")
@example("\ud800")
@example("a]]>b&<c\r\n")
def test_svg_is_well_formed_for_any_title(title):
    svg = render_bars([1.0, 0.5], title, format="svg")
    texts = [e for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
    assert len(texts) == (1 if title else 0)
    assert svg.isascii()
    assert svg == reference_render_svg([1.0, 0.5], title)


def test_title_filter_is_xml_char_on_every_code_point():
    everything = "".join(map(chr, range(0x110000)))
    assert re.sub(spectra._NOT_XML_CHAR, "\ufffd", everything) \
        == "".join(map(_xml_char, everything))


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 5000), st.integers(0, 2**32))
def test_histogram_writers_match_per_row_reference(tt, shots, seed):
    hist = sample_measurements(amplitudes_from_walsh(fwht(tt)), shots,
                               np.random.default_rng(seed))
    assert export_histogram_csv(hist) == reference_indexed_csv("count", hist.counts)
    assert json.loads(export_histogram_json(hist))["counts"] == [int(c) for c in hist.counts]


def _assert_distinct_like_unique(values):
    values = np.asarray(values)
    got, index = spectra._distinct(values)
    want, inverse = np.unique(values, return_inverse=True)
    assert got.tolist() == want.tolist() and index.tolist() == inverse.tolist()


@pytest.mark.parametrize("n", range(1, 13))
def test_distinct_matches_unique_on_walsh_columns(n):
    rng = np.random.default_rng(n)
    tables = [random_function(n, rng), make_constant(n, 0), make_constant(n, 1),
              make_affine(n, int(rng.integers(1 << n)), 1)]  # W = 2^n, -2^n, +-2^n
    if n % 2 == 0:
        tables.append(make_inner_product_bent(n))
    for tt in tables:
        _assert_distinct_like_unique(fwht(tt).coeffs)


@pytest.mark.parametrize("values", [
    [32, 0, 5, 0] + [1] * 12,  # span 33 = 2 * 16 + 1: the presence table
    [33, 0, 5, 0] + [1] * 12,  # span 34: np.unique
    [10**9] + [0] * 15,  # a delta histogram
    [-7, 3, -7, 0, 2, 3],
    np.array([200, 3, 3, 255], dtype=np.uint8),
    [0.5, -1.25, 0.5, 3.0, -1.25, 0.0],
])
def test_distinct_matches_unique_on_other_columns(values):
    _assert_distinct_like_unique(values)


def test_histogram_csv_memory_does_not_grow_with_shots():
    hist = MeasurementHistogram(4, [10**9] + [0] * 15, 10**9)
    tracemalloc.start()
    try:
        text = export_histogram_csv(hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_indexed_csv("count", hist.counts)
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# The canonical CSV check against the field-by-field reader
# ---------------------------------------------------------------------------


def reference_read_csv(text):
    """``read_report`` on a CSV, parsing every field of every row."""
    lines = text.strip().splitlines()
    if lines[0] != "p,walsh,amplitude,probability":
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

    def column(fields, parse):
        values = {s: parse(s) for s in set(fields)}
        return [values[s] for s in fields]

    p_column = list(map(int, flat[0::4]))
    if not np.array_equal(np.asarray(p_column), np.arange(len(p_column))):
        raise ValueError("report rows must cover p = 0 .. 2^n - 1 in order")
    walsh, amplitudes, probs = (column(flat[1::4], int), column(flat[2::4], float),
                                column(flat[3::4], float))
    report = SpectrumReport(WalshSpectrum(count.bit_length() - 1, walsh))
    if not np.array_equal(amplitudes, report.amplitudes):
        raise ValueError("amplitude column must equal walsh / 2^n")
    if not np.array_equal(probs, report.probabilities):
        raise ValueError("probability column must equal amplitude^2")
    return report


def _assert_reads_like_reference(text):
    try:
        want = reference_read_csv(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_report(text)
        assert str(info.value) == str(exc)
        return
    got = read_report(text)
    assert got == want and got.classification == want.classification
    assert np.array_equal(got.amplitudes, want.amplitudes)
    assert np.array_equal(got.probabilities, want.probabilities)


def _exported_tables(n, rng):
    yield random_function(n, rng)
    yield make_constant(n, 0)
    yield make_constant(n, 1)
    yield make_affine(n, int(rng.integers(1 << n)), 1)
    if n % 2 == 0:
        yield make_inner_product_bent(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_csv_reader_matches_reference_on_exports_and_layouts(n):
    for tt in _exported_tables(n, np.random.default_rng(n)):
        text = export_csv(make_report(tt))
        lines = text.splitlines()
        for variant in (text, "\r\n".join(lines), "\n".join(lines[:2] + [""] + lines[2:]),
                        f" \n\t{text}  \n", text + "\u00a0"):
            _assert_reads_like_reference(variant)


def _edited(lines, row, field, value):
    """The lines with one field of data row ``row`` replaced."""
    fields = lines[row + 1].split(",")
    fields[field] = value
    return "\n".join(lines[:row + 1] + [",".join(fields)] + lines[row + 2:])


_BENT4 = export_csv(make_report(make_inner_product_bent(4))).splitlines()  # W = +-4
_RANDOM5 = export_csv(make_report(random_function(5, np.random.default_rng(2)))).splitlines()


@pytest.mark.parametrize("text", [
    _report_texts([2, 2, 2, -2], [0.5, 0.5, 0.5, -0.5], [0.25] * 4)[0],
    _report_texts([4, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0])[0],
    _report_texts([4, 0, 0, 0], [1, 0, 0, 0], [0.5, 0, 0, 0])[0],
    _report_texts([4, 0, 0, 2], [1, 0, 0, 0.5], [1, 0, 0, 0.25])[0],
    _report_texts([2, 2, 2, -2], [0.5, 0.5, 0.5, 0.5], [0.25] * 4)[0],
    _edited(_BENT4, 3, 2, "2.5e-1" if _BENT4[4].split(",")[2] == "0.25" else "-2.5e-1"),
    _edited(_BENT4, 3, 3, "6.25e-2"),
    _edited(_BENT4, 3, 1, " " + _BENT4[4].split(",")[1] + " "),
    _edited(_BENT4, 0, 1, "+4"),
    _edited(_BENT4, 0, 1, "04"),
    _edited(_BENT4, 0, 1, "--4"),
    _edited(_BENT4, 0, 1, "4a"),
    _edited(_BENT4, 0, 1, ""),
    _edited(_BENT4, 0, 1, "4.0"),
    _edited(_BENT4, 3, 0, "\uff13"),  # fullwidth 3
    _edited(_BENT4, 10, 0, "1_0"),
    _edited(_BENT4, 5, 0, "6"),
    _edited(_BENT4, 5, 3, repr(float(np.nextafter(0.0625, 1)))),
    _edited(_BENT4, 5, 2, str(-float(_BENT4[6].split(",")[2]))),
    _edited(_BENT4, 5, 1, "99999999999"),
    _edited(_BENT4, 5, 1, str(2**32 + 4)),
    _edited(_BENT4, 5, 1, "4\u00e9"),
    _edited(_RANDOM5, 7, 1, "-0"),
    _edited(_RANDOM5, 7, 3, _RANDOM5[8].split(",")[3] + "0"),
    "\n".join(_BENT4[:3] + ["2,-4,-0.25"] + _BENT4[4:]),
    "\n".join(_BENT4[:3] + ["2,-4,-0.25,0.0625,1"] + _BENT4[4:]),
    "\n".join(_BENT4[:3] + ["2"] + _BENT4[4:]),
    "\n".join(_BENT4[:3] + ["2,4,0.25", "0.0625,3,4,0.25,0.0625"] + _BENT4[5:]),
    "\n".join(_BENT4[:1] + _BENT4[2:] + _BENT4[1:2]),  # p = 0 moved to the end
    "\n".join(["P" + _BENT4[0][1:]] + _BENT4[1:]),
    _BENT4[0],
    "\n".join(_BENT4[:2]),
    "\n".join(_BENT4[:4]),
    "\n".join(_BENT4[:3]),
])
def test_csv_reader_matches_reference_on_edited_texts(text):
    _assert_reads_like_reference(text)


@pytest.mark.parametrize("n", [*range(1, 13), 16])
def test_exported_csv_is_read_without_the_field_parse(n, monkeypatch):
    def field_parse(lines):
        raise AssertionError("an export, as given or stripped, reached the field-by-field reader")

    monkeypatch.setattr(spectra, "_read_csv", field_parse)
    rng = np.random.default_rng(100 + n)
    tables = list(_exported_tables(n, rng)) if n < 16 else [
        random_function(n, rng), make_inner_product_bent(n)]
    for tt in tables:
        report = make_report(tt)
        text = export_csv(report)
        for given in (text, text[:-1], " \n" + text + "\n"):
            assert read_report(given) == report


def test_csv_read_memory_at_n16():
    text = export_csv(make_report(random_function(16, np.random.default_rng(5))))
    read_report(text)  # warm
    tracemalloc.start()
    try:
        read_report(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.6 MiB: the text's bytes, the numpy columns and one block of the
    # re-export; 10.9 MiB when the reader checked a stripped copy of the text,
    # 20 MiB when it built the whole re-export, and parsing every field as a
    # Python string and number took 31 MiB
    assert peak <= 9 << 20, peak


def _assert_bytes_read_as_text(data):
    """``read_report`` of the bytes gives the report, or the message, of their decoded text."""
    try:
        want = read_report(data.decode())
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_report(data)
        assert str(info.value) == str(exc)
        return
    got = read_report(data)
    assert got == want and got.classification == want.classification


_PARSEVAL_BROKEN = "p,walsh,amplitude,probability\n0,4,1,1\n1,0,0,0\n2,0,0,0\n3,2,0.5,0.25\n"


@pytest.mark.parametrize("n", [1, 4, 9, 13])
def test_report_bytes_read_as_their_text(n):
    tt = random_function(n, np.random.default_rng(n))
    report = make_report(tt)  # a CSV holds no generator or seed
    data = export_csv(report).encode()
    lines = data.split(b"\n")
    # the first probability spelled with 18 digits: the same value, so a valid CSV
    respelled = _edited(data.decode().splitlines(), 0, 3,
                        f"{float(report.probabilities[0]):.17e}").encode()
    assert read_report(respelled) == read_report(data) == report
    for variant in (
        data,
        data[:-1],
        b" \n\t" + data + b"  \n",
        data.replace(b"\n", b"\r\n"),
        b"\n".join(lines[:2]) + b"\r" + b"\n".join(lines[2:]),  # a lone \r
        export_json(make_report(tt, generator="b\u00e9", seed=n)).encode(),
        respelled,
        _PARSEVAL_BROKEN.encode(),
        # a walsh field of four UTF-8 e-acutes (8 bytes), read by the digit loop
        (_edited(data.decode().splitlines(), 0, 1, "\u00e9" * 4) + "\n").encode(),
    ):
        _assert_bytes_read_as_text(variant)


def test_report_bytes_that_are_not_utf8_are_refused():
    with pytest.raises(ValueError, match="can't decode byte 0xff"):
        read_report(export_csv(make_report(make_constant(2, 0))).encode() + b"\xff")


@pytest.mark.parametrize("scan", [1, 7, 64, 1 << 12])
def test_comma_scan_slices_leave_the_read_unchanged(scan, monkeypatch):
    monkeypatch.setattr(spectra, "_SCAN_BYTES", scan)
    for n in (1, 2, 7, 10):
        report = make_report(random_function(n, np.random.default_rng(n)))
        data = export_csv(report).encode()
        assert np.array_equal(spectra._comma_positions(np.frombuffer(data, dtype=np.uint8)),
                              np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord(",")))
        assert spectra._canonical_csv(io.BytesIO(data)) == report


def test_canonical_csv_refuses_a_buffer_past_int32_positions(monkeypatch):
    class Huge(io.BytesIO):  # an export that claims 2^31 bytes
        def seek(self, offset, whence=io.SEEK_SET):
            return 1 << 31 if whence == io.SEEK_END else super().seek(offset, whence)

    def scan(buf):
        raise AssertionError("a buffer past int32 positions was scanned")

    data = export_csv(make_report(make_constant(3, 1))).encode()
    assert spectra._canonical_csv(io.BytesIO(data)) is not None
    monkeypatch.setattr(spectra, "_comma_positions", scan)
    assert spectra._canonical_csv(Huge(data)) is None


class _CountingBytes(io.BytesIO):
    """An in-memory file that counts the bytes its reads return."""

    returned = 0

    def read(self, size=-1):
        data = super().read(size)
        self.returned += len(data)
        return data

    def readinto(self, buf):
        got = super().readinto(buf)
        self.returned += got
        return got

    def readline(self, size=-1):
        line = super().readline(size)
        self.returned += len(line)
        return line


def test_canonical_csv_reads_the_tail_to_refuse_and_the_export_twice_to_accept():
    report = make_report(random_function(12, np.random.default_rng(12)))
    data = export_csv(report).encode()

    def refuse(rows):
        raise ValueError(f"{rows} rows")

    source = _CountingBytes(data)
    with pytest.raises(ValueError, match="^4096 rows$"):
        spectra._canonical_csv(source, refuse)
    # the header and the 256-byte tail that holds the last row; the whole input
    # when the row count was its commas
    assert source.returned <= len(spectra._CSV_HEADER) + 1 + 256, source.returned
    source = _CountingBytes(data)
    assert spectra._canonical_csv(source) == report
    # the walsh pass and the comparison, and the header and tail; three times
    # the input when a comma-count pass came first
    assert source.returned <= 2 * len(data) + 256, (source.returned, len(data))


# ---------------------------------------------------------------------------
# The column-table engine: SVG x strings, cents and block seams
# ---------------------------------------------------------------------------


def test_svg_x_strings_match_per_bar_format_for_every_power_of_two_bar_count():
    # one pass over every n, 2^21 bars in all, so it is not repeated per example
    left = 40.0
    for n in range(21):
        count = 1 << n
        slot = 750.0 / count
        offset = (slot - slot * 0.9) / 2
        blocks = spectra._row_blocks("", np.zeros(count), lambda v: "", "\n", "\n",
                                     partial(spectra._x_columns, left, slot, offset))
        want = "".join([f'<rect x="{left + i * slot + offset:.2f}\n' for i in range(count)])
        assert "".join(blocks) == want, n


_NEAR_TIES = [float(w) for v in (0.125, 0.375, 40.125, 2.675, 1.005, 799.995)
              for w in (np.nextafter(v, 0.0), v, np.nextafter(v, 1e3))]


def test_cents_match_format_on_ties_and_their_neighbours():
    cents = spectra._cents(np.array(_NEAR_TIES)).tolist()
    assert [f"{c // 100}.{c % 100:02d}" for c in cents] == [format(v, ".2f") for v in _NEAR_TIES]
    # rounding the float product alone gets 2.675 wrong, so the per-value branch is needed
    assert np.rint(2.675 * 100) == 268 and format(2.675, ".2f") == "2.67"


def _materialized(report):
    """The report's columns as plain arrays, so the per-row references index them cheaply."""
    return SimpleNamespace(n=report.n, walsh=report.walsh, amplitudes=report.amplitudes,
                           probabilities=report.probabilities, generator=report.generator,
                           seed=report.seed, classification=report.classification)


# p crosses 1000 in one block; two blocks, p crossing 1000 inside the first;
# 32 blocks, p crossing 10^5
@pytest.mark.parametrize("n", [10, 13, 17])
def test_every_writer_matches_its_reference_across_block_seams(n):
    rng = np.random.default_rng(n)
    tt = random_function(n, rng)
    report = make_report(tt, generator="seam", seed=n)
    rows = _materialized(report)
    assert len(list(spectra._csv_blocks(report))) == 1 + -(-(1 << n) // spectra._BLOCK_ROWS)
    assert export_csv(report) == reference_export_csv(rows)
    assert export_json(report) == reference_export_json(rows)
    assert render_bars(rows.probabilities, "seam", format="svg") \
        == reference_render_svg(rows.probabilities, "seam")
    assert export_walsh_csv(fwht(tt)) == reference_indexed_csv("walsh", rows.walsh)
    hist = sample_measurements(amplitudes_from_walsh(fwht(tt)), 10**6, rng)
    assert export_histogram_csv(hist) == reference_indexed_csv("count", hist.counts)
    obj = {"n": n, "shots": hist.shots, "seed": 7, "counts": hist.counts.tolist()}
    assert export_histogram_json(hist, seed=7) == json.dumps(obj, indent=2) + "\n"
    del obj["seed"]
    assert export_histogram_json(hist) == json.dumps(obj, indent=2) + "\n"


def _streamed_cli_peak(tmp_path, command, *args):
    """The n = 18 table, and the traced peak of ``command --in`` it with ``args``, ``--out`` a file."""
    tt = random_function(18, np.random.default_rng(18))
    table, out = tmp_path / "f.tt", tmp_path / "out"
    table.write_text(tt.text() + "\n")
    argv = [command, "--in", str(table), *args, "--out", str(out)]
    assert cli.main(argv) == 0  # warm
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return tt, table, out, peak


def test_streamed_dj_memory_is_the_w_column_and_a_few_blocks(tmp_path):
    tt, table, out, peak = _streamed_cli_peak(tmp_path, "dj")
    report = make_report(tt, generator=str(table))
    assert out.read_text() == export_csv(report)
    # the peak is writing a block: the table (256 KiB), W and its int32 distinct
    # index, and one block of at most 219 KiB as text and bytes with its columns.
    # 768 KiB for the rest: 2.94 MiB measured; 3.39 MiB when _distinct held W's
    # offset keys beside the index, and 9.35 MiB when a block was 2^16 rows
    bound = tt.bits.nbytes + 2 * report.walsh.nbytes + (768 << 10)
    assert peak <= bound < out.stat().st_size, (peak, bound)


@pytest.mark.parametrize("command, args", [("dj", ["--format", "json"]), ("walsh", [])])
def test_streamed_json_and_walsh_memory_is_the_w_column_and_a_few_blocks(tmp_path, command,
                                                                         args):
    tt, _, out, peak = _streamed_cli_peak(tmp_path, command, *args)
    # as for the CSV: the table, W and its index; a JSON block of 2^12 rows is
    # at most 545 KiB, held as text and as bytes while W and its index (2 MiB)
    # are alive, so 768 KiB for the rest.  Measured: 3.71 MiB for the JSON and
    # 2.66 MiB for walsh, 19.66 and 5.93 MiB when a block was 2^16 rows
    bound = tt.bits.nbytes + 3 * 4 * (1 << tt.n) + (768 << 10)
    assert peak <= bound, (peak, bound)


def test_canonical_csv_compares_the_export_block_by_block(monkeypatch):
    def whole_export(report):
        raise AssertionError("the canonical check built the whole export")

    monkeypatch.setattr(spectra, "export_csv", whole_export)
    report = make_report(random_function(17, np.random.default_rng(17)))
    text = "".join(spectra._csv_blocks(report))
    assert read_report(text) == report
    lines = text.strip().splitlines()
    # the seam rows, a row inside the second block and the last row, each edited
    # outside its walsh field, and the export without its final newline
    for row in (spectra._BLOCK_ROWS - 1, spectra._BLOCK_ROWS, 100_000, len(lines) - 2):
        edited = _edited(lines, row, 3, "9") + "\n"
        assert spectra._canonical_csv(io.BytesIO(edited.encode())) is None
        assert spectra._canonical_csv(io.BufferedReader(io.BytesIO(edited.encode()))) is None
    assert spectra._canonical_csv(io.BytesIO(text.encode()[:-1])) is None
    assert spectra._canonical_csv(io.BufferedReader(io.BytesIO(text.encode()[:-1]))) is None
    assert spectra._canonical_csv(io.BytesIO(text.encode())) == report == \
        spectra._canonical_csv(io.BufferedReader(io.BytesIO(text.encode())))


def test_canonical_csv_refuses_an_export_without_its_final_newline_before_parsing_w(tmp_path,
                                                                                   monkeypatch):
    def walsh_fields(source, rows):
        raise AssertionError("the walsh column was parsed")

    text = export_csv(make_report(random_function(10, np.random.default_rng(10))))
    path = tmp_path / "r.csv"
    path.write_text(text[:-1])
    monkeypatch.setattr(spectra, "_walsh_fields", walsh_fields)
    assert spectra._canonical_csv(io.BytesIO(text.encode()[:-1])) is None
    assert spectra._canonical_csv(io.BufferedReader(io.BytesIO(text.encode()[:-1]))) is None
    with path.open("rb") as fh:
        assert spectra._canonical_csv(fh) is None
    with pytest.raises(AssertionError, match="walsh column"):  # the export itself is parsed
        spectra._canonical_csv(io.BytesIO(text.encode()))
