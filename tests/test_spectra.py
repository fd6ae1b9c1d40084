"""Report exports (CSV/JSON), parsing round trips, and bar rendering."""

import json
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentspectra import (
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
from bentspectra.spectra import (
    ASCII_MAX_BARS,
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
    # the same size is fine as SVG
    assert len(_rects(render_bars([1.0] * (ASCII_MAX_BARS + 1), "x", format="svg"))) \
        == ASCII_MAX_BARS + 1


def test_render_deterministic():
    values = np.linspace(0, 1, 32)
    assert render_bars(values, "t", format="svg") == render_bars(values, "t", format="svg")
    assert render_bars(values, "t", format="ascii") == render_bars(values, "t", format="ascii")


# ---------------------------------------------------------------------------
# Self-contradicting and malformed reports
# ---------------------------------------------------------------------------


def _bent_json():
    return json.loads(export_json(make_report(make_inner_product_bent(4), generator="ip")))


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
])
def test_json_malformed_rows_rejected(edit):
    obj = _bent_json()
    edit(obj)
    with pytest.raises(ValueError):
        read_report(json.dumps(obj))


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
        out.append(
            f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(title)}</text>'
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
])
def test_writers_match_per_row_reference_fixed(tt):
    _assert_writers_match_reference(make_report(tt))
    _assert_writers_match_reference(make_report(tt, generator='g "q" <&>', seed=0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300), st.text(max_size=8))
def test_svg_matches_per_row_reference_on_any_values(values, title):
    assert render_bars(values, title, format="svg") == reference_render_svg(values, title)


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 5000), st.integers(0, 2**32))
def test_histogram_writers_match_per_row_reference(tt, shots, seed):
    hist = sample_measurements(amplitudes_from_walsh(fwht(tt)), shots,
                               np.random.default_rng(seed))
    assert export_histogram_csv(hist) == reference_indexed_csv("count", hist.counts)
    assert json.loads(export_histogram_json(hist))["counts"] == [int(c) for c in hist.counts]
