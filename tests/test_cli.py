"""End-to-end CLI behavior: commands, piping, exit codes, determinism."""

import io
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bentspectra import TruthTable, is_bent
from bentspectra.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = REPO_ROOT / "reference_outputs"


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return invoke


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_affine_k9(run):
    code, out, err = run(["gen", "--kind", "affine", "--n", "4", "--k", "9", "--c", "0"])
    assert code == 0
    table = out.strip()
    expected = "".join(str((x & 1) ^ ((x >> 3) & 1)) for x in range(16))
    assert table == expected


def test_gen_constant_and_ip_bent(run):
    assert run(["gen", "--kind", "constant", "--n", "2", "--c", "1"])[1].strip() == "1111"
    code, out, _ = run(["gen", "--kind", "ip-bent", "--n", "4"])
    assert code == 0
    assert is_bent(TruthTable.from_string(out.strip()))


def test_gen_seeded_kinds_deterministic_and_sound(run):
    for kind in ("random", "mm-bent", "shuffle-bent"):
        first = run(["gen", "--kind", kind, "--n", "4", "--seed", "11"])
        second = run(["gen", "--kind", kind, "--n", "4", "--seed", "11"])
        third = run(["gen", "--kind", kind, "--n", "4", "--seed", "12"])
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
        assert first[1] != third[1]
    _, out, _ = run(["gen", "--kind", "mm-bent", "--n", "6", "--seed", "3"])
    assert is_bent(TruthTable.from_string(out.strip()))
    _, out, _ = run(["gen", "--kind", "shuffle-bent", "--n", "4", "--seed", "3"])
    assert is_bent(TruthTable.from_string(out.strip()))


def test_gen_validation_errors(run):
    code, _, err = run(["gen", "--kind", "affine", "--n", "4"])
    assert code == 2 and "--k" in err
    code, _, err = run(["gen", "--kind", "ip-bent", "--n", "5"])
    assert code == 2 and "even" in err
    code, _, err = run(["gen", "--kind", "constant", "--n", "0"])
    assert code == 2


def test_usage_errors_exit_1(run):
    assert run(["bogus"])[0] == 1
    assert run(["gen", "--kind", "nope", "--n", "4"])[0] == 1
    assert run(["gen", "--kind", "random", "--n", "4", "--wat"])[0] == 1
    assert run([])[0] == 1


def test_arity_cap_env_var(run, monkeypatch):
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "4")
    code, _, err = run(["gen", "--kind", "constant", "--n", "5"])
    assert code == 2 and "cap" in err
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "99")  # clamped to 24
    assert run(["gen", "--kind", "constant", "--n", "5"])[0] == 0
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "many")
    assert run(["gen", "--kind", "constant", "--n", "5"])[0] == 2


def test_arity_cap_applies_to_plot_and_paper(run, monkeypatch, tmp_path):
    report = tmp_path / "r.csv"
    assert run(["dj", "--tt", "0" * 64, "--out", str(report)])[0] == 0
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "4")
    code, out, err = run(["plot", "--in", str(report)])
    assert code == 2 and out == "" and "cap" in err
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "3")
    code, _, err = run(["paper", "--out", str(tmp_path / "scenarios")])
    assert code == 2 and "cap" in err
    assert not (tmp_path / "scenarios").exists()


def test_bad_arity_cap_rejected_by_plot(run, monkeypatch):
    _, report, _ = run(["dj", "--tt", "0001"])
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "abc")
    code, out, err = run(["plot", "--tt", report])
    assert code == 2 and out == "" and "BENTSPECTRA_MAX_N" in err


def test_soft_arity_warning(run):
    code, out, err = run(["gen", "--kind", "constant", "--n", "21"])
    assert code == 0
    assert "soft limit" in err
    assert len(out.strip()) == (1 << 21) // 4  # hex form


# ---------------------------------------------------------------------------
# walsh / classify / dj / sample
# ---------------------------------------------------------------------------


def test_walsh_from_stdin(run):
    code, out, _ = run(["walsh"], stdin="0001\n")
    assert code == 0
    assert out == "p,walsh\n0,2\n1,2\n2,2\n3,-2\n"


def test_classify_json_output(run):
    code, out, _ = run(["classify", "--tt", "0001000100011110"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["is_bent"] is True
    assert obj["nonlinearity"] == 6


def test_dj_report_formats(run, tmp_path):
    code, out, _ = run(["dj", "--tt", "0000"])
    assert code == 0
    assert out.splitlines()[1] == "0,4,1,1"

    out_file = tmp_path / "report.json"
    code, _, _ = run(["dj", "--tt", "0000", "--format", "json", "--out", str(out_file)])
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["classification"]["is_constant"] is True
    assert obj["generator"] == "inline"


def test_dj_hex_disambiguation(run):
    # 16 hex chars with --n 6 is a 64-entry table, not a binary one
    code, out, _ = run(["dj", "--tt", "0110100110010110", "--n", "6"])
    assert code == 0
    assert len(out.splitlines()) == 65


def test_sample_counts(run):
    code, out, _ = run(["sample", "--tt", "0101010110101010", "--shots", "500",
                        "--seed", "3"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(int(r[1]) for r in rows) == 500
    assert int(rows[9][1]) == 500  # monochromatic at k = 9

    code, out, _ = run(["sample", "--tt", "0001", "--shots", "100", "--seed", "1",
                        "--format", "json"])
    obj = json.loads(out)
    assert obj["shots"] == 100 and sum(obj["counts"]) == 100


def test_malformed_table_exit_2(run):
    code, _, err = run(["walsh", "--tt", "01x0"])
    assert code == 2 and "error:" in err


def test_file_input(run, tmp_path):
    table = tmp_path / "f.txt"
    table.write_text("0001\n")
    code, out, _ = run(["classify", "--in", str(table)])
    assert code == 0 and json.loads(out)["is_bent"] is True
    code, _, err = run(["classify", "--in", str(table), "--tt", "0001"])
    assert code == 2


def _assert_file_error(result):
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_input_file_exit_2(run, tmp_path):
    _assert_file_error(run(["dj", "--in", str(tmp_path / "missing")]))


def test_directory_input_exit_2(run, tmp_path):
    _assert_file_error(run(["sample", "--in", str(tmp_path)]))


def test_paper_out_existing_file_exit_2(run, tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    _assert_file_error(run(["paper", "--out", str(target)]))


# ---------------------------------------------------------------------------
# plot / verify
# ---------------------------------------------------------------------------


def test_plot_ascii_from_dj_csv(run):
    _, report, _ = run(["dj", "--tt", "0001000100011110"])
    code, out, _ = run(["plot", "--column", "probability"], stdin=report)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17  # title + 16 bars
    assert all(line.endswith("#" * 60) for line in lines[1:])


def test_plot_svg_from_dj_json(run):
    _, report, _ = run(["dj", "--tt", "0101010110101010", "--format", "json"])
    code, out, _ = run(["plot", "--format", "svg", "--title", "k9"], stdin=report)
    assert code == 0
    root = ET.fromstring(out)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 16
    assert sum(1 for r in rects if float(r.get("height")) > 0) == 1


def test_plot_walsh_column(run):
    _, report, _ = run(["dj", "--tt", "0001"])
    code, out, _ = run(["plot", "--column", "walsh"], stdin=report)
    assert code == 0
    assert len(out.splitlines()) == 5


def _bent_report(run, fmt):
    return run(["dj", "--tt", "0001000100011110", "--format", fmt])[1]


def _csv_with_row(run, row):
    lines = _bent_report(run, "csv").splitlines()
    lines[3] = row
    return "\n".join(lines)


def _json_with(run, edit):
    obj = json.loads(_bent_report(run, "json"))
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("make_report", [
    lambda run: _csv_with_row(run, "2,4,0.25"),
    lambda run: _csv_with_row(run, "2,4,0.25,0.0625,9"),
    lambda run: _json_with(run, lambda o: o.pop("classification")),
    lambda run: _json_with(run, lambda o: o.__setitem__("n", None)),
    lambda run: _json_with(run, lambda o: o["rows"][1].__setitem__("amplitude", -0.25)),
    lambda run: _json_with(run, lambda o: o["classification"].__setitem__("is_bent", False)),
], ids=["csv-short-row", "csv-long-row", "json-no-classification", "json-null-n",
        "json-amplitude-contradicts-walsh", "json-classification-contradicts-walsh"])
def test_plot_malformed_report_exit_2(run, make_report):
    code, out, err = run(["plot", "--tt", make_report(run)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_inline_and_random(run):
    code, out, _ = run(["verify", "--tt", "0001000100011110"])
    assert code == 0 and "OK" in out
    code, out, _ = run(["verify", "--random", "20", "--n", "6", "--seed", "9"])
    assert code == 0 and "20 table(s)" in out


def test_verify_requires_n_with_random(run):
    assert run(["verify", "--random", "5"])[0] == 2


def test_verify_route_mismatch_exits_3(run, monkeypatch):
    import numpy as np

    import bentspectra.cli as cli_mod
    from bentspectra import Amplitudes

    def broken(tt):
        amps = np.zeros(1 << tt.n)
        amps[0] = 1.0
        return Amplitudes(tt.n, amps)

    monkeypatch.setattr(cli_mod.djsim, "simulate_circuit", broken)
    code, out, err = run(["verify", "--tt", "0001000100011110"])
    assert code == 3
    assert "FAIL" in out and "disagree" in err


# ---------------------------------------------------------------------------
# paper scenario suite
# ---------------------------------------------------------------------------


def test_paper_writes_eight_files(run, tmp_path):
    outdir = tmp_path / "scenarios"
    start = time.perf_counter()
    code, out, _ = run(["paper", "--out", str(outdir)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [
        "arbitrary_random.csv",
        "arbitrary_random.svg",
        "ip_bent.csv",
        "ip_bent.svg",
        "linear_k9.csv",
        "linear_k9.svg",
        "shuffle_bent.csv",
        "shuffle_bent.svg",
    ]
    # scenario soundness: the bent runs are flat, the linear run is a delta
    ip_rows = (outdir / "ip_bent.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "0.0625" for row in ip_rows)
    shuffle_rows = (outdir / "shuffle_bent.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "0.0625" for row in shuffle_rows)
    linear = [r.split(",")[3] for r in (outdir / "linear_k9.csv").read_text().splitlines()[1:]]
    assert linear[9] == "1" and set(linear) == {"0", "1"}
    for svg in outdir.glob("*.svg"):
        ET.parse(svg)


def test_paper_deterministic_across_runs(run, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["paper", "--out", str(a)])[0] == 0
    assert run(["paper", "--out", str(b)])[0] == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_paper_matches_committed_reference(run, tmp_path):
    assert REFERENCE_DIR.is_dir(), "reference_outputs/ missing from the repository"
    outdir = tmp_path / "fresh"
    assert run(["paper", "--out", str(outdir)])[0] == 0
    for reference in sorted(REFERENCE_DIR.iterdir()):
        assert (outdir / reference.name).read_bytes() == reference.read_bytes()


# ---------------------------------------------------------------------------
# real pipes
# ---------------------------------------------------------------------------


def test_pipeline_through_subprocesses():
    gen = subprocess.run(
        [sys.executable, "-m", "bentspectra", "gen", "--kind", "ip-bent", "--n", "4"],
        capture_output=True, text=True, check=True,
    )
    dj = subprocess.run(
        [sys.executable, "-m", "bentspectra", "dj"],
        input=gen.stdout, capture_output=True, text=True, check=True,
    )
    plot = subprocess.run(
        [sys.executable, "-m", "bentspectra", "plot", "--format", "svg"],
        input=dj.stdout, capture_output=True, text=True, check=True,
    )
    root = ET.fromstring(plot.stdout)
    assert len([e for e in root.iter() if e.tag.endswith("rect")]) == 16
