"""End-to-end CLI behavior: commands, piping, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentspectra import (
    TruthTable,
    amplitudes_direct,
    amplitudes_from_walsh,
    boolfn,
    cli,
    djsim,
    fwht,
    is_bent,
    random_function,
    simulate_circuit,
    simulate_with_ancilla,
    spectra,
)
from bentspectra.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = REPO_ROOT / "reference_outputs"


@pytest.fixture
def run(monkeypatch, capsys):
    def invoke(argv, stdin=None):
        if stdin is not None:
            # a text file over bytes, with the binary buffer a real stdin has
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
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
    code, out, err = run(["gen", "--kind", "mm-bent", "--n", "5"])
    assert code == 2 and out == ""
    assert err == "error: bent constructions need an even arity, got n = 5\n"
    code, _, err = run(["gen", "--kind", "constant", "--n", "0"])
    assert code == 2


def test_gen_shuffle_bent_budget_errors(run):
    for budget in ("5000", "0"):
        code, out, err = run(["gen", "--kind", "shuffle-bent", "--n", "6", "--max-iters", budget])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["walsh", "classify"])
def test_usage_error_cuts_an_echoed_argument(run, command):
    code, out, err = run([command, "--n", "7" * 100_000])
    assert code == 1 and out == "" and len(err) < 300
    assert err.endswith(f"bentspectra {command}: error: argument --n: invalid int value: "
                        f"'{'7' * 126}...\n")
    code, out, err = run([command, "--n", "x"])  # a short message is left whole
    assert code == 1 and out == ""
    assert err.endswith(f"bentspectra {command}: error: argument --n: invalid int value: 'x'\n")


def test_bad_arity_cap_rejected_by_plot(run, monkeypatch):
    _, report, _ = run(["dj", "--tt", "0001"])
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "abc")
    code, out, err = run(["plot", "--tt", report])
    assert code == 2 and out == "" and "BENTSPECTRA_MAX_N" in err


def test_error_lines_cap_long_values(run, monkeypatch):
    long = [0] * 100_000
    report = json.loads(run(["dj", "--tt", "0001", "--format", "json"])[1])
    cases = [
        ["classify", "--tt", json.dumps({"n": 2, "tt": long})],
        ["classify", "--tt", json.dumps({"n": long, "tt": "0110"})],
        ["classify", "--tt", json.dumps({"n": 10**4000, "tt": "0110"})],
        ["gen", "--kind", "constant", "--n", str(10**4000)],
        ["plot", "--tt", json.dumps({**report, "n": 10**4000})],
        ["plot", "--tt", "x" * 100_000 + "\n0,2,1,1\n1,0,0,0\n"],
    ]
    cases += [["plot", "--tt", json.dumps({**report, key: long})]
              for key in ("n", "seed", "generator")]
    for argv in cases:
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200, err[:80]
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "x" * 100_000)
    code, _, err = run(["gen", "--kind", "constant", "--n", "2"])
    assert code == 2 and err.startswith("error: BENTSPECTRA_MAX_N") and len(err) < 200


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


def test_sample_largest_shot_count_is_quick(run):
    start = time.perf_counter()
    code, out, _ = run(["sample", "--tt", "0110", "--shots", str((1 << 63) - 1)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out == f"p,count\n0,0\n1,0\n2,0\n3,{(1 << 63) - 1}\n"


@pytest.mark.parametrize("shots", [-1, 1 << 63, 10**40])
def test_sample_shots_outside_int64_exit_2(run, shots):
    code, out, err = run(["sample", "--tt", "0110", "--shots", str(shots)])
    assert (code, out) == (2, "")
    assert err == f"error: shots must be in [0, 2^63 - 1], got {shots}\n"


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


def test_plot_and_dj_echo_a_missing_input_file_as_given(run, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name in ("./missing", ".//missing"):
        outcome = run(["plot", "--in", name])
        assert outcome == run(["dj", "--in", name])
        assert outcome == (2, "", f"error: [Errno 2] No such file or directory: '{name}'\n")


def test_directory_input_exit_2(run, tmp_path):
    _assert_file_error(run(["sample", "--in", str(tmp_path)]))


@pytest.mark.parametrize("argv, message", [
    (["walsh", "--in", ""], "[Errno 2] No such file or directory: ''"),
    (["dj", "--in", "", "--format", "json"], "[Errno 2] No such file or directory: ''"),
    (["plot", "--in", ""], "[Errno 2] No such file or directory: ''"),
    (["gen", "--kind", "constant", "--n", "2", "--out", ""],
     "[Errno 2] No such file or directory: ''"),
    (["dj", "--tt", "0110", "--out", ""], "[Errno 2] No such file or directory: ''"),
    (["verify", "--random", "1", "--n", "2", "--in", ""],
     "give at most one of --random, --tt and --in"),
])
def test_an_empty_file_name_is_given_not_stdin_or_stdout(run, monkeypatch, tmp_path, argv,
                                                          message):
    monkeypatch.chdir(tmp_path)
    report = run(["dj", "--tt", "0110"])[1]  # a stdin that every reading command accepts
    stdin = report if "plot" in argv else "0110\n"
    assert run(argv, stdin=stdin) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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


def _refuse_to_read(monkeypatch):
    def parse(*args):
        raise AssertionError("plot parsed the rows of an over-cap report")

    for name in ("_walsh_fields", "_read_csv", "_read_json"):
        monkeypatch.setattr(spectra, name, parse)


def test_plot_refuses_an_over_cap_csv_before_reading_it(run, monkeypatch, tmp_path):
    report = tmp_path / "r.csv"
    assert run(["dj", "--tt", "01" * 256, "--out", str(report)])[0] == 0
    _refuse_to_read(monkeypatch)
    code, out, err = run(["plot", "--in", str(report)])
    assert (code, out, err) == (2, "", "error: ascii rendering is capped at 256 bars\n")
    # not an export as it stands, so the stripped text's commas meet the caps
    code, out, err = run(["plot"], stdin=report.read_text().replace("\n", "\r\n"))
    assert (code, out, err) == (2, "", "error: ascii rendering is capped at 256 bars\n")
    rows = "p,walsh,amplitude,probability\n" + "0,0,0,0\n" * (1 << 21)  # invalid, too
    code, out, err = run(["plot", "--format", "svg"], stdin=rows)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "warning: n = 21 exceeds the soft limit of 20; expect large outputs and slow transforms",
        "error: svg rendering is capped at 1048576 bars",
    ]
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "8")
    code, _, err = run(["plot", "--in", str(report), "--format", "svg"])
    assert code == 2 and err == "error: n = 9 is outside the configured cap [1, 8]\n"


def _plot_of_text(run, path, args):
    """``plot`` of the file as ``Path.read_text`` reads it: its text by ``--tt``, or the decode error."""
    try:
        text = path.read_text(encoding="utf-8")
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    return run(["plot", "--tt", text, *args])


@pytest.mark.parametrize("args", [[], ["--format", "svg"]])
def test_plot_in_reads_every_file_as_its_text(run, tmp_path, args):
    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    assert run(["dj", "--tt", "0001000100011110", "--out", str(small)])[0] == 0
    assert run(["dj", "--tt", "01" * 256, "--out", str(big)])[0] == 0
    json_text = run(["dj", "--tt", "0110", "--format", "json"])[1].encode()
    # a generator of commas that makes the comma count read as 2^10 CSV rows, past
    # the ascii cap, so only the JSON test keeps this report from being refused
    commas = spectra.export_json(spectra.make_report(TruthTable(2, [0, 1, 1, 0]), ",")).count(",")
    wide_json = spectra.export_json(spectra.make_report(
        TruthTable(2, [0, 1, 1, 0]), "," * (3 * 1025 - commas + 1))).encode()
    csv, lines = small.read_bytes(), small.read_bytes().split(b"\n")
    e_acutes = lines[1].split(b",")
    e_acutes[1] = "\u00e9".encode() * 4  # a walsh field of 8 non-ASCII bytes
    variants = {
        "export": csv,
        "crlf": csv.replace(b"\n", b"\r\n"),
        "lone-cr": b"\n".join(lines[:3]) + b"\r" + b"\n".join(lines[3:]),
        "not-utf8": csv.replace(b"walsh", b"w\xe9lsh"),
        "trailing-0xff": csv + b"\xff",
        "non-ascii-walsh": b"\n".join([lines[0], b",".join(e_acutes), *lines[2:]]),
        "over-cap": big.read_bytes(),
        "over-cap-crlf": big.read_bytes().replace(b"\n", b"\r\n"),
        "json-after-x1c": b"\x1c\x1f " + json_text,
        "wide-json-after-x1c": b"\x1c\x1f " + wide_json,
    }
    outcomes = {}
    for name, data in variants.items():
        path = tmp_path / name
        path.write_bytes(data)
        outcomes[name] = run(["plot", "--in", str(path), *args])
        assert outcomes[name] == _plot_of_text(run, path, args), name
    # universal newlines make a CRLF export the export itself
    assert outcomes["crlf"] == outcomes["export"] and outcomes["export"][0] == 0
    assert outcomes["lone-cr"][0] == outcomes["json-after-x1c"][0] == 0
    assert outcomes["wide-json-after-x1c"][0] == 0
    assert outcomes["not-utf8"][0] == outcomes["trailing-0xff"][0] == 2
    assert outcomes["over-cap"] == outcomes["over-cap-crlf"]
    if not args:
        assert outcomes["over-cap"] == (2, "", "error: ascii rendering is capped at 256 bars\n")


def test_plot_in_reads_a_crlf_export_without_the_field_parse(run, monkeypatch, tmp_path):
    def field_parse(lines):
        raise AssertionError("a CRLF export reached the field-by-field reader")

    report = tmp_path / "r.csv"
    assert run(["dj", "--tt", "0001000100011110", "--out", str(report)])[0] == 0
    report.write_bytes(report.read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.setattr(spectra, "_read_csv", field_parse)
    assert run(["plot", "--in", str(report)])[0] == 0


def test_plot_memory_from_an_export_csv_is_its_bytes_and_int32_positions(run, tmp_path):
    table, report, svg = tmp_path / "f.tt", tmp_path / "r.csv", tmp_path / "p.svg"
    table.write_text(random_function(18, np.random.default_rng(18)).text() + "\n")
    assert run(["dj", "--in", str(table), "--out", str(report)])[0] == 0
    argv = ["plot", "--in", str(report), "--format", "svg", "--out", str(svg)]
    assert run(argv)[0] == 0  # warm
    tracemalloc.start()
    try:
        assert run(argv)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is read in pieces and never held: the peak is W and its int32
    # distinct index, with a block of the export as text and bytes and the
    # file's next bytes (2.86 MiB measured for a 13.6 MiB file).  22.9 MiB when
    # the reader held the file's bytes and int32 comma positions, 46.7 MiB when
    # it held the text, its ASCII copy, a file-sized comma mask and int64 positions
    bound = 2 * 4 * (1 << 18) + (1 << 20)
    assert peak <= bound, (peak, bound)


def _export_file(path, n):
    report = spectra.make_report(random_function(n, np.random.default_rng(n)))
    path.write_bytes(spectra.export_csv(report).encode())
    return report


def test_plot_refuses_an_over_cap_export_holding_one_piece(run, monkeypatch, tmp_path):
    path = tmp_path / "r.csv"
    _export_file(path, 14)  # 0.8 MB
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "10")
    argv = ["plot", "--in", str(path), "--format", "svg"]
    run(argv)  # warm
    tracemalloc.start()
    try:
        outcome = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == (2, "", "error: n = 14 is outside the configured cap [1, 10]\n")
    bound = spectra._SCAN_BYTES + (256 << 10)
    assert peak <= bound, (peak, bound)


@contextlib.contextmanager
def _piped_stdin(monkeypatch, data: bytes):
    """stdin as a text file over a pipe that a writer thread fills with ``data``."""
    read, write = os.pipe()

    def fill():
        with open(write, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    with io.TextIOWrapper(open(read, "rb")) as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        yield
    writer.join(timeout=60)
    assert not writer.is_alive()


def _traced_peak(call):
    """The outcome of ``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plot_memory_refusing_an_over_cap_export_through_a_pipe_is_one_piece(run, monkeypatch):
    data = spectra.export_csv(
        spectra.make_report(random_function(14, np.random.default_rng(14)))).encode()
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "10")
    argv = ["plot", "--format", "svg"]
    for _ in range(2):  # warm, then measured
        with _piped_stdin(monkeypatch, data):
            outcome, peak = _traced_peak(lambda: run(argv))
    # the pipe is copied in pieces to a temporary file, whose header and last
    # row meet the caps; 1.50 MB when stdin was read whole as text
    assert outcome == (2, "", "error: n = 14 is outside the configured cap [1, 10]\n")
    bound = spectra._SCAN_BYTES + (256 << 10)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("piped", [True, False], ids=["pipe", "file"])
def test_plot_memory_from_an_export_through_stdin_is_its_int32_columns(run, monkeypatch,
                                                                       tmp_path, piped):
    report, svg = tmp_path / "r.csv", tmp_path / "p.svg"
    _export_file(report, 18)
    data = report.read_bytes()
    argv = ["plot", "--format", "svg", "--out", str(svg)]
    expected = run(argv + ["--in", str(report)])
    expected_svg = svg.read_bytes()
    for _ in range(2):  # warm, then measured
        with contextlib.ExitStack() as stack:
            if piped:
                stack.enter_context(_piped_stdin(monkeypatch, data))
            else:
                monkeypatch.setattr(sys, "stdin", stack.enter_context(report.open()))
            outcome, peak = _traced_peak(lambda: run(argv))
    assert outcome == expected and svg.read_bytes() == expected_svg
    # the bound of the same export read by --in; 31.4 MB when stdin was read whole
    bound = 2 * 4 * (1 << 18) + (1 << 20)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("prefix", [b"", b"junk\n"])
def test_plot_reads_a_stdin_file_from_its_offset(run, monkeypatch, tmp_path, prefix):
    # as ``(python -c 'import os; os.lseek(0, 30, 0)'; bentspectra plot) < r.csv``
    # hands plot a stdin whose first 30 bytes were read elsewhere
    path = tmp_path / "r.csv"
    path.write_bytes(prefix + spectra.export_csv(spectra.make_report(
        random_function(4, np.random.default_rng(4)))).encode())
    offset = len(prefix) or len(spectra._CSV_HEADER) + 1
    with path.open() as stdin:
        os.lseek(stdin.fileno(), offset, os.SEEK_SET)
        monkeypatch.setattr(sys, "stdin", stdin)
        outcome = run(["plot"])
    assert outcome == run(["plot", "--tt", path.read_bytes()[offset:].decode()])
    if prefix:
        assert outcome[0] == 0
    else:
        assert outcome[0] == 2 and outcome[2].startswith("error: unexpected report header: ")


def test_plot_memory_refusing_an_over_cap_export_without_its_final_newline_is_one_piece(
        run, monkeypatch, tmp_path):
    path = tmp_path / "r.csv"
    _export_file(path, 14)
    path.write_bytes(path.read_bytes()[:-1])  # as ``--tt "$(cat r.csv)"`` gives it
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "10")
    argv = ["plot", "--in", str(path), "--format", "svg"]
    run(argv)  # warm
    tracemalloc.start()
    try:
        outcome = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the caps meet the row count before the missing newline sends the file on
    assert outcome == (2, "", "error: n = 14 is outside the configured cap [1, 10]\n")
    bound = spectra._SCAN_BYTES + (256 << 10)
    assert peak <= bound, (peak, bound)


def test_plot_in_reads_an_export_edited_or_cut_at_a_piece_seam_as_its_text(run, monkeypatch,
                                                                          tmp_path):
    path = tmp_path / "r.csv"
    report = _export_file(path, 14)
    data = path.read_bytes()
    head = len(spectra._CSV_HEADER) + 1  # the pieces start after the header line
    row = data.rindex(b"\n", 0, head + spectra._SCAN_BYTES) + 1  # the row the first seam cuts
    walsh = data.index(b",", row) + 1
    # pieces of 2^18 bytes, and pieces whose first seam cuts that row's walsh field
    for scan in (spectra._SCAN_BYTES, walsh + 1 - head):
        monkeypatch.setattr(spectra, "_SCAN_BYTES", scan)
        path.write_bytes(data)
        with path.open("rb") as fh:
            assert spectra._canonical_csv(fh) == report
        for seam in range(head + scan, len(data), scan):
            row = data.rindex(b"\n", 0, seam) + 1
            end = data.index(b",", data.index(b",", row) + 1)  # its walsh field's last digit
            digit = b"1" if data[end - 1:end] == b"0" else b"0"
            for variant in (data[:end - 1] + digit + data[end:], data[:seam]):
                path.write_bytes(variant)
                with path.open("rb") as fh:
                    assert spectra._canonical_csv(fh) is None
                outcome = run(["plot", "--in", str(path), "--format", "svg"])
                assert outcome == run(["plot", "--tt", variant.decode(), "--format", "svg"])
                assert outcome[0] == 2, (scan, seam)


def test_plot_reads_a_json_or_within_cap_report_in_full(run, monkeypatch):
    reads = []
    for name in ("_walsh_fields", "_read_json"):
        monkeypatch.setattr(spectra, name, lambda *args, name=name, parse=getattr(spectra, name):
                            reads.append(name) or parse(*args))
    _, csv, _ = run(["dj", "--tt", "0" * 512])
    _, json_text, _ = run(["dj", "--tt", "0" * 512, "--format", "json"])
    assert run(["plot", "--format", "svg", "--tt", csv])[0] == 0
    assert run(["plot", "--tt", json_text]) == (
        2, "", "error: ascii rendering is capped at 256 bars\n")
    assert reads == ["_walsh_fields", "_read_json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_plot_in_reads_a_fifo_as_its_text(run, tmp_path):
    small, big, fifo = tmp_path / "small.csv", tmp_path / "big.csv", tmp_path / "fifo"
    assert run(["dj", "--tt", "0001000100011110", "--out", str(small)])[0] == 0
    assert run(["dj", "--tt", "01" * 256, "--out", str(big)])[0] == 0
    os.mkfifo(fifo)
    texts = {"export": small.read_text(), "crlf": small.read_text().replace("\n", "\r\n"),
             "over-cap": big.read_text()}
    outcomes = {}
    for name, text in texts.items():
        writer = threading.Thread(target=fifo.write_bytes, args=(text.encode(),), daemon=True)
        writer.start()
        outcomes[name] = run(["plot", "--in", str(fifo)])
        writer.join(timeout=60)
        assert not writer.is_alive(), name
        assert outcomes[name] == run(["plot", "--tt", text]), name
    assert outcomes["export"] == outcomes["crlf"] and outcomes["export"][0] == 0
    assert outcomes["over-cap"] == (2, "", "error: ascii rendering is capped at 256 bars\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_plot_memory_refusing_an_over_cap_export_in_a_fifo_is_one_piece(run, monkeypatch,
                                                                       tmp_path):
    path, fifo = tmp_path / "r.csv", tmp_path / "fifo"
    _export_file(path, 14)
    data = path.read_bytes()
    os.mkfifo(fifo)
    monkeypatch.setenv("BENTSPECTRA_MAX_N", "10")
    for _ in range(2):  # warm, then measured
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        outcome, peak = _traced_peak(lambda: run(["plot", "--in", str(fifo), "--format", "svg"]))
        writer.join(timeout=60)
        assert not writer.is_alive()
    # copied in pieces and refused from the copy's last row, as a regular file is
    assert outcome == (2, "", "error: n = 14 is outside the configured cap [1, 10]\n")
    bound = spectra._SCAN_BYTES + (256 << 10)
    assert peak <= bound, (peak, bound)


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


def test_plot_svg_of_generator_with_control_char_is_well_formed(run):
    report = _json_with(run, lambda o: o.__setitem__("generator", "bad\u0001name"))
    code, out, err = run(["plot", "--format", "svg", "--tt", report])
    assert code == 0 and err == ""
    root = ET.fromstring(out)
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert texts == ["bad\ufffdname: probability"]


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


@pytest.mark.parametrize("command, text", [
    ("classify", '{"n": null, "tt": "0110"}'),
    ("classify", '{"n": [2], "tt": "0110"}'),
    ("classify", '{"n": 1e400, "tt": "0110"}'),
    ("classify", '{"n": 2.9, "tt": "0110"}'),
    ("classify", '{"n": true, "tt": "01"}'),
    ("classify", '{"n": 2, "tt": 6}'),
    ("classify", '{"n": 2, "tt": ' + "[" * 100_000),
    ("plot", '{"n": ' + "[" * 100_000),
], ids=["null-n", "list-n", "overflow-n", "float-n", "bool-n", "int-tt", "deep-table",
        "deep-report"])
def test_mistyped_or_deep_json_exit_2(run, command, text):
    code, out, err = run([command, "--tt", text])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_with_null_generator_exit_2(run):
    report = _json_with(run, lambda o: o.__setitem__("generator", None))
    code, out, err = run(["plot", "--tt", report])
    assert code == 2 and out == ""
    assert err == "error: JSON report generator must be a string, got None\n"


def test_csv_reader_error_independent_of_hash_seed(tmp_path):
    report = tmp_path / "xy.csv"
    report.write_text("p,walsh,amplitude,probability\n0,0,0,0\n1,x,0,0\n2,y,0,0\n3,0,0,0\n")
    for seed in range(1, 7):
        result = subprocess.run(
            [sys.executable, "-m", "bentspectra", "plot", "--in", str(report)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == "error: invalid literal for int() with base 10: 'x'\n", seed


def test_verify_inline_and_random(run):
    code, out, _ = run(["verify", "--tt", "0001000100011110"])
    assert code == 0 and "OK" in out
    code, out, _ = run(["verify", "--random", "20", "--n", "6", "--seed", "9"])
    assert code == 0 and "20 table(s)" in out


def test_verify_requires_n_with_random(run):
    assert run(["verify", "--random", "5"])[0] == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_random_needs_a_positive_count(run, count):
    code, out, err = run(["verify", "--random", count, "--n", "4"])
    assert code == 2 and out == ""
    assert err == f"error: --random needs a positive count, got {count}\n"


@pytest.mark.parametrize("source", [["--tt", "0110"], ["--in", "table.txt"]], ids=["tt", "in"])
def test_verify_random_refuses_a_given_table(run, source):
    code, out, err = run(["verify", "--random", "3", "--n", "4", *source])
    assert code == 2 and out == ""
    assert err == "error: give at most one of --random, --tt and --in\n"


def _broken_circuit(real, broken_call, column):
    """``djsim._circuit_columns`` with |0...0> in one column of one call."""
    calls = []

    def circuit(n, bits):
        amps = real(n, bits)
        calls.append(bits.shape[1])
        if len(calls) == broken_call:
            amps[:, column] = 0.0
            amps[0, column] = 1.0
        return amps

    return circuit, calls


def _e0_deviation(tt):
    """Largest |e0 - psi| of a table and the first outcome where it occurs."""
    dev = np.abs(amplitudes_direct(tt).amps - np.eye(1 << tt.n)[0])
    p = int(dev.argmax())
    return dev[p], p


def test_verify_route_mismatch_exits_3(run, monkeypatch):
    circuit, calls = _broken_circuit(djsim._circuit_columns, 1, 0)
    monkeypatch.setattr(djsim, "_circuit_columns", circuit)
    code, out, err = run(["verify", "--tt", "0001000100011110"])
    assert code == 3 and calls == [1]
    dev, p = _e0_deviation(TruthTable.from_string("0001000100011110"))
    assert out == f"verified 1 table(s) at n=4: max route deviation {dev:.3e} (FAIL)\n"
    assert err == (
        "error: amplitude routes disagree beyond tolerance: circuit route off "
        f"the literal sum by {dev:.3e} on table 0 at p={p}\n"
    )


def test_verify_random_block_mismatch_names_table_and_outcome(run, monkeypatch):
    monkeypatch.setattr(boolfn, "_BLOCK_ENTRIES", 64)  # 4 tables of n=4
    circuit, calls = _broken_circuit(djsim._circuit_columns, 2, 1)
    monkeypatch.setattr(djsim, "_circuit_columns", circuit)
    code, out, err = run(["verify", "--random", "10", "--n", "4", "--seed", "3"])
    assert code == 3 and calls == [4, 4, 2]
    rng = np.random.default_rng(3)
    dev, p = _e0_deviation([random_function(4, rng) for _ in range(6)][5])
    assert out == f"verified 10 table(s) at n=4: max route deviation {dev:.3e} (FAIL)\n"
    assert err == (
        "error: amplitude routes disagree beyond tolerance: circuit route off "
        f"the literal sum by {dev:.3e} on table 5 at p={p}\n"
    )


def _route_fault_line(run, argv):
    """The one stderr line of a ``verify`` run that must end as a route fault (exit 3)."""
    code, out, err = run(["verify", *argv])
    assert (code, out) == (3, "") and err.count("\n") == 1
    return err


def test_verify_route_constant_off_in_its_14th_digit_is_a_route_fault(run, monkeypatch):
    # the circuit route's deviation would pass the tolerance; its norm does not
    monkeypatch.setattr(djsim, "_SQRT1_2", djsim._SQRT1_2 * (1 + 4e-14))
    err = _route_fault_line(run, ["--random", "4", "--n", "8"])
    assert re.fullmatch(r"error: circuit route amplitudes are not normalized on table 0: "
                        r"off the literal sum by \d\.\d{3}e-1[34] at p=\d+\n", err), err


@pytest.mark.parametrize("argv, call, p, table", [
    (["--tt", "0001000100011110"], 1, 0, 0),
    (["--random", "10", "--n", "4", "--seed", "3"], 2, 11, 5),  # column 1 of the second block
])
def test_verify_unnormalized_circuit_column_names_its_table_and_p(run, monkeypatch, argv, call,
                                                                  p, table):
    monkeypatch.setattr(boolfn, "_BLOCK_ENTRIES", 64)  # 4 tables of n=4
    real, calls = djsim._circuit_columns, []

    def circuit(n, bits):
        amps = real(n, bits)
        calls.append(bits.shape[1])
        if len(calls) == call:
            amps[p, table % 4] += 1e-9
        return amps

    monkeypatch.setattr(djsim, "_circuit_columns", circuit)
    assert _route_fault_line(run, argv) == (
        f"error: circuit route amplitudes are not normalized on table {table}: "
        f"off the literal sum by 1.000e-09 at p={p}\n"
    )


@pytest.mark.parametrize("argv, table", [
    (["--tt", "0001000100011110"], 0),
    (["--random", "4", "--n", "8", "--seed", "1"], 2),  # column 2 of one block
])
def test_verify_ancilla_route_with_one_sign_flipped_is_a_route_fault(run, monkeypatch, argv,
                                                                      table):
    # a flipped sign keeps the norm, so the deviation from the literal sum must name it
    real, flipped = djsim._ancilla_columns, []

    def ancilla(n, bits):
        amps = real(n, bits)
        p = int(np.abs(amps[:, table]).argmax())  # the largest |W(p)|, never 0
        amps[p, table] *= -1
        flipped.append((p, 2 * abs(amps[p, table])))
        return amps

    monkeypatch.setattr(djsim, "_ancilla_columns", ancilla)
    code, out, err = run(["verify", *argv])
    [(p, dev)] = flipped
    assert code == 3 and out.endswith(f"max route deviation {dev:.3e} (FAIL)\n")
    assert err == ("error: amplitude routes disagree beyond tolerance: ancilla route off "
                   f"the literal sum by {dev:.3e} on table {table} at p={p}\n")


def test_verify_walsh_route_failing_parseval_is_a_route_fault(run, monkeypatch):
    real = djsim._fwht_columns
    monkeypatch.setattr(djsim, "_fwht_columns", lambda bits: 3 * real(bits))
    # a bent table: every |W| = 4 becomes 12, within range and parity
    assert _route_fault_line(run, ["--tt", "0001000100011110"]) == (
        "error: walsh route coefficient squares must sum to 4^n (Parseval) on table 0: "
        "off the literal sum by 5.000e-01 at p=0\n"
    )


def test_verify_literal_sum_failing_parseval_is_a_route_fault(run, monkeypatch):
    real = djsim._naive_columns
    monkeypatch.setattr(djsim, "_naive_columns", lambda n, bits: 3 * real(n, bits))
    # a bent table: every |W| = 4 becomes 12, within range and parity
    assert _route_fault_line(run, ["--tt", "0001000100011110"]) == (
        "error: literal sum route coefficient squares must sum to 4^n (Parseval) on table 0\n"
    )


def _fault_in_first_hadamard_block(monkeypatch, chosen, faulty):
    """Patch ``boolfn._levels`` so that ``faulty(a, pair, t)`` replaces the levels of the
    first Hadamard block ``a`` for which ``chosen(a)`` holds; return the blocks it hit."""
    real, lock, hit = boolfn._levels, threading.Lock(), []

    def levels(a, pair, t):
        with lock:
            fault = not hit and pair is djsim._hadamard_pair and chosen(a)
            if fault:
                hit.append(a.shape)
        (faulty if fault else real)(a, pair, t)

    monkeypatch.setattr(boolfn, "_levels", levels)
    return real, hit


def test_verify_butterfly_skipping_level_1_in_one_block_is_a_route_fault(run, monkeypatch):
    def without_level_1(a, pair, t):
        calls = iter(range(a.shape[0]))
        real(a, lambda x, y, t: next(calls) and pair(x, y, t), t)  # the first call is level 1

    real, hit = _fault_in_first_hadamard_block(monkeypatch, lambda a: True, without_level_1)
    code, out, err = run(["verify", "--random", "4", "--n", "8", "--seed", "1"])
    assert (code, len(hit)) == (3, 1) and out.endswith("(FAIL)\n")
    assert err == ("error: amplitude routes disagree beyond tolerance: circuit route off "
                   "the literal sum by 3.689e-01 on table 1 at p=149\n")


def test_verify_worker_dropping_its_first_block_is_a_route_fault(run, monkeypatch):
    # blocks of 2^18 entries make the n = 12 block 64 tables, which the passes
    # split into several column blocks; they run threaded once 2^10 entries do
    monkeypatch.setattr(boolfn, "_BLOCK_ENTRIES", 1 << 18)
    monkeypatch.setattr(boolfn, "_THREAD_ENTRIES", 1 << 10)
    monkeypatch.setattr(boolfn, "_WORKERS", 3)
    _, hit = _fault_in_first_hadamard_block(
        monkeypatch, lambda a: threading.current_thread() is not threading.main_thread(),
        lambda a, pair, t: None)
    code, out, err = run(["verify", "--random", "64", "--n", "12", "--seed", "1"])
    assert (code, len(hit)) == (3, 1) and out.endswith("(FAIL)\n")
    assert err.startswith("error: amplitude routes disagree beyond tolerance: circuit route off "
                          "the literal sum by "), err


def reference_route_deviation(tt):
    """The per-table route check ``verify`` made before it ran blocks."""
    direct = amplitudes_direct(tt).amps
    routes = (
        amplitudes_from_walsh(fwht(tt)).amps,
        simulate_circuit(tt).amps,
        simulate_with_ancilla(tt).amps,
    )
    return max(float(np.abs(r - direct).max()) for r in routes)


def reference_verify_stdout(n, seed, counts):
    """``verify --random COUNT`` stdout for each count, one table at a time."""
    rng = np.random.default_rng(seed)
    devs = [reference_route_deviation(random_function(n, rng)) for _ in range(max(counts))]
    out = {}
    for count in counts:
        deviation = max(devs[:count])
        status = "OK" if deviation < cli.ROUTE_TOLERANCE else "FAIL"
        out[count] = (f"verified {count} table(s) at n={n}: "
                      f"max route deviation {deviation:.3e} ({status})\n")
    return out


def _check_verify_stdout(run, n, seeds, counts):
    for seed in seeds:
        expected = reference_verify_stdout(n, seed, counts)
        for count in counts:
            argv = ["verify", "--random", str(count), "--n", str(n), "--seed", str(seed)]
            assert run(argv) == (0, expected[count], "")


@pytest.mark.parametrize("n", range(1, 13))
def test_verify_blocks_match_per_table_reference(run, monkeypatch, n):
    # blocks of 2^10 entries keep the per-table reference fast at small n
    monkeypatch.setattr(boolfn, "_BLOCK_ENTRIES", 1 << 10)
    block = max(1, (1 << 10) >> n)
    _check_verify_stdout(run, n, range(3), sorted({1, block, block + 1, 3 * block}))


@pytest.mark.parametrize("n, count", [(8, 1025), (12, 8)])
def test_verify_default_blocks_match_per_table_reference(run, n, count):
    _check_verify_stdout(run, n, [0], [count])


def test_verify_memory_depends_on_n_not_count(run):
    n = 6
    block = boolfn._BLOCK_ENTRIES >> n
    run(["verify", "--random", "1", "--n", str(n)])  # builds the cached matrix
    peaks = []
    for count in (block, 4 * block):
        tracemalloc.start()
        try:
            assert run(["verify", "--random", str(count), "--n", str(n)])[0] == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a block's routes hold megabytes; nothing of a finished block may stay
    # behind, not even its uint8 table block of _BLOCK_ENTRIES bytes
    assert peaks[1] - peaks[0] < boolfn._BLOCK_ENTRIES // 2, peaks


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_verify_random_memory_is_one_block_at_every_n(run, n):
    argv = ["verify", "--random", str(4 * boolfn._tables_per_block(n)), "--n", str(n)]
    run(["verify", "--random", "1", "--n", str(n)])  # builds the cached factors
    tracemalloc.start()
    try:
        assert run(argv)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of 2^16 entries: its table, W, the ancilla halves and one
    # worker's buffers (2.13 MiB measured at every n; 6.81 MiB with 2^18)
    assert peak <= 2.25 * (1 << 20), peak


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


# dj's 2^14 rows are written long after the pipe closes; verify's one line waits
# in stdout's buffer until the command ends
@pytest.mark.parametrize("command, lines", [("dj", 1), ("verify", 0)])
def test_closed_output_pipe_exits_141_quietly(tmp_path, command, lines):
    table = tmp_path / "f.tt"
    table.write_text(random_function(14, np.random.default_rng(14)).text() + "\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "bentspectra", command, "--in", str(table)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read()
    assert proc.returncode == 141 and err == b""


# as ``bentspectra walsh <&-`` or ``bentspectra gen ... >&-`` start Python
@pytest.mark.parametrize("stream, argv", [
    ("stdin", ["walsh"]),
    ("stdin", ["plot"]),
    ("stdin", ["dj", "--format", "json"]),
    ("stdout", ["gen", "--kind", "constant", "--n", "2"]),
    ("stdout", ["plot", "--tt", "p,walsh,amplitude,probability\n0,0,0,0\n1,2,1,1\n"]),
    ("stdout", ["verify", "--random", "1", "--n", "2"]),
    ("stdout", ["paper", "--out", "scenarios"]),
])
def test_a_closed_stdin_or_stdout_is_one_error_line(run, monkeypatch, tmp_path, stream, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, stream, None)
    assert run(argv) == (2, "", f"error: {stream} is closed\n")


def test_a_closed_stdout_is_not_needed_to_write_a_file(run, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdout", None)
    assert run(["gen", "--kind", "constant", "--n", "2", "--out", str(tmp_path / "f.tt")]) == (
        0, "", "")
    assert (tmp_path / "f.tt").read_text() == "0000\n"


_CLOSED_PIPE_CALLS = """
import os, sys
from bentspectra.cli import main
counts = []
for _ in range(3):
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, sys.stdout.fileno())
    os.close(write)
    assert main(["gen", "--kind", "constant", "--n", "2"]) == 141
    counts.append(len(os.listdir("/proc/self/fd")))
print(counts, file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_output_pipe_leaves_no_descriptor_open():
    # each call's stdout is a pipe whose reader has gone; main puts devnull in
    # its place, and the descriptor it opened for that must be closed again
    proc = subprocess.run([sys.executable, "-c", _CLOSED_PIPE_CALLS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stderr)
    assert len(counts) == 3 and len(set(counts)) == 1, counts


def test_second_main_call_builds_no_parser(run, monkeypatch):
    assert run(["gen", "--kind", "constant", "--n", "2"])[0] == 0
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run(["gen", "--kind", "constant", "--n", "2", "--c", "1"]) == (0, "1111\n", "")
    assert run(["gen", "--kind", "nope", "--n", "2"])[0] == 1
    assert built == []
    cli.build_parser()  # the count sees a build: the parser and its eight commands
    assert len(built) == 9


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("title", ["k9", "é"])
def test_svg_plot_is_ascii_under_the_c_locale(run, tmp_path, title):
    report = tmp_path / "report.csv"
    run(["dj", "--tt", "0001000100011110", "--out", str(report)])
    argv = ["plot", "--format", "svg", "--title", title, "--in", str(report)]
    plot = subprocess.run(
        [sys.executable, "-m", "bentspectra", *argv], capture_output=True,
        env={**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    )
    assert plot.returncode == 0 and plot.stderr == b""
    # the C locale decodes argv as ASCII, each other byte to a lone surrogate
    argv[4] = os.fsencode(title).decode("ascii", "surrogateescape")
    assert plot.stdout.decode("ascii") == run(argv)[1]


def test_every_source_reads_as_utf8_under_the_c_locale(run, tmp_path):
    def bentspectra(*argv, stdin=b""):
        proc = subprocess.run(
            [sys.executable, "-m", "bentspectra", *argv], input=stdin, capture_output=True,
            env={**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        )
        return proc.returncode, proc.stdout, proc.stderr

    report = tmp_path / "r.json"
    text = spectra.export_json(spectra.make_report(TruthTable(2, [0, 1, 1, 0]), "\u00e9"))
    report.write_bytes(text.replace("\\u00e9", "\u00e9").encode())  # a raw UTF-8 generator
    argv = ["plot", "--format", "svg", "--in", str(report)]
    code, out, err = bentspectra(*argv)
    assert (code, err) == (0, b"") and out.decode("ascii") == run(argv)[1]
    table = tmp_path / "f.tt"
    table.write_bytes(b"0001\xff")
    outcomes = {bentspectra("walsh", "--in", str(table)), bentspectra("walsh", stdin=b"0001\xff"),
                bentspectra(b"walsh", b"--tt", b"0001\xff")}
    assert outcomes == {(2, b"", b"error: 'utf-8' codec can't decode byte 0xff in position 4: "
                                 b"invalid start byte\n")}


# ---------------------------------------------------------------------------
# argv fuzzing
# ---------------------------------------------------------------------------


def _subcommands():
    """Each subcommand's parser, from the CLI's own parser; ``paper`` writes files, so not it."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return {name: p for name, p in action.choices.items() if name != "paper"}


_SUBCOMMANDS = _subcommands()


@st.composite
def _artefacts(draw):
    """A valid table, CSV report or JSON report at n <= 4, and whether it is JSON."""
    n = draw(st.integers(1, 4))
    tt = TruthTable.from_int(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    kind = draw(st.sampled_from(["binary", "hex", "table-json", "csv", "report-json"]))
    if kind == "binary" or kind == "hex" and n == 1:  # a hex table needs 4 entries
        return tt.to_binary(), False
    if kind == "hex":
        return tt.to_hex(), False
    if kind == "table-json":
        return tt.to_json(), True
    report = spectra.make_report(tt, generator=draw(st.sampled_from(["", "g", "inline"])))
    if kind == "csv":
        return spectra.export_csv(report), False
    return spectra.export_json(report), True


@st.composite
def _mutated_texts(draw):
    text, is_json = draw(_artefacts())
    mutation = draw(st.sampled_from(
        ["none", "truncate", "flip", "crlf", "bom", "respell"]
        + (["nest", "bool", "reorder"] if is_json else [])))
    if mutation == "truncate":
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    elif mutation == "flip" and text:
        raw = bytearray(text.encode("latin-1"))
        raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
        text = raw.decode("latin-1")
    elif mutation == "crlf":
        text = text.replace("\n", "\r\n")
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation in ("respell", "bool"):
        numbers = list(re.finditer(r"-?\d+(\.\d+)?(e-?\d+)?", text))
        if numbers:
            m = draw(st.sampled_from(numbers))
            word = m.group()
            spellings = (["true", "false"] if mutation == "bool" else
                         [f"+{word}", f"{word}.0", f"{word[0]}_{word[1:]}", "inf", "-inf",
                          "nan", "1_0", "1.0", "+1", " 1"])
            text = text[: m.start()] + draw(st.sampled_from(spellings)) + text[m.end():]
    elif mutation == "nest":
        depth = draw(st.sampled_from([1, 2, 100_000]))
        text = "[" * depth + text + "]" * depth
    elif mutation == "reorder":
        obj = json.loads(text)
        text = json.dumps(dict(reversed(list(obj.items()))))
    return text


@st.composite
def _argvs(draw):
    """argv of one subcommand, options and choices drawn from its parser, and a stdin text."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [name]
    for action in _SUBCOMMANDS[name]._actions:
        if not action.option_strings or action.dest in ("help", "infile", "out"):
            continue  # --tt carries the texts, so no file is read or written
        if not (action.required or draw(st.booleans())):
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.dest == "tt":
            value = draw(_mutated_texts())
        elif action.type is int:
            value = draw(st.integers(-2, 6))
        else:
            value = draw(st.text(max_size=8))
        argv += [action.option_strings[-1], str(value)]
    junk = draw(st.sampled_from([None] * 7 + ["--bogus", "x", "--n"]))
    argv += [junk] if junk else []
    return argv, draw(_mutated_texts())


@settings(max_examples=120, deadline=None)
@given(case=_argvs(), cap=st.sampled_from([None, "1", "2", "4", "30", "-3", "x", ""]))
def test_fuzzed_argv_exits_cleanly(case, cap):
    argv, stdin = case
    env = {} if cap is None else {"BENTSPECTRA_MAX_N": cap}
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()))  # with a binary buffer, as a real one
    with mock.patch.dict(os.environ, env), mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if cap is None:
            os.environ.pop("BENTSPECTRA_MAX_N", None)
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning:")]
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
