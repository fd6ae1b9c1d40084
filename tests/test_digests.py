"""The output contract: the sha256 of every command's output over a grid of tables.

``tests/digests.json`` maps each run of the grid to its exit code and the
sha256 of its stdout and stderr (for ``paper``, of stdout and the eight files).
The grid runs every command on every generator kind at n in {1, 4, 9, 16}
(the plots of a JSON report up to n = 9), plus ``dj`` (CSV and JSON) and
``plot --format svg`` at n = 20 on one random and one mm-bent table, all
through ``cli.main`` in one process.  ``gen`` and ``sample`` pin numpy's
generator streams, so the file records the numpy version it was made with.
A changed digest is a behaviour change.

To rewrite the file after an intended change, run this module as a script:

    PYTHONPATH=src python tests/test_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from bentspectra import cli

DIGESTS = Path(__file__).resolve().parent / "digests.json"

KINDS = ("constant", "affine", "ip-bent", "mm-bent", "random", "shuffle-bent")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _gen_args(kind: str, n: int) -> list[str]:
    args = ["gen", "--kind", kind, "--n", str(n)]
    if kind == "constant":
        args += ["--c", "1"]
    elif kind == "affine":
        args += ["--k", str((2 << n) // 3 % (1 << n)), "--c", "1"]
    elif kind == "shuffle-bent" and n > 4:
        args += ["--max-iters", "4"]  # a flat spectrum is out of a shuffle's reach
    return args + ["--seed", "3"]


def _table_runs(name: str, table: str, n: int) -> dict[str, list[str]]:
    """The runs on one table; a ``{dj csv}`` / ``{dj json}`` entry is that run's stdout."""
    runs = {
        "walsh": ["walsh", "--tt", table],
        "classify": ["classify", "--tt", table],
        "dj csv": ["dj", "--tt", table],
        "dj json": ["dj", "--tt", table, "--format", "json"],
        "sample csv": ["sample", "--tt", table, "--shots", "1000", "--seed", "7"],
        "sample json": ["sample", "--tt", table, "--shots", "1000", "--seed", "7",
                        "--format", "json"],
        "verify": ["verify", "--tt", table],
        "plot csv ascii": ["plot", "--tt", "{dj csv}"],
        "plot csv svg": ["plot", "--tt", "{dj csv}", "--format", "svg"],
        "plot json svg walsh": ["plot", "--tt", "{dj json}", "--format", "svg",
                                "--column", "walsh", "--title", f"{name} <{n}>"],
        "plot json ascii amplitude": ["plot", "--tt", "{dj json}", "--column", "amplitude"],
    }
    if n == 16:  # reading a JSON report costs 0.2 s at n = 16; the CSV plots stay
        return {key: argv for key, argv in runs.items() if not key.startswith("plot json")}
    if n == 20:
        return {key: runs[key] for key in ("dj csv", "dj json", "plot csv svg")}
    return runs


def compute_digests() -> dict[str, dict]:
    """Run the grid through ``cli.main`` and return its entries by name."""
    entries: dict[str, dict] = {}

    def record(key: str, argv: list[str]) -> tuple[int, str]:
        code, out, err = _run(argv)
        entries[key] = {"exit": code, "stdout": _sha(out), "stderr": _sha(err)}
        return code, out

    tables = [(kind, n) for n in (1, 4, 9, 16) for kind in KINDS]
    tables += [("random", 20), ("mm-bent", 20)]
    for kind, n in tables:
        name = f"{kind} n={n}"
        code, out = record(f"{name}: gen", _gen_args(kind, n))
        if code:
            continue
        outputs = {}
        for run, argv in _table_runs(kind, out.strip(), n).items():
            argv = [outputs[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
            outputs[run] = record(f"{name}: {run}", argv)[1]
    for n in (1, 4, 9, 16):
        record(f"random tables n={n}: verify", ["verify", "--random", "20", "--n", str(n),
                                                "--seed", "2"])
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run(["paper", "--out", tmp])
        files = "".join(path.name + "\n" + path.read_text()
                        for path in sorted(Path(tmp).iterdir()))
        entries["paper"] = {"exit": code, "stdout": _sha(out.replace(tmp, "DIR")),
                            "stderr": _sha(err), "files": _sha(files)}
    return entries


def test_outputs_match_the_committed_digests(monkeypatch):
    monkeypatch.delenv("BENTSPECTRA_MAX_N", raising=False)
    committed = json.loads(DIGESTS.read_text())
    fresh = compute_digests()
    changed = sorted(key for key in committed["digests"].keys() | fresh.keys()
                     if committed["digests"].get(key) != fresh.get(key))
    assert not changed, (
        f"{len(changed)} grid entries differ from {DIGESTS.name} (made with numpy "
        f"{committed['numpy']}, running {np.__version__}): {changed[:10]}"
    )


if __name__ == "__main__":
    os.environ.pop("BENTSPECTRA_MAX_N", None)
    grid = {"numpy": np.__version__, "digests": compute_digests()}
    DIGESTS.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(grid['digests'])} digests to {DIGESTS}")
