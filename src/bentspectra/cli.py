"""Command-line frontend.

Commands::

    gen       emit a truth table (constant | affine | ip-bent | mm-bent |
              random | shuffle-bent)
    walsh     Walsh spectrum of a table as CSV (p,walsh)
    classify  spectral classification as JSON
    dj        full spectrum report (walsh, amplitude, probability) as CSV/JSON
    sample    measurement histogram from repeated simulated runs
    plot      bar rendering of a report column as SVG or ASCII
    verify    cross-check the independent amplitude routes on given tables
    paper     write the four reference scenarios as CSV + SVG pairs

Tables and reports are read from --tt, --in or stdin, so commands compose
through pipes: ``bentspectra gen --kind ip-bent --n 4 | bentspectra dj |
bentspectra plot``.  Each source is a binary file (--tt is its argument's
own bytes), decoded once as strict UTF-8 whatever the locale.

Exit codes: 0 success, 1 usage error, 2 validation or file error, 3 a
``verify`` route that disagrees with the literal sum or fails its own value
check, 141 output pipe closed by its reader.  Commands fail by raising;
``main`` alone turns a failure into its one ``error:`` line and exit code.
The env var BENTSPECTRA_MAX_N lowers the arity cap of every command (values
above 24 are clamped).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import boolfn, djsim, spectra, walsh
from .boolfn import TruthTable

ROUTE_TOLERANCE = 1e-12
SOFT_ARITY_WARNING = 20

#: Fixed seeds for the `paper` scenario suite so its outputs are stable.
SCENARIO_RANDOM_SEED = 1
SCENARIO_SHUFFLE_SEED = 5


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit status 1 (2 is for validation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        if len(message) > 160:  # only an echoed argument makes it this long
            message = message[:160] + "..."
        self.exit(1, f"{self.prog}: error: {message}\n")


def _arity_cap() -> int:
    raw = os.environ.get("BENTSPECTRA_MAX_N")
    if raw is None:
        return boolfn.MAX_ARITY
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BENTSPECTRA_MAX_N must be an integer, got {boolfn._short_repr(raw)}")
    return max(1, min(cap, boolfn.MAX_ARITY))


def _check_arity(n: int, cap: int) -> int:
    if not 1 <= n <= cap:
        raise ValueError(f"n = {boolfn._short_repr(n)} is outside the configured cap [1, {cap}]")
    if n > SOFT_ARITY_WARNING:
        print(
            f"warning: n = {n} exceeds the soft limit of {SOFT_ARITY_WARNING}; "
            "expect large outputs and slow transforms",
            file=sys.stderr,
        )
    return n


@contextlib.contextmanager
def _read_input(args):
    """The single input source, a binary file, and its name: --tt, --in, or stdin.

    --tt is its argument's own bytes, --in the file, closed on exit, and stdin
    its binary buffer, left open.
    """
    if args.tt is not None and args.infile is not None:
        raise ValueError("give at most one of --tt and --in")
    if args.tt is not None:
        yield io.BytesIO(os.fsencode(args.tt)), "inline"
    elif args.infile is not None:
        with open(args.infile, "rb") as fh:  # not Path: Path('') is '.'
            yield fh, args.infile
    elif sys.stdin is None:  # the process started with it closed
        raise ValueError("stdin is closed")
    else:
        yield sys.stdin.buffer, "stdin"


def _read_table(args, cap: int) -> tuple[TruthTable, str]:
    with _read_input(args) as (source, name):
        tt = TruthTable.from_string(boolfn._read_text(source), n=args.n)
    _check_arity(tt.n, cap)
    return tt, name


def _write(blocks, out: str | Path | None) -> None:
    """Write the blocks of a text as they come, to ``out`` or to stdout, then flushed."""
    if out is not None:
        with open(out, "w") as fh:
            fh.writelines(blocks)
    elif sys.stdout is None:  # the process started with it closed
        raise ValueError("stdout is closed")
    else:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()  # inside main's closed-pipe guard and ahead of any error line


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tt", help="inline truth-table string (binary, hex, or JSON)")
    p.add_argument("--in", dest="infile", help="read the table from a file")
    p.add_argument("--n", type=int, help="arity, to disambiguate binary vs hex input")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bentspectra", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a truth table")
    p.add_argument(
        "--kind",
        required=True,
        choices=["constant", "affine", "ip-bent", "mm-bent", "random", "shuffle-bent"],
    )
    p.add_argument("--n", type=int, required=True, help="number of input bits")
    p.add_argument("--k", type=int, help="linear mask for --kind affine")
    p.add_argument("--c", type=int, default=0, choices=[0, 1], help="constant bit")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    p.add_argument("--max-iters", type=int, default=100_000,
                   help="shuffle-bent attempt budget")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("walsh", help="Walsh spectrum as CSV")
    _add_input_args(p)
    p.add_argument("--out")

    p = sub.add_parser("classify",
                       help="spectral classification as JSON")
    _add_input_args(p)
    p.add_argument("--out")

    p = sub.add_parser("dj", help="full spectrum report")
    _add_input_args(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("sample",
                       help="histogram of simulated measurements")
    _add_input_args(p)
    p.add_argument("--shots", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("plot",
                       help="render a report column as bars")
    p.add_argument("--tt", help="inline report text (CSV or JSON)")
    p.add_argument("--in", dest="infile", help="read the report from a file")
    p.add_argument("--column", choices=["walsh", "amplitude", "probability"],
                   default="probability")
    p.add_argument("--format", choices=["svg", "ascii"], default="ascii")
    p.add_argument("--title")
    p.add_argument("--out")

    p = sub.add_parser("verify",
                       help="cross-check the independent amplitude routes")
    _add_input_args(p)
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="verify COUNT random tables instead of reading one")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("paper",
                       help="write the four reference scenarios (8 files)")
    p.add_argument("--out", default="paper_scenarios", help="output directory")

    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------


def _cmd_gen(args, cap: int) -> None:
    n = _check_arity(args.n, cap)
    rng = np.random.default_rng(args.seed)
    if args.kind == "constant":
        tt = boolfn.make_constant(n, args.c)
    elif args.kind == "affine":
        if args.k is None:
            raise ValueError("--kind affine requires --k")
        tt = boolfn.make_affine(n, args.k, args.c)
    elif args.kind == "ip-bent":
        tt = boolfn.make_inner_product_bent(n)
    elif args.kind == "mm-bent":
        half = boolfn._check_even_arity(n) // 2
        tt = boolfn.make_mm_bent(
            half, rng.permutation(1 << half), boolfn.random_function(half, rng)
        )
    elif args.kind == "random":
        tt = boolfn.random_function(n, rng)
    else:  # shuffle-bent
        result = walsh.shuffle_search_bent(n, rng, args.max_iters)
        if result.table is None:
            raise ValueError(
                f"no bent function found after {result.iterations} shuffles"
            )
        tt = result.table
    _write([tt.text() + "\n"], args.out)


def _cmd_walsh(args, cap: int) -> None:
    tt, _ = _read_table(args, cap)
    _write(spectra._walsh_csv_blocks(walsh.fwht(tt)), args.out)


def _cmd_classify(args, cap: int) -> None:
    tt, _ = _read_table(args, cap)
    result = walsh.classify(walsh.fwht(tt))
    _write([json.dumps({"n": tt.n, **result.as_dict()}, indent=2) + "\n"], args.out)


def _cmd_dj(args, cap: int) -> None:
    tt, source = _read_table(args, cap)
    report = spectra.make_report(tt, generator=source)
    blocks = spectra._csv_blocks if args.format == "csv" else spectra._json_blocks
    _write(blocks(report), args.out)


def _cmd_sample(args, cap: int) -> None:
    # no name holds the table, and the amplitudes go before the writer runs,
    # so the histogram alone is alive while it is written
    amps = djsim.amplitudes_from_walsh(walsh.fwht(_read_table(args, cap)[0]))
    hist = djsim.sample_measurements(amps, args.shots, np.random.default_rng(args.seed))
    del amps
    if args.format == "csv":
        _write(spectra._histogram_csv_blocks(hist), args.out)
    else:
        _write(spectra._histogram_json_blocks(hist, seed=args.seed), args.out)


def _bars(report: spectra.SpectrumReport, column: str, fmt: str,
          title: str | None = None):
    """Text blocks of the bars of one report column, titled ``"{generator}: {column}"`` by default.

    The bars are keyed by the int32 W: each distinct W's column value is
    computed as the report computes it (W, W / 2^n or its square), so no
    float column of 2^n entries is built.
    """
    if title is None:
        title = f"{report.generator}: {column}" if report.generator else column
    scale = float(1 << report.n)
    value = {"walsh": float, "amplitude": lambda w: w / scale,
             "probability": lambda w: (w / scale) * (w / scale)}[column]
    return spectra._bar_blocks(report.walsh, title, fmt, value)


def _check_rows(cap: int, fmt: str, rows: int) -> None:
    """Refuse a CSV report of ``rows`` rows, a power of two, over the arity cap or the bar cap."""
    if rows >= 2 and not rows & (rows - 1):
        _check_arity(rows.bit_length() - 1, cap)
        spectra._check_bar_count(rows, fmt)


def _cmd_plot(args, cap: int) -> None:
    with _read_input(args) as (source, _):
        report = spectra._read_source(source, partial(_check_rows, cap, args.format))
    _check_arity(report.n, cap)
    _write(_bars(report, args.column, args.format, args.title), args.out)


def _cmd_verify(args, cap: int) -> None:
    if args.random is not None:
        if args.tt is not None or args.infile is not None:
            raise ValueError("give at most one of --random, --tt and --in")
        if args.random < 1:
            raise ValueError(f"--random needs a positive count, got {args.random}")
        if args.n is None:
            raise ValueError("--random requires --n")
        n = _check_arity(args.n, cap)
        count = args.random
        rng = np.random.default_rng(args.seed)
        per_block = boolfn._tables_per_block(n)
        blocks = (
            (first, boolfn._random_columns(n, min(per_block, count - first), rng))
            for first in range(0, count, per_block)
        )
    else:
        tt, _ = _read_table(args, cap)
        n, count = tt.n, 1
        blocks = [(0, tt.bits[:, None])]

    deviation, route, table, p = max(
        (djsim._worst_deviation(n, first, bits) for first, bits in blocks), key=lambda w: w[0]
    )
    ok = deviation < ROUTE_TOLERANCE
    _write([f"verified {count} table(s) at n={n}: "
            f"max route deviation {deviation:.3e} ({'OK' if ok else 'FAIL'})\n"], None)
    if not ok:
        raise djsim.RouteFault(
            "amplitude routes disagree beyond tolerance: "
            f"{route} route off the literal sum by {deviation:.3e} on table {table} at p={p}"
        )


def _scenario_tables() -> list[tuple[str, str, TruthTable, int | None]]:
    """(file stem, description, table, seed) for the four reference runs."""
    seed = SCENARIO_RANDOM_SEED
    result = walsh.shuffle_search_bent(4, np.random.default_rng(SCENARIO_SHUFFLE_SEED), 100_000)
    assert result.table is not None
    return [
        ("linear_k9", "affine n=4 k=9 c=0", boolfn.make_affine(4, 9, 0), None),
        ("arbitrary_random", f"random n=4 seed={seed}",
         boolfn.random_function(4, np.random.default_rng(seed)), seed),
        ("ip_bent", "ip-bent n=4", boolfn.make_inner_product_bent(4), None),
        ("shuffle_bent",
         f"shuffle-bent n=4 seed={SCENARIO_SHUFFLE_SEED} iters={result.iterations}",
         result.table, SCENARIO_SHUFFLE_SEED),
    ]


def _cmd_paper(args, cap: int) -> None:
    scenarios = _scenario_tables()
    for _, _, tt, _ in scenarios:
        _check_arity(tt.n, cap)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, description, tt, seed in scenarios:
        report = spectra.make_report(tt, generator=description, seed=seed)
        csv_path = outdir / f"{stem}.csv"
        svg_path = outdir / f"{stem}.svg"
        _write(spectra._csv_blocks(report), csv_path)
        _write(_bars(report, "probability", "svg"), svg_path)
        _write([f"wrote {csv_path} and {svg_path}\n"], None)


_COMMANDS = {
    "gen": _cmd_gen,
    "walsh": _cmd_walsh,
    "classify": _cmd_classify,
    "dj": _cmd_dj,
    "sample": _cmd_sample,
    "plot": _cmd_plot,
    "verify": _cmd_verify,
    "paper": _cmd_paper,
}
_parser = cache(build_parser)  # the one parser of the process, built by the first main call


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser, built by the first call, serves every later one."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _COMMANDS[args.command](args, _arity_cap())
        return 0
    except BrokenPipeError:  # an OSError, so it is caught first
        # the reader closed stdout early: print nothing, not even at exit, and
        # exit as a shell reports a process killed by SIGPIPE
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, djsim.RouteFault) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, djsim.RouteFault) else 2


if __name__ == "__main__":
    sys.exit(main())
