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

Tables are read from --tt, --in or stdin in the standard text format, so
commands compose through pipes: ``bentspectra gen --kind ip-bent --n 4 |
bentspectra dj | bentspectra plot``.

Exit codes: 0 success, 1 usage error, 2 validation or file error, 3
internal invariant violation.  The env var BENTSPECTRA_MAX_N lowers the
arity cap of every command (values above 24 are clamped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
        self.exit(1, f"{self.prog}: error: {message}\n")


def _arity_cap() -> int:
    raw = os.environ.get("BENTSPECTRA_MAX_N")
    if raw is None:
        return boolfn.MAX_ARITY
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BENTSPECTRA_MAX_N must be an integer, got {raw!r}")
    return max(1, min(cap, boolfn.MAX_ARITY))


def _check_arity(n: int, cap: int) -> int:
    if not 1 <= n <= cap:
        raise ValueError(f"n = {n} is outside the configured cap [1, {cap}]")
    if n > SOFT_ARITY_WARNING:
        print(
            f"warning: n = {n} exceeds the soft limit of {SOFT_ARITY_WARNING}; "
            "expect large outputs and slow transforms",
            file=sys.stderr,
        )
    return n


def _read_input(args) -> tuple[str, str]:
    """Text and name of the single input source: --tt, --in, or stdin."""
    if args.tt is not None and args.infile:
        raise ValueError("give at most one of --tt and --in")
    if args.tt is not None:
        return args.tt, "inline"
    if args.infile:
        return Path(args.infile).read_text(), args.infile
    return sys.stdin.read(), "stdin"


def _read_table(args, cap: int) -> tuple[TruthTable, str]:
    text, source = _read_input(args)
    tt = TruthTable.from_string(text, n=args.n)
    _check_arity(tt.n, cap)
    return tt, source


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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


def _cmd_gen(args, cap: int) -> int:
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
        if n % 2:
            raise ValueError(f"--kind mm-bent needs an even n, got {n}")
        half = n // 2
        tt = boolfn.make_mm_bent(
            half, rng.permutation(1 << half), boolfn.random_function(half, rng)
        )
    elif args.kind == "random":
        tt = boolfn.random_function(n, rng)
    else:  # shuffle-bent
        result = boolfn.shuffle_search_bent(n, rng, args.max_iters)
        if result.table is None:
            raise ValueError(
                f"no bent function found after {result.iterations} shuffles"
            )
        tt = result.table
    _write(tt.text() + "\n", args.out)
    return 0


def _cmd_walsh(args, cap: int) -> int:
    tt, _ = _read_table(args, cap)
    _write(spectra.export_walsh_csv(walsh.fwht(tt)), args.out)
    return 0


def _cmd_classify(args, cap: int) -> int:
    tt, _ = _read_table(args, cap)
    result = walsh.classify(walsh.fwht(tt))
    _write(json.dumps({"n": tt.n, **result.as_dict()}, indent=2) + "\n", args.out)
    return 0


def _cmd_dj(args, cap: int) -> int:
    tt, source = _read_table(args, cap)
    report = spectra.make_report(tt, generator=source)
    text = spectra.export_csv(report) if args.format == "csv" else spectra.export_json(report)
    _write(text, args.out)
    return 0


def _cmd_sample(args, cap: int) -> int:
    tt, _ = _read_table(args, cap)
    if args.shots < 0:
        raise ValueError(f"--shots must be non-negative, got {args.shots}")
    amps = djsim.amplitudes_from_walsh(walsh.fwht(tt))
    hist = djsim.sample_measurements(amps, args.shots, np.random.default_rng(args.seed))
    if args.format == "csv":
        _write(spectra.export_histogram_csv(hist), args.out)
    else:
        _write(spectra.export_histogram_json(hist, seed=args.seed), args.out)
    return 0


def _cmd_plot(args, cap: int) -> int:
    report = spectra.read_report(_read_input(args)[0])
    _check_arity(report.n, cap)
    values = {
        "walsh": report.walsh,
        "amplitude": report.amplitudes,
        "probability": report.probabilities,
    }[args.column]
    title = args.title
    if title is None:
        title = f"{report.generator}: {args.column}" if report.generator else args.column
    _write(spectra.render_bars(values, title, args.format), args.out)
    return 0


#: Table entries ``verify`` runs at once: blocks of max(1, 2^18 / 2^n) tables,
#: so its memory depends on n and not on the --random COUNT.
_VERIFY_BLOCK_ENTRIES = 1 << 18


def _cmd_verify(args, cap: int) -> int:
    cap = min(cap, walsh.NAIVE_MAX_N)  # the literal-sum route bounds the arity
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random needs a positive count, got {args.random}")
        if args.n is None:
            raise ValueError("--random requires --n")
        n = _check_arity(args.n, cap)
        count = args.random
        rng = np.random.default_rng(args.seed)
        per_block = max(1, _VERIFY_BLOCK_ENTRIES >> n)
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
    status = "OK" if ok else "FAIL"
    print(
        f"verified {count} table(s) at n={n}: "
        f"max route deviation {deviation:.3e} ({status})"
    )
    if not ok:
        print(
            "error: amplitude routes disagree beyond tolerance: "
            f"{route} route off the literal sum by {deviation:.3e} "
            f"on table {table} at p={p}",
            file=sys.stderr,
        )
        return 3
    return 0


def _scenario_tables() -> list[tuple[str, str, TruthTable, int | None]]:
    """(file stem, description, table, seed) for the four reference runs."""
    scenarios: list[tuple[str, str, TruthTable, int | None]] = [
        ("linear_k9", "affine n=4 k=9 c=0", boolfn.make_affine(4, 9, 0), None),
        ("ip_bent", "ip-bent n=4", boolfn.make_inner_product_bent(4), None),
    ]

    seed = SCENARIO_RANDOM_SEED
    tt = boolfn.random_function(4, np.random.default_rng(seed))
    while walsh.is_bent(tt):  # vanishingly unlikely; keeps the scenario non-bent
        seed += 1
        tt = boolfn.random_function(4, np.random.default_rng(seed))
    scenarios.insert(1, ("arbitrary_random", f"random n=4 seed={seed}", tt, seed))

    result = boolfn.shuffle_search_bent(
        4, np.random.default_rng(SCENARIO_SHUFFLE_SEED), 100_000
    )
    assert result.table is not None
    scenarios.append(
        (
            "shuffle_bent",
            f"shuffle-bent n=4 seed={SCENARIO_SHUFFLE_SEED} iters={result.iterations}",
            result.table,
            SCENARIO_SHUFFLE_SEED,
        )
    )
    return scenarios


def _cmd_paper(args, cap: int) -> int:
    scenarios = _scenario_tables()
    for _, _, tt, _ in scenarios:
        _check_arity(tt.n, cap)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for stem, description, tt, seed in scenarios:
        report = spectra.make_report(tt, generator=description, seed=seed)
        csv_path = outdir / f"{stem}.csv"
        svg_path = outdir / f"{stem}.svg"
        csv_path.write_text(spectra.export_csv(report))
        svg_path.write_text(
            spectra.render_bars(
                report.probabilities, f"{description}: probability", "svg"
            )
        )
        print(f"wrote {csv_path} and {svg_path}")
    return 0


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args, _arity_cap())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
