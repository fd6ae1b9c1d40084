"""One benchmark job, run in a fresh interpreter by run.py.

Usage: python3 job.py '<json spec>'

The spec names the workload, job index, job seed, table kind, mode
(``plain``, ``spans`` or ``memory``), the tree root and a work directory.
The job imports ``bentspectra`` from the tree's ``src/``, runs the timed
calls between two timings of the benchmark's calibration loops, records
peak RSS, then checks the outputs and writes
``result.json`` (and ``spans.json`` in a traced mode) to its directory.
The monotonic clock is shared with the parent, which started it, so the
parent can measure set-up from spawn to ``ready``.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    workdir = Path(spec["dir"])
    result = {"index": spec["index"], "kind": spec["kind"], "mode": spec["mode"], "ok": False}
    try:
        sys.path.insert(0, str(root / "src"))
        import bentspectra as bs
        from bentspectra import cli

        src = (root / "src").resolve()
        if not Path(bs.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"bentspectra imported from {bs.__file__}, not under {src}")

        import workloads

        tracer = None
        if spec["mode"] != "plain":
            import tracing

            tracer = tracing.Tracer(memory=spec["mode"] == "memory")
            tracing.install(tracer)
            traced_main = {}

            def cli_main(argv):
                cmd = argv[0]
                if cmd not in traced_main:
                    traced_main[cmd] = tracer.wrap(f"cli.{cmd}", cli.main)
                return traced_main[cmd](argv)
        else:
            cli_main = cli.main

        workload, seed, kind = spec["workload"], spec["seed"], spec["kind"]
        bits = workloads.kernels_input(seed, kind) if workload == "kernels" else None
        result["ready"] = time.monotonic()
        calibration = workloads.calibration_s()

        start = time.perf_counter()
        if workload == "kernels":
            out = workloads.kernels(bits, bs)
        else:
            out = getattr(workloads, workload)(seed, kind, workdir, cli_main)
        result["job_s"] = time.perf_counter() - start
        result["t0"] = start  # spans share this clock
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["calibration_s"] = calibration + workloads.calibration_s()

        if tracer is not None:
            (workdir / "spans.json").write_text(json.dumps(tracer.export(spec["index"])))
            tracing.tracemalloc.stop()

        import checks

        if workload == "kernels":
            errors, props = checks.check_kernels(kind, bits, out)
        else:
            errors, props = getattr(checks, f"check_{workload}")(kind, out)
        result.update(errors=errors, props=props, ok=not errors)
    except Exception:
        result["errors"] = [traceback.format_exc()]
    finally:
        (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
