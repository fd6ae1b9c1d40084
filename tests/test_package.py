"""Package-wide properties: what importing it loads, and the syntax floor of its source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# stacks the package never calls; pathlib loads urllib.parse, so urllib itself is allowed
_UNUSED_STACKS = ("xml", "http", "email", "ssl", "socket", "urllib.request")


def _modules_after(imports: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after ``import <imports>``."""
    code = f"import sys, json\nimport {imports}\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return set(json.loads(result.stdout))


def test_import_loads_no_unused_stdlib_stack():
    baseline = _modules_after("numpy, json, argparse, pathlib, dataclasses, re")
    added = _modules_after("bentspectra.cli") - baseline
    unused = sorted(m for m in added
                    if any(m == s or m.startswith(s + ".") for s in _UNUSED_STACKS))
    assert "bentspectra.cli" in added
    assert unused == []


def test_source_parses_at_the_declared_python_floor():
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
