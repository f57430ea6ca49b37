"""The smoke runner of ``scripts/smoke.py`` on rows built here: it must fail a
row that exits wrongly, prints the wrong output, peaks over its RSS bound or
outlives its timeout, and read each child's own peak, not the largest so far.
And the names that the ``traced-bench`` row needs: every per-layer metric of
``BENCHMARK.json`` names a function or method that the library defines.

Linux starts a child's peak RSS at its parent's, so the rows run from a fresh
interpreter, as in ``scripts/smoke.py``, and not from this test process."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_rows():
    sys.path.insert(0, str(ROOT / "scripts"))
    from smoke import Row, prints, run_row

    allocate = ["-c", "block = b'x' * (50 * 2**20)"]
    assert run_row("passes", Row(["-c", "print('yes')"], 10, check=prints("yes")), None)
    assert not run_row("wrong-exit", Row(["-c", "pass"], 10, exit=3), None)
    assert not run_row("wrong-output", Row(["-c", "print('no')"], 10, check=prints("yes")), None)
    assert not run_row("over-rss", Row(allocate, 10, rss_mb=10), None)
    assert run_row("under-rss", Row(allocate, 10, rss_mb=200), None)
    # after a 50 MB child, a small one is read at its own peak
    assert run_row("small", Row(["-c", "pass"], 10, rss_mb=40), None)
    start = time.perf_counter()
    assert not run_row("timeout", Row(["-c", "import time; time.sleep(30)"], 1), None)
    assert time.perf_counter() - start < 5


def test_runner_fails_a_wrong_exit_output_rss_or_timeout():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, __file__], capture_output=True, encoding="utf-8",
                            env=env, timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    # a failing row's line is followed by the end of its stdout
    assert [line.split(": ")[0] for line in lines] == [
        "passes", "wrong-exit", "wrong-output", "no", "over-rss", "under-rss", "small", "timeout"]
    assert lines[1].endswith("expected exit 3")
    assert lines[2].endswith("output check failed")
    assert lines[4].endswith("peak RSS not under 10 MB")
    assert lines[7].endswith("killed after its 1 s timeout")


def test_every_traced_name_is_defined():
    """The benchmark's tracer wraps a module-level function where its module
    defines it, and a method only from its class body (``vars(cls)``); a
    name it cannot find is an absent metric, which only the ``traced-bench``
    smoke would report.  ``Permutation.mul`` and ``init`` are its names for
    ``__mul__`` and ``__init__``."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    dunders = {"Permutation.mul": "__mul__", "Permutation.init": "__init__"}
    missing = []
    for metric in per_layer:
        module, *path, _stat = metric["name"].split(".")
        if module == "bench":
            continue
        namespace = vars(importlib.import_module(f"hypertope.{module}"))
        if len(path) == 1:
            fn = namespace.get(path[0])
            defined = inspect.isfunction(fn) and fn.__module__ == f"hypertope.{module}"
        else:
            cls = namespace.get(path[0])
            defined = (inspect.isclass(cls)
                       and dunders.get(".".join(path), path[1]) in vars(cls))
        if not defined:
            missing.append(metric["name"])
    assert not missing, missing


if __name__ == "__main__":
    run_rows()
