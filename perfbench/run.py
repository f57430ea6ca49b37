#!/usr/bin/env python3
"""The hypertope benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {corpus,ladder-a,ladder-b} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/hypertope``).
Work runs in ``worker.py`` processes, one at a time.

``--trace 0`` times set-up alone (interpreter start, ``import hypertope``,
building and parsing the workload's documents) in SETUP_PROBES processes,
about half before the measuring process and half after it, and gives the
measuring process the rest of ``--seconds`` for its untraced passes.  Every
time is scaled to the reference speed of ``refclock``: the machine's own
speed drifts by up to 1.5x over tens of seconds, and the scaling takes most
of that drift out.  ``setup_s`` is the median over the set-up samples; the
other times are medians over passes (see ``worker.py``); ``peak_rss_mb`` is
the measuring process's peak RSS.

``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics of the traced one; spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object; lines above it print
every metric by name with its unit.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import REF_NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "ladder-a", "ladder-b")
SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, mode: str, deadline: float,
            arg: str | None = None) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if arg is not None:
        cmd.append(arg)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0  # both clocks are CLOCK_MONOTONIC
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the data at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _probe(workload: str, seed: int, deadline: float) -> float:
    """Set-up time of one process, scaled by the reference kernel around it."""
    before = reference_s()
    setup = _worker(workload, seed, "setup", deadline)["setup_s"]
    return setup * REF_NOMINAL_S / ((before + reference_s()) / 2)


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    t_start = time.perf_counter()
    setups = [_probe(args.workload, args.seed, deadline)
              for _ in range(SETUP_PROBES // 2)]
    # leave as much time again for the set-up probes after the passes
    probes_s = time.perf_counter() - t_start
    budget = max(0.0, args.seconds - 2 * probes_s - 1.0)
    m = _worker(args.workload, args.seed, "measure", deadline, str(budget))
    setups += [_probe(args.workload, args.seed, deadline)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    if not m["decide_ms"]:
        raise BenchError("no instance was decided")
    instance_ms = list(m["decide_ms"].values())
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": m["wall_s"],
        "decide_s": m["decide_s"],
        "peak_rss_mb": m["rss_mb"],
    }
    notes = [
        f"passes: {m['passes']}; decide rounds: {m['rounds']}; "
        f"set-up samples: {len(setups)}",
        f"raw wall_s (unscaled, median pass): {m['raw_wall_s']:.4f} s",
        f"decide_p50_ms: {percentile(instance_ms, 0.5):.4f} ms, "
        f"decide_p90_ms: {percentile(instance_ms, 0.9):.4f} ms, "
        f"over {len(instance_ms)} instances, each its median of {m['rounds']} rounds",
        f"oracle_s: {m['oracle_s']:.4f} s",
        f"failed_share: {m['failed'] / m['attempted'] if m['attempted'] else 1.0:.4f} "
        f"({m['failed']} of {m['attempted']})",
    ]
    return values, m, notes


def per_layer(args, deadline: float, names: list[str]) -> tuple[dict, dict, list[str]]:
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    plain = _worker(args.workload, args.seed, "measure", deadline, "0")
    traced = _worker(args.workload, args.seed, "trace", deadline, str(spans))
    layers = traced["layers"]
    layers["bench.trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    values = {name: layers[name] for name in names if name in layers}
    absent = [name for name in names if name not in layers]
    notes = [
        f"trace overhead: traced wall_s {traced['wall_s']:.3f} s / "
        f"untraced wall_s {plain['wall_s']:.3f} s",
        f"spans: {traced['spans']} written to {spans.relative_to(ROOT)}, "
        f"{traced['dropped_spans']} dropped past the cap",
    ]
    if absent:
        notes.append("absent (no such function at this commit): " + ", ".join(absent))
    plain["errors"] += traced["errors"]
    if traced["verdicts"] != plain["verdicts"]:
        plain["errors"].append("traced verdicts differ from untraced ones")
    plain["attempted"] += traced["attempted"]
    plain["failed"] += traced["failed"] + (traced["verdicts"] != plain["verdicts"])
    return values, plain, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "hypertope" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'hypertope'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics_spec}

    try:
        if args.trace:
            values, out, notes = per_layer(args, deadline, list(units))
        else:
            values, out, notes = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors, attempted, failed = out["errors"], out["attempted"], out["failed"]
    for name, unit in units.items():
        shown = f"{values[name]:.6g} {unit}" if name in values else "absent"
        print(f"{args.workload}  {name}: {shown}")
    for note in notes:
        print(f"{args.workload}  {note}")
    for err in errors:
        print(f"{args.workload}  FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
