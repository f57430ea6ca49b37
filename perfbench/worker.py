"""One benchmark process: set up a workload, optionally measure it, print one
JSON line.

    python3 perfbench/worker.py <workload> <seed> setup
    python3 perfbench/worker.py <workload> <seed> measure <BUDGET_S>
    python3 perfbench/worker.py <workload> <seed> trace <SPANS>

``setup`` stops right before the first timed call, so the parent can time
set-up alone.  ``measure`` runs passes, untraced, for about BUDGET_S seconds
and at least one: a ladder pass decides every rung; the corpus makes one
full pass (enumerate, decide, oracle) and then decides its instances again
in further rounds.  Times are medians over passes (over rounds for the
corpus decide times) of timings scaled to the reference speed.  ``trace``
installs the tracer before set-up, runs one pass and writes the spans to
SPANS.  The parent (``run.py``) computes set-up time from its own clock and
the ``ready`` timestamp printed here; both read CLOCK_MONOTONIC.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def summarize(passes: list) -> dict:
    """Medians over passes and rounds; failures summed; verdicts compared."""
    first = passes[0]
    decide_ms: dict[str, list[float]] = {}
    for p in passes:
        for name, ms in p.decide_ms.items():
            decide_ms.setdefault(name, []).extend(ms)
    differ = [f"pass {i} verdicts differ from pass 0"
              for i, p in enumerate(passes[1:], 1) if p.verdicts != first.verdicts]
    return {
        "passes": len(passes),
        "rounds": sum(len(p.decide_rounds) for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "decide_s": statistics.median(r for p in passes for r in p.decide_rounds),
        "oracle_s": statistics.median(p.oracle_s for p in passes),
        "decide_ms": {name: statistics.median(v) for name, v in decide_ms.items()},
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + len(differ),
        "errors": [e for p in passes for e in p.errors] + differ,
        "verdicts": first.verdicts,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        import workloads as W
        from hypertope import cli

        if workload == "corpus":
            groups = W.corpus_groups(seed)
            run = lambda: W.run_corpus(groups, tracer)  # noqa: E731
        else:
            make = {"ladder-a": W.ladder_a_instances,
                    "ladder-b": W.ladder_b_instances}[workload]
            instances = make(seed)
            specs = [cli.parse_instance(inst.document) for inst in instances]
            run = lambda: W.run_ladder(instances, specs, tracer)  # noqa: E731
        out = {"ready": time.perf_counter()}
        if mode != "setup":
            end = out["ready"] + (float(argv[3]) if mode == "measure" else 0.0)
            passes = [run()]
            # the expected length of the next pass, or of the next decide round
            step = (passes[0].decide_rounds[0] if workload == "corpus"
                    else time.perf_counter() - out["ready"])
            while time.perf_counter() + step < end:
                t0 = time.perf_counter()
                if workload == "corpus":
                    W.decide_round(passes[0])
                else:
                    passes.append(run())
                step = time.perf_counter() - t0
            out.update(summarize(passes))
            out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["spans"] = tracer.write_spans(argv[3])
        out["dropped_spans"] = tracer.dropped_spans
        out["absent"] = sorted(tracer.absent)
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
