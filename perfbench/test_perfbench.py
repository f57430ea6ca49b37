"""The benchmark's own tests: seed independence of verdicts, exact repeats of
the traced counters, the tracer's patch bookkeeping and the scaling of
timings by the reference kernel.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refclock  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as W  # noqa: E402
from hypertope import cli, cosetgeo, cplus, permcore  # noqa: E402

REPEATED_COUNTERS = (
    "permcore.Permutation.mul.calls",
    "permcore.generate_group.elements",
    "cosetgeo.IncidenceView.chambers.count",
    "oracle.build_incidence_graph.edges",
)


def _ladder(make, seed, tracer=None):
    instances = make(seed)
    return W.run_ladder(instances, [cli.parse_instance(i.document) for i in instances],
                        tracer)


def _small_corpus(seed):
    """A few rank-3 groups and one rank-4 group: a corpus pass in seconds."""
    rank3 = [(n, G) for n, G in W.corpus.rank3_group_list() if n in ("c6", "a4", "f20", "d5")]
    rank4 = [(n, G) for n, G in W.corpus.rank4_group_list() if n == "d4"]
    return W.corpus_groups(seed, rank3=rank3, rank4=rank4)


def test_verdicts_and_tallies_do_not_depend_on_the_seed():
    for make in (W.ladder_a_instances, W.ladder_b_instances):
        a, b = _ladder(make, 1), _ladder(make, 2)
        assert a.failed == b.failed == 0, a.errors + b.errors
        assert a.verdicts == b.verdicts
        assert make(1)[0].document != make(2)[0].document
    rank3_only = [W.run_corpus(W.corpus_groups(seed, rank4=[])) for seed in (1, 2)]
    for res in rank3_only:
        assert res.failed == 0, res.errors
        assert res.rank3_tally == W.CORPUS_RANK3_TALLY


def _traced_counters(groups):
    with tracer_mod.Tracer() as t:
        W.run_corpus(groups, t, rank3_tally=None)
    return {name: t.metric(name) for name in REPEATED_COUNTERS}


def test_counters_repeat_for_a_fixed_seed():
    first, second = _traced_counters(_small_corpus(3)), _traced_counters(_small_corpus(3))
    assert first == second
    assert all(v > 0 for v in first.values()), first


def test_counters_repeat_across_processes():
    def trace(spans):
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "ladder-b", "4", "trace", str(spans)],
            capture_output=True, text=True, check=True, timeout=170)
        layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
        return {name: layers.get(name) for name in REPEATED_COUNTERS[:3]}

    spans = HERE.parent / ".perfbench" / "spans-test.jsonl"
    spans.parent.mkdir(exist_ok=True)
    try:
        assert trace(spans) == trace(spans)
    finally:
        spans.unlink(missing_ok=True)


def test_tracer_patches_imported_names_and_restores_them():
    original_mul = permcore.Permutation.__mul__
    original_product_set = permcore.product_set
    with tracer_mod.Tracer() as t:
        assert cplus.product_set is cosetgeo.product_set is permcore.product_set
        assert cplus.product_set is not original_product_set
        G = W.corpus.symmetric(3)
        cplus.product_set(G, G)
        cosetgeo.product_set(G, G)
    assert t.metric("permcore.product_set.calls") == 2
    assert t.metric("permcore.product_set.pairs") == 72
    assert permcore.Permutation.__mul__ is original_mul
    assert cplus.product_set is cosetgeo.product_set is original_product_set


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer_mod.TIMED_METHODS, "cosetgeo",
                        [("IncidenceView", "no_such_method"), ("NoSuchClass", "chambers")])
    with tracer_mod.Tracer() as t:
        pass
    assert t.metric("cosetgeo.IncidenceView.no_such_method.self_s") is None
    assert t.metric("cosetgeo.NoSuchClass.chambers.calls") is None
    assert {"cosetgeo.IncidenceView.no_such_method", "cosetgeo.NoSuchClass.chambers"} <= t.absent
    assert t.metric("cplus.condition_i.calls") == 0


def test_ref_timer_scales_each_block_by_the_kernel_around_it(monkeypatch):
    kernel_times = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(refclock, "reference_s", lambda: next(kernel_times))
    timer = refclock.RefTimer(block_s=0.0)
    timer.add("decide", "x", 3.0)
    timer.close()  # kernel 0.02 before, 0.04 after: mean 0.03
    timer.add("decide", "y", 1.0)
    timer.tick()  # kernel 0.04 before, 0.01 after: mean 0.025
    nominal = refclock.REF_NOMINAL_S
    assert timer.by_name("decide") == pytest.approx({"x": 3.0 * nominal / 0.03,
                                                     "y": 1.0 * nominal / 0.025})
    assert timer.kernel_s == [0.04, 0.01]
