"""Seeded instance generation and one timed pass per workload.

Every workload drives the library only through its public entry points
(``cli.parse_instance``, ``cli.run``, ``corpus.generating_tuples``,
``oracle.chirality_bruteforce``).  The seed draws a relabelling of the points
(and, on ``ladder-a``, which square root of -1 to use); verdicts do not
depend on it.

The load is a closed loop: one caller, one thread, and each instance starts
only after the previous one has returned.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from hypertope import cli, corpus, cplus, oracle, permcore
from refclock import RefTimer

# ladder-a rungs: primes p = 1 mod 4, so -1 has a square root mod p; |G| = 4p.
# p = 797 is left out: one 7-10 s decision is too long to repeat often enough
# in a 40-s run for a steady median.
LADDER_A_PRIMES = (101, 197, 401)
# ladder-b rungs: ranks of the simplex rotation group A_{r+1}; |G| = 60, 360
LADDER_B_RANKS = (4, 5)
RANK4_LIMIT = 6

# "verdict/code" tally of the unlimited rank-3 corpus sweep.  It is the same
# for every relabelling because the sweep visits every conjugacy class.
CORPUS_RANK3_TALLY = {
    "chiral-hypertope/None": 6,
    "not-hypertope/2": 44,
    "not-hypertope/3": 6,
    "regular-hypertope/4": 259,
}


@dataclass
class Instance:
    """One instance document plus the checks its report must pass."""

    name: str
    document: str
    check: Callable[["cli.Report"], Optional[str]]


@dataclass
class PassResult:
    """What one pass over a workload measured and checked.

    Times are scaled to the reference speed (see ``refclock``).  A corpus
    pass decides every instance in one or more rounds: ``decide_rounds``
    holds each round's total and ``decide_ms`` each instance's samples.
    """

    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    decide_rounds: list[float] = field(default_factory=list)
    decide_ms: dict[str, list[float]] = field(default_factory=dict)
    oracle_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    verdicts: dict[str, list] = field(default_factory=dict)
    rank3_tally: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    specs: dict = field(default_factory=dict, repr=False)

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {why}")

    def add_round(self, timer: RefTimer) -> None:
        self.decide_rounds.append(timer.total("decide"))
        for name, t in timer.by_name("decide").items():
            self.decide_ms.setdefault(name, []).append(t * 1e3)


# -- relabelling --------------------------------------------------------------

def _relabel(images, pi) -> list[int]:
    """Conjugate by the point map pi: the image of pi[x] is pi[images[x]]."""
    out = [0] * len(images)
    for x, y in enumerate(images):
        out[pi[x]] = pi[y]
    return out


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _document(name: str, degree: int, gens, options: dict) -> str:
    doc = {"name": name, "degree": degree,
           "generators": [list(g) for g in gens]}
    if options:
        doc["options"] = options
    return json.dumps(doc)


# -- ladders --------------------------------------------------------------------

def _sqrt_minus_one(p: int) -> int:
    return next(a for a in range(2, p) if a * a % p == p - 1)


def ladder_a_instances(seed: int) -> list[Instance]:
    """Chiral torus maps: G = {x -> ax + b mod p}, a^2 = -1, R = (s, s t)."""
    rng = _rng("ladder-a", seed)
    out = []
    for p in LADDER_A_PRIMES:
        a = _sqrt_minus_one(p)
        if rng.random() < 0.5:
            a = p - a  # the mirror-image map
        s = [a * x % p for x in range(p)]
        t = [(a * x + 1) % p for x in range(p)]
        st = [t[s[x]] for x in range(p)]  # right action: s first, then t
        pi = rng.sample(range(p), p)
        order = 4 * p
        out.append(Instance(
            f"torus-p{p}",
            _document(f"torus-p{p}", p, [_relabel(s, pi), _relabel(st, pi)], {}),
            _expect(cplus.CHIRAL, None, orbit_sizes=(order, order))))
    return out


def ladder_b_instances(seed: int) -> list[Instance]:
    """Regular simplices: alpha_i = (0 1)(i i+1) in A_{r+1}, all k checked."""
    rng = _rng("ladder-b", seed)
    out = []
    for rank in LADDER_B_RANKS:
        n = rank + 1
        gens = []
        for i in range(1, rank):
            g = list(range(n))
            g[0], g[1] = 1, 0
            h = list(range(n))
            h[i], h[i + 1] = i + 1, i
            gens.append([h[g[x]] for x in range(n)])  # (0 1) first, then (i i+1)
        pi = rng.sample(range(n), n)
        out.append(Instance(
            f"simplex-r{rank}",
            _document(f"simplex-r{rank}", n, [_relabel(g, pi) for g in gens],
                      {"check_all_k": True}),
            _expect(cplus.REGULAR, 4, no_disagreement=True)))
    return out


def _expect(verdict: str, code: Optional[int], orbit_sizes=None,
            no_disagreement: bool = False):
    def check(report) -> Optional[str]:
        c = report.chirality
        if (c.verdict, c.failing_condition) != (verdict, code):
            return f"got ({c.verdict}, {c.failing_condition}), want ({verdict}, {code})"
        if orbit_sizes is not None and tuple(c.orbit_sizes or ()) != orbit_sizes:
            return f"orbit sizes {c.orbit_sizes}, want {orbit_sizes}"
        if no_disagreement and c.cross_k_disagreement:
            return f"cross-k disagreement {c.cross_k_disagreement}"
        return None
    return check


def run_ladder(instances: list[Instance], specs: list, tracer=None) -> PassResult:
    """Decide each parsed instance with ``cli.run`` and check its report."""
    res = PassResult()
    timer = RefTimer(block_s=0.0)
    t_start = time.perf_counter()
    for i, (inst, spec) in enumerate(zip(instances, specs)):
        if tracer is not None:
            tracer.instance = i
        res.attempted += 1
        t_step = time.perf_counter()
        try:
            t0 = time.perf_counter()
            report = cli.run(spec)
            timer.add("decide", inst.name, time.perf_counter() - t0)
        except Exception:  # a failed instance must not end the pass
            res.fail(inst.name, traceback.format_exc(limit=3))
            continue
        res.verdicts[inst.name] = [report.chirality.verdict,
                                   report.chirality.failing_condition]
        why = inst.check(report)
        if why:
            res.fail(inst.name, why)
        timer.add("step", inst.name, time.perf_counter() - t_step)
        timer.tick()
    timer.close()
    res.raw_wall_s = time.perf_counter() - t_start - sum(timer.kernel_s)
    res.wall_s = timer.total("step")
    res.add_round(timer)
    return res


# -- corpus ---------------------------------------------------------------------

def corpus_groups(seed: int, rank3=None, rank4=None) -> list[tuple[str, int, object]]:
    """Relabelled catalog groups as (name, tuple size, group).

    ``rank3`` and ``rank4`` default to the library's full group lists; the
    benchmark's tests pass shorter lists.
    """
    rng = _rng("corpus", seed)
    out = []
    for size, groups in ((2, rank3 if rank3 is not None else corpus.rank3_group_list()),
                         (3, rank4 if rank4 is not None else corpus.rank4_group_list())):
        for name, G in groups:
            pi = rng.sample(range(G.degree), G.degree)
            gens = [permcore.Permutation(_relabel(g.images, pi)) for g in G.generators]
            out.append((name, size, permcore.generate_group(G.degree, gens)))
    return out


def run_corpus(groups, tracer=None, rank3_tally=CORPUS_RANK3_TALLY) -> PassResult:
    """Enumerate, decide and cross-check every corpus instance.

    With ``rank3_tally`` set, a rank-3 tally that differs from it counts the
    surplus instances of each (verdict, code), and at least one, as failed.
    The parsed specs are kept in ``specs`` for ``decide_round``.
    """
    res = PassResult()
    tally: Counter = Counter()
    timer = RefTimer()
    t_start = time.perf_counter()
    for gname, size, G in groups:
        limit = None if size == 2 else RANK4_LIMIT
        options = {} if size == 2 else {"check_all_k": True}
        t_step = time.perf_counter()
        try:
            tuples = list(corpus.generating_tuples(G, size, independent=True,
                                                   limit=limit))
        except Exception:
            res.attempted += 1
            res.fail(gname, traceback.format_exc(limit=3))
            continue
        finally:
            timer.add("step", gname, time.perf_counter() - t_step)
        for idx, R in enumerate(tuples):
            name = f"{gname}#r{size + 1}-{idx}"
            if tracer is not None:
                tracer.instance = res.attempted
            res.attempted += 1
            t_step = time.perf_counter()
            try:
                spec = cli.parse_instance(_document(
                    name, G.degree, [r.images for r in R], options))
                t0 = time.perf_counter()
                report = cli.run(spec)
                timer.add("decide", name, time.perf_counter() - t0)
                res.specs[name] = spec
                S = cplus.build_cplus(G, spec.generators)
                t0 = time.perf_counter()
                ref = oracle.chirality_bruteforce(S)
                timer.add("oracle", name, time.perf_counter() - t0)
            except Exception:
                res.fail(name, traceback.format_exc(limit=3))
                ref = None
            if ref is not None:
                fast = report.chirality
                res.verdicts[name] = [fast.verdict, fast.failing_condition]
                if size == 2:
                    tally[f"{fast.verdict}/{fast.failing_condition}"] += 1
                if fast.verdict != ref.verdict:
                    res.fail(name, f"fast {fast.verdict} != oracle {ref.verdict}")
            timer.add("step", name, time.perf_counter() - t_step)
            timer.tick()
    timer.close()
    res.raw_wall_s = time.perf_counter() - t_start - sum(timer.kernel_s)
    res.wall_s = timer.total("step")
    res.oracle_s = timer.total("oracle")
    res.add_round(timer)
    res.rank3_tally = dict(sorted(tally.items()))
    if rank3_tally is not None and res.rank3_tally != rank3_tally:
        # instances decided with an unexpected (verdict, code), or one failure
        # when the tally is short and no instance failed
        surplus = sum(max(0, n - rank3_tally.get(key, 0)) for key, n in tally.items())
        res.failed += max(surplus, 0 if res.failed else 1)
        res.errors.append(f"rank-3 tally {res.rank3_tally} != committed {rank3_tally}")
    return res


def decide_round(res: PassResult) -> None:
    """Decide every corpus instance of ``res`` again, as one more round.

    Each verdict must match the pass's; a mismatch or an exception counts as
    a failed instance.
    """
    timer = RefTimer()
    for name, spec in res.specs.items():
        res.attempted += 1
        try:
            t0 = time.perf_counter()
            report = cli.run(spec)
            timer.add("decide", name, time.perf_counter() - t0)
        except Exception:
            res.fail(name, "repeated decision: " + traceback.format_exc(limit=3))
            continue
        again = [report.chirality.verdict, report.chirality.failing_condition]
        if again != res.verdicts.get(name):
            res.fail(name, f"repeated decision {again} != first {res.verdicts.get(name)}")
        timer.tick()
    timer.close()
    res.add_round(timer)
