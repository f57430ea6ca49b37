#!/usr/bin/env python3
"""CI's smokes, one table row each: the checks at scales that tier-1 does not reach.

    PYTHONPATH=src python scripts/smoke.py [ROW ...]

run from the repository root, runs the named rows, or every row of ``ROWS``,
and exits 0 iff each passes. Each row runs in its own child process and
session, and fails when the child outlives its timeout (it and its
descendants are then killed), exits with another code than the row expects,
peaks at or over the row's RSS bound, or prints output that fails the row's
check. The peak is the child's own, from ``os.wait4``; Linux starts it at
the runner's peak, so the runner only builds documents and stays small. A
document row writes its document to a temporary file and runs
``python -m hypertope DOCUMENT ARGS``.
"""

import collections
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from hypertope.catalog import catalog_names
from hypertope.cli import render_permutation
from hypertope.corpus import affine_torus, psl2, simplex, torus_map
from hypertope.cplus import build_cplus, is_chiral_hypertope
from hypertope.permcore import Permutation, generate_group

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Row:
    args: list  # after `python`, or after `python -m hypertope DOCUMENT`
    timeout: float  # seconds
    exit: int = 0
    rss_mb: Optional[float] = None  # the peak RSS must stay under it
    document: Optional[Callable[[str], str]] = None  # the row's name -> text
    check: Optional[Callable[[str], bool]] = None  # on the child's stdout


def run_row(name: str, row: Row, tmp: str) -> bool:
    """Run ``row`` in a child, print one line on it and say whether it passed."""
    args = row.args
    if row.document:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as doc:
            doc.write(row.document(name))
        args = ["-m", "hypertope", path, *args]
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        deadline = start + row.timeout
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, setsid=True,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        # polled, so that the child is still unreaped (its pid still its own) when killed
        while not (waited := os.wait4(pid, os.WNOHANG))[0] and time.perf_counter() < deadline:
            time.sleep(0.05)
        timed_out = not waited[0]
        if timed_out:
            os.killpg(pid, signal.SIGKILL)
            waited = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    code = os.waitstatus_to_exitcode(waited[1])
    peak_mb = waited[2].ru_maxrss / 1024
    problems = []
    if timed_out:
        problems.append(f"killed after its {row.timeout:g} s timeout")
    elif code != row.exit:
        problems.append(f"expected exit {row.exit}")
    if row.rss_mb is not None and peak_mb >= row.rss_mb:
        problems.append(f"peak RSS not under {row.rss_mb:g} MB")
    if not problems and row.check and not row.check(stdout):
        problems.append("output check failed")
    print(f"{name}: exit {code}, {seconds:.1f} s, peak RSS {peak_mb:.0f} MB: "
          + ("; ".join(problems) if problems else "ok"), flush=True)
    if problems:
        print("".join(stdout.splitlines(keepends=True)[-20:]), end="", flush=True)
    return not problems


def cycles_yaml(name, degree, R):
    return (f"name: {name}\ndegree: {degree}\n"
            f"generators: {json.dumps([render_permutation(r) for r in R])}\n")


def images_json(name, degree, R):
    return json.dumps({"name": name, "degree": degree, "generators": [list(r.images) for r in R]})


def prints(line):
    return lambda out: line in out.splitlines()


def agreement(out):
    return json.loads(out)["agreement"] is True


def traced(out):
    """The last line is a correct result with every per-layer metric of BENCHMARK.json."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    result = json.loads(out.splitlines()[-1])
    missing = [name for name in names if name not in result["metrics"]]
    print(f"correct {result['correct']}, {len(names) - len(missing)} of {len(names)} "
          f"per-layer metrics; missing: {', '.join(missing) or 'none'}")
    return result["correct"] is True and not missing


# The in-process smokes: each returns whether it passed.

def metamorphic():
    """On the rank-7 simplex in A8, {4,4}_(49,50) and {4,4}_(70,0) with all k,
    a seeded type order, a conjugate R^g with g in G and a point relabelling
    must each give R's verdict, code and orbit sizes."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import conjugated, relabelled, type_reordered

    def outcome(degree, R):
        report = is_chiral_hypertope(build_cplus(generate_group(degree, R), R), check_all_k=True)
        return report.verdict, report.failing_condition, report.orbit_sizes

    rng = random.Random(25)
    differ = []
    for name, (degree, R) in (("simplex-r7", simplex(7)), ("torus-49-50", torus_map(49, 50)),
                              ("torus-70-0", torus_map(70, 0))):
        t0 = time.perf_counter()
        G = generate_group(degree, R)
        expected = outcome(degree, R)
        moved = {"type order": type_reordered(R, rng.sample(range(len(R) + 1), len(R) + 1)),
                 "R^g": conjugated(R, G.element(rng.randrange(G.order))),
                 "relabelled": relabelled(R, rng.sample(range(degree), degree))}
        differ += [(name, how) for how, R2 in moved.items() if outcome(degree, R2) != expected]
        print(f"{name}: |G| = {G.order}, {expected}, {time.perf_counter() - t0:.1f} s")
    print(f"transforms that differ: {differ or 'none'}")
    return not differ


def closure_20000():
    """<(19998 19999)> at degree 20,000 has a base of 19,999 levels that
    hold the identity alone but the last, and order 2."""
    n = 20000
    t0 = time.perf_counter()
    G = generate_group(n, [Permutation.from_cycles(n, [(n - 2, n - 1)])])
    print(f"|G| = {G.order}, base length {G.base_length}, {time.perf_counter() - t0:.2f} s")
    return G.order == 2 and G.base_length == n - 1


def psl2_59():
    """PSL(2,59) on the projective line, |G| = 102660: 40 pairs drawn with
    seed 7 and decided with all k give 39 regular and 1 not generating."""
    t0 = time.perf_counter()
    G = generate_group(*psl2(59), cap=200000)
    rng = random.Random(7)
    tally = collections.Counter()
    for _ in range(40):
        R = [G.element(rng.randrange(1, G.order)) for _ in range(2)]
        try:
            S = build_cplus(G, R)
        except ValueError:  # the pair does not generate G
            tally["not generating"] += 1
            continue
        tally[is_chiral_hypertope(S, check_all_k=True).verdict] += 1
    print(f"|G| = {G.order}, {dict(tally)}, {time.perf_counter() - t0:.1f} s")
    return G.order == 102660 and tally == {"regular-hypertope": 39, "not generating": 1}


def determinism():
    """Every catalog entry with --all-k --oracle --format json gives the same
    report, minus timings, under PYTHONHASHSEED=0 and 1."""
    def report(name, seed):
        out = subprocess.run([sys.executable, "-m", "hypertope", "--catalog", name,
                              "--all-k", "--oracle", "--format", "json"],
                             stdout=subprocess.PIPE, encoding="utf-8",
                             env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
        doc = json.loads(out)
        doc.pop("timings")
        return json.dumps(doc)

    differ = [name for name in catalog_names() if report(name, "0") != report(name, "1")]
    print(f"{len(catalog_names())} catalog entries, reports differ on: {differ or 'none'}")
    return not differ


def call(function):
    """The arguments that run ``function`` of this file in a child, which logs on
    stderr (the runner shows stdout only for a failing row) and exits 0 iff it
    returns true."""
    return ["-c", f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import smoke; "
                  f"sys.stdout = sys.stderr; sys.exit(0 if smoke.{function.__name__}() else 1)"]


ROWS = {
    # a correct traced result with every per-layer metric of BENCHMARK.json
    "traced-bench": Row([str(ROOT / "perfbench" / "run.py"), "--workload", "corpus",
                         "--seed", "101", "--seconds", "5", "--trace", "1"], 600, check=traced),
    # the S5 sweep re-derives the frozen code-1 fixture fix-code1-s5
    "fixtures-codes": Row([str(ROOT / "scripts" / "find_fixtures.py"), "codes"], 120,
                          check=prints("1: ('s5', [[0, 1, 2, 4, 3], [0, 2, 3, 1, 4], "
                                       "[1, 3, 2, 0, 4]], 'k=2')")),
    "fixtures-nongeometry": Row([str(ROOT / "scripts" / "find_fixtures.py"), "nongeometry"], 120),
    # regular simplices: the rank-7 one in A8 (|G| = 20160), the rank-8 one in A9 (|G| = 181440)
    "simplex-r7": Row(["--all-k"], 120, exit=10,
                      document=lambda name: cycles_yaml(name, *simplex(7))),
    "simplex-r8": Row(["--all-k", "--element-cap", "200000"], 120, exit=10, rss_mb=300,
                      document=lambda name: cycles_yaml(name, *simplex(8))),
    # chiral affine tori, |G| = 4p
    "torus-p2477": Row([], 120, document=lambda name: images_json(name, *affine_torus(2477))),
    "torus-p4793": Row([], 60, rss_mb=450,
                       document=lambda name: images_json(name, *affine_torus(4793))),
    "torus-p9973": Row([], 120, rss_mb=900,
                       document=lambda name: images_json(name, *affine_torus(9973))),
    # theorem: {4,4}_(b,c) is regular iff bc(b - c) = 0; |G| = 19604 and 19600
    "torus-49-50": Row(["--all-k"], 60, rss_mb=300,
                       document=lambda name: images_json(name, *torus_map(49, 50))),
    "torus-70-0": Row(["--all-k"], 60, exit=10, rss_mb=300,
                      document=lambda name: images_json(name, *torus_map(70, 0))),
    "metamorphic": Row(call(metamorphic), 120, rss_mb=600),
    "closure-20000": Row(call(closure_20000), 10),
    "psl2-59": Row(call(psl2_59), 120, rss_mb=90),
    # the fast decision against the oracle on the affine tori p = 797 and 1601
    "torus-p797": Row(["--oracle", "--format", "json"], 120, rss_mb=110, check=agreement,
                      document=lambda name: images_json(name, *affine_torus(797))),
    "torus-p1601": Row(["--oracle", "--format", "json"], 120, rss_mb=200, check=agreement,
                       document=lambda name: images_json(name, *affine_torus(1601))),
    "s5-chiral": Row(["--all-k", "--oracle"], 60,
                     check=prints("  oracle verdict: chiral-hypertope  (agreement: True)"),
                     document=lambda name: (f"name: {name}\ndegree: 5\n"
                                            'generators: ["(3 4)", "(1 2 3)", "(0 4)(2 3)"]\n')),
    "determinism": Row(call(determinism), 60),
}


def main(names):
    unknown = [name for name in names if name not in ROWS]
    if unknown:
        sys.exit(f"error: no row {', '.join(unknown)}; the rows are {', '.join(ROWS)}")
    with tempfile.TemporaryDirectory() as tmp:
        passed = [run_row(name, ROWS[name], tmp) for name in names or ROWS]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
