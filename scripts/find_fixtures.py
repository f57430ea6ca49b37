#!/usr/bin/env python3
"""Deterministic searches that produced the frozen test fixtures.

Two searches live here:

* failure-code sweep: scan generating tuples of small groups and report the
  first instance hitting each failure code 1-4 plus a chiral and a regular
  instance.  Code 1 (a corank-1 truncation with several chamber orbits while
  all corank-1 parabolic intersections stay trivial) is rare; the sweep
  decides (ii) and (i) with the library, one tuple per conjugacy class, so
  S5-sized groups stay tractable.

* non-geometry sweep: rank-4 subgroup quadruples whose coset system is
  connected but not a geometry.  Rank-3 systems need not be tried: any
  element of a pairwise coset intersection extends the flag to a chamber.

Usage:
    python3 scripts/find_fixtures.py codes
    python3 scripts/find_fixtures.py nongeometry
"""

import argparse
import itertools
import sys
import time

from hypertope.corpus import (
    alternating,
    cyclic,
    dihedral,
    elementary_abelian_2cubed,
    generating_tuples,
    symmetric,
    torus_rotation_group,
)
from hypertope.cosetgeo import build
from hypertope.cplus import build_cplus, condition_i, condition_ii, is_chiral_hypertope
from hypertope.oracle import chambers_via_maximal_cliques
from hypertope.permcore import Permutation, generate_group


def scan_rank4_code1(G):
    """The first rank-4 tuple of G, one per conjugacy class, that passes
    condition (ii) but fails condition (i) for some k (failure code 1),
    with the first such k."""
    for R in generating_tuples(G, 3, independent=None):
        S = build_cplus(G, R)
        if condition_ii(S):
            for k in S.type_set:
                if not condition_i(S, k):
                    return list(R), k
    return None


def search_codes():
    rank3 = [("c4", cyclic(4)), ("c3xc3", generate_group(
        6, [Permutation.from_cycles(6, [(0, 1, 2)]),
            Permutation.from_cycles(6, [(3, 4, 5)])])),
        ("a4", alternating(4)), ("f20", torus_rotation_group()[0])]
    hits = {}
    for name, G in rank3:
        for R in generating_tuples(G, 2, independent=None):
            rep = is_chiral_hypertope(build_cplus(G, R))
            key = rep.failing_condition or rep.verdict
            if key not in hits:
                hits[key] = (name, [list(r.images) for r in R])
    for name, G in [("s4", symmetric(4)), ("s5", symmetric(5))]:
        found = scan_rank4_code1(G)
        if found and 1 not in hits:
            R, k = found
            hits[1] = (name, [list(r.images) for r in R], f"k={k}")
            break
    for key in sorted(hits, key=str):
        print(f"{key}: {hits[key]}")


def search_nongeometry():
    candidates = [("c2xc2", generate_group(4, [Permutation([1, 0, 2, 3]),
                                               Permutation([0, 1, 3, 2])])),
                  ("c2^3", elementary_abelian_2cubed()),
                  ("d4", dihedral(4))]
    for name, G in candidates:
        subs = {}
        for g in G:
            if not g.is_identity():
                H = generate_group(G.degree, [g])
                subs[H.elements] = H
        for quad in itertools.combinations_with_replacement(subs.values(), 4):
            geo = build(G, list(quad))
            if geo.is_connected() and not geo.is_geometry():
                sizes = sorted({len(c) for c in chambers_via_maximal_cliques(geo)})
                print(f"{name}: parabolics "
                      f"{[[list(g.images) for g in H.generators] for H in quad]} "
                      f"clique sizes {sizes}")
                return
    print("no non-geometry found in the candidate list")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fixture searches")
    ap.add_argument("which", choices=("codes", "nongeometry"))
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if args.which == "codes":
        search_codes()
    else:
        search_nongeometry()
    print(f"[{time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
