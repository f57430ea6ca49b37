#!/usr/bin/env python3
"""Deterministic searches that produced the frozen test fixtures.

Two searches live here:

* failure-code sweep: scan generating tuples of small groups and report the
  first instance hitting each failure code 1-4 plus a chiral and a regular
  instance.  Code 1 (a corank-1 truncation with several chamber orbits while
  all corank-1 parabolic intersections stay trivial) is rare; the sweep runs
  on element indices and the library's action and conjugation tables, so
  S5-sized groups stay tractable.

* non-geometry sweep: rank-4 subgroup quadruples whose coset system is
  connected but not a geometry.  Rank-3 systems need not be tried: any
  element of a pairwise coset intersection extends the flag to a chamber.

Usage:
    python3 scripts/find_fixtures.py codes [--max-order N]
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
from hypertope.cplus import build_cplus, is_chiral_hypertope
from hypertope.oracle import chambers_via_maximal_cliques
from hypertope.permcore import (
    Permutation,
    action_table,
    conjugation_table,
    generate_group,
    generated_indices,
)


def scan_rank4_code1(name, G):
    """Index-driven sweep for rank-4 tuples passing condition (ii) but with an
    intransitive corank-1 truncation (failure code 1).

    Elements are G's indices; ``acts[b][a]`` is the index of a * b."""
    acts = action_table(G)
    n = G.order
    inv = [G.index_of(x.inverse()) for x in G.elements]
    conj = conjugation_table(acts)  # conj[g][x] is the index of g^-1 x g

    def closure(gens):
        return frozenset(generated_indices(acts[g] for g in gens))

    seen_canon = set()
    for trip in itertools.combinations(range(1, n), 3):
        key = min(tuple(sorted(c[x] for x in trip)) for c in conj)
        if key in seen_canon:
            continue
        seen_canon.add(key)
        if len(closure(trip)) != n:
            continue
        for a1 in trip:
            rest = [x for x in trip if x != a1]
            R = [a1] + rest
            a1i = inv[R[0]]
            P = [closure([acts[R[1]][a1i], acts[R[2]][a1i]]),
                 closure([R[1], R[2]]),
                 closure([R[0], R[2]]),
                 closure([R[0], R[1]])]
            if any(len(P[i] & P[j] & P[k]) != 1
                   for i, j, k in itertools.combinations(range(4), 3)):
                continue  # condition (ii) fails: that is code 2, not code 1
            for k in range(4):
                J = [j for j in range(4) if j != k]
                kp, Bp = J[0], P[J[1]] & P[J[2]]
                inter = ({acts[x][h] for h in P[kp] for x in P[J[1]]}
                         & {acts[x][h] for h in P[kp] for x in P[J[2]]})
                rem, orbits = set(inter), 0
                while rem:
                    x = next(iter(rem))
                    rem -= {acts[b][acts[x][h]] for h in P[kp] for b in Bp}
                    orbits += 1
                if orbits > 1:
                    return [G.elements[i] for i in R], k
    return None


def search_codes(max_order):
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
        if G.order > max_order:
            continue
        found = scan_rank4_code1(name, G)
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
                sizes = sorted({len(c) for c in chambers_via_maximal_cliques(geo.view())})
                print(f"{name}: parabolics "
                      f"{[[list(g.images) for g in H.generators] for H in quad]} "
                      f"clique sizes {sizes}")
                return
    print("no non-geometry found in the candidate list")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fixture searches")
    ap.add_argument("which", choices=("codes", "nongeometry"))
    ap.add_argument("--max-order", type=int, default=120)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    if args.which == "codes":
        search_codes(args.max_order)
    else:
        search_nongeometry()
    print(f"[{time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
