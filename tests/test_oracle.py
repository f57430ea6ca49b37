"""Brute-force path: incidence graph, clique chambers, direct verdicts."""

import collections
import random

import pytest

from hypertope.corpus import alternating, cyclic, symmetric, torus_rotation_group
from hypertope.cosetgeo import build
from hypertope.cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    associated_geometry,
    build_cplus,
    check_ic_plus,
    condition_ii,
    is_chiral_hypertope,
)
from hypertope.oracle import (
    build_incidence_graph,
    chambers_via_maximal_cliques,
    chirality_bruteforce,
)
from hypertope.permcore import Permutation, action_table, generate_group, generated_indices


def hexagon():
    G = symmetric(3)
    H1 = generate_group(3, [Permutation([1, 0, 2])])
    H2 = generate_group(3, [Permutation([0, 2, 1])])
    return build(G, [H1, H2])


def test_hexagon_graph_shape():
    graph = build_incidence_graph(hexagon())
    assert graph.num_vertices == 6
    assert graph.num_edges == 6
    cliques = chambers_via_maximal_cliques(graph)
    assert len(cliques) == 6
    assert all(len(c) == 2 for c in cliques)


def test_rank1_graph_is_edgeless():
    G = cyclic(4)
    H = generate_group(4, [Permutation([2, 3, 0, 1])])
    graph = build_incidence_graph(build(G, [H]))
    assert graph.num_vertices == 2
    assert graph.num_edges == 0


def test_base_chamber_is_a_clique():
    G, (s, t) = torus_rotation_group()
    geo = associated_geometry(build_cplus(G, (s, s * t)))
    graph = build_incidence_graph(geo)
    base = geo.base_chamber()
    ids = [graph.index[(i, c)] for i, c in base]
    for a in ids:
        for b in ids:
            assert a == b or b in graph.adjacency[a]


def test_cliques_equal_chambers_for_geometries():
    G, (s, t) = torus_rotation_group()
    for S in (build_cplus(G, (s, s * t)),
              build_cplus(alternating(4),
                          (Permutation.from_cycles(4, [(0, 1, 2)]),
                           Permutation.from_cycles(4, [(1, 2, 3)])))):
        geo = associated_geometry(S)
        assert geo.is_geometry()
        graph = build_incidence_graph(geo)
        cliques = {frozenset(graph.vertices[v] for v in c)
                   for c in chambers_via_maximal_cliques(graph)}
        chambers = {frozenset(ch.items) for ch in geo.chambers()}
        assert cliques == chambers


def test_non_geometry_has_short_maximal_clique():
    G = generate_group(6, [Permutation.from_cycles(6, [(0, 1)]),
                           Permutation.from_cycles(6, [(2, 3)]),
                           Permutation.from_cycles(6, [(4, 5)])])
    parabolics = [generate_group(6, [p]) for p in (
        Permutation([0, 1, 2, 3, 5, 4]),
        Permutation([0, 1, 3, 2, 4, 5]),
        Permutation([0, 1, 3, 2, 5, 4]),
        Permutation([1, 0, 2, 3, 4, 5]))]
    geo = build(G, parabolics)
    assert not geo.is_geometry()
    cliques = chambers_via_maximal_cliques(build_incidence_graph(geo))
    assert any(len(c) < 4 for c in cliques)


def test_vertex_cap():
    G, (s, t) = torus_rotation_group()
    geo = associated_geometry(build_cplus(G, (s, s * t)))
    with pytest.raises(RuntimeError):
        build_incidence_graph(geo, vertex_cap=3)


def test_oracle_verdicts_match_known_instances():
    G, (s, t) = torus_rotation_group()
    rep = chirality_bruteforce(build_cplus(G, (s, s * t)))
    assert rep.verdict == CHIRAL
    assert rep.orbit_sizes == (20, 20)

    a4 = alternating(4)
    rep = chirality_bruteforce(build_cplus(a4, (
        Permutation.from_cycles(4, [(0, 1, 2)]),
        Permutation.from_cycles(4, [(1, 2, 3)]))))
    assert rep.verdict == REGULAR

    c4 = cyclic(4)
    h = c4.generators[0]
    rep = chirality_bruteforce(build_cplus(c4, (h, h * h)))
    assert rep.verdict == NOT_HYPERTOPE


def _psl27():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity),
    generated by x -> x + 1 and x -> -1/x; order 168."""
    t = Permutation([(x + 1) % 7 for x in range(7)] + [7])
    s = Permutation([7] + [-pow(x, 5, 7) % 7 for x in range(1, 7)] + [0])
    return generate_group(8, [t, s])


def _sample_rank4(G, rng, count):
    """``count`` seeded random triples of G that generate G, are independent
    and pass (ii), as systems."""
    acts = action_table(G)
    out = []
    while len(out) < count:
        T = rng.sample(range(1, G.order), 3)
        if len(generated_indices(acts[t] for t in T)) != G.order:
            continue
        if any(T[i] in generated_indices(acts[t] for t in T[:i] + T[i + 1:])
               for i in range(3)):
            continue
        S = build_cplus(G, [G.elements[t] for t in T])
        if condition_ii(S):
            out.append(S)
    return out


def test_fast_matches_oracle_on_groups_rich_in_non_cplus_systems():
    """Rank-4 systems of S5, PSL(2,7) and A6 where IC⁺ often fails after
    (ii), (i) and (iii) hold, plus the rank-5 simplex in A6.  The group list
    is local to this test: the acceptance corpus stays as it is."""
    rng = random.Random(20261018)
    groups = [("s5", symmetric(5), 10), ("psl27", _psl27(), 8), ("a6", alternating(6), 6)]
    assert [G.order for _, G, _ in groups] == [120, 168, 360]
    tally = collections.Counter()
    for name, G, count in groups:
        for S in _sample_rank4(G, rng, count):
            fast = is_chiral_hypertope(S, check_all_k=True)
            assert fast.verdict == chirality_bruteforce(S).verdict, (name, S.R)
            if fast.failing_condition == 5:
                assert not check_ic_plus(S)
            tally[name, fast.failing_condition] += 1
    assert all(tally[name, 5] for name, _, _ in groups), tally
    assert sum(n for (_, code), n in tally.items() if code in (None, 4)) > 0, tally

    n = 6
    R = tuple(Permutation.from_cycles(n, [(0, 1)]) * Permutation.from_cycles(n, [(i, i + 1)])
              for i in range(1, 5))
    S = build_cplus(generate_group(n, R), R)
    assert S.group.order == 360
    assert is_chiral_hypertope(S, check_all_k=True).verdict == REGULAR
    assert chirality_bruteforce(S).verdict == REGULAR
