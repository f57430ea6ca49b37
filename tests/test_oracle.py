"""Brute-force path: incidence graph, clique chambers, direct verdicts."""

import collections
import gc
import itertools
import random
import sys

import pytest

from conftest import (
    c3xc3_cplus,
    catalog_cplus,
    disconnected_c4,
    hexagon,
    non_geometry_rank4,
    simplex_cplus,
    torus_cplus,
    torus_p_cplus,
)
from hypertope import cli, oracle, permcore
from hypertope.catalog import catalog_names
from hypertope.corpus import alternating, build_corpus, cyclic, symmetric
from hypertope.cosetgeo import build, flag_orbits
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
    VertexCapError,
    _adjacent_pair_in_one_orbit,
    build_incidence_graph,
    chambers_via_maximal_cliques,
    chirality_bruteforce,
)
from hypertope.permcore import (
    Permutation,
    generate_group,
    generated_indices,
    right_coset,
)


def test_hexagon_graph_shape():
    graph = hexagon()
    assert graph.num_vertices == 6
    assert graph.num_edges == 6
    cliques = chambers_via_maximal_cliques(graph)
    assert len(cliques) == 6
    assert all(len(c) == 2 for c in cliques)


def test_rank1_graph_is_edgeless():
    G = cyclic(4)
    H = generate_group(4, [Permutation([2, 3, 0, 1])])
    graph = build(G, [H])
    assert graph.num_vertices == 2
    assert graph.num_edges == 0


def _vertex(graph, geo, i, c):
    """The vertex of ``graph`` for the type-i coset c of ``geo``."""
    return graph.vertex(i, geo.coset_number(i, c.representative))


def _coset(geo, v):
    """The type and the ``RightCoset`` of vertex v of ``geo``."""
    i, c = geo.type_and_coset(v)
    return i, right_coset(geo.parabolics[i], geo.group.element(geo.least[i][c]))


def test_base_chamber_is_a_clique():
    S = torus_cplus()
    G = S.group
    geo = associated_geometry(S)
    graph = build_incidence_graph(S)
    base = [right_coset(H, G.element(0)) for H in geo.parabolics]
    ids = [_vertex(graph, geo, i, c) for i, c in enumerate(base)]
    assert ids == [graph.vertex(i, 0) for i in S.type_set]
    for a in ids:
        for b in ids:
            assert a == b or graph.adjacency[a] >> b & 1


def test_cliques_equal_chambers_for_geometries():
    for S in (torus_cplus(), catalog_cplus("fix-code4-a4")):
        geo = associated_geometry(S)
        assert geo.is_geometry()
        graph = build_incidence_graph(S)
        chambers = [tuple(_vertex(graph, geo, *_coset(geo, v)) for v in ch)
                    for ch in geo.chambers()]
        assert chambers_via_maximal_cliques(graph) == sorted(chambers) == graph.chambers()


def test_non_geometry_has_short_maximal_clique():
    """The non-geometry that ``scripts/find_fixtures.py nongeometry`` finds:
    it fails ``is_geometry`` and ``is_thin`` directly."""
    geo = non_geometry_rank4()
    assert geo.is_connected()
    assert not geo.is_geometry() and not geo.is_thin()
    assert sorted({len(c) for c in chambers_via_maximal_cliques(geo)}) == [3, 4]


def test_non_thin_geometry_fails_is_thin():
    """The oracle's thinness and geometry checks never decide its verdict
    (the ``oracle`` module docstring gives the argument), so they are pinned
    on their own: here the geometry of the C3 x C3 system (code 3), a
    residually connected geometry that is not thin; above, the non-geometry."""
    geo = associated_geometry(c3xc3_cplus())
    assert geo.is_geometry() and geo.is_residually_connected()
    assert not geo.is_thin()


def test_two_unmixed_clique_orbits_imply_a_thin_geometry():
    """The argument of the ``oracle`` module docstring, checked on the
    corpus: wherever the maximal cliques fall into two orbits with no ridge
    shared inside one, the view is a thin geometry.  Systems that are not
    thin occur, so the check is not vacuous."""
    seen = collections.Counter()
    for inst in build_corpus():
        S = build_cplus(inst.group, inst.R)
        view = build_incidence_graph(S)
        orbits = flag_orbits(view, chambers_via_maximal_cliques(view))
        unmixed = len(orbits) == 2 and not _adjacent_pair_in_one_orbit(orbits)
        thin_geometry = view.is_thin() and view.is_geometry()
        assert thin_geometry or not unmixed, inst.name
        seen[unmixed, thin_geometry] += 1
    assert seen[True, True] and seen[False, False], seen


def test_vertex_cap(monkeypatch):
    S = torus_cplus()
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_CAP", 19)
    with pytest.raises(VertexCapError, match="^incidence graph exceeds vertex cap 19$"):
        build_incidence_graph(S)
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_CAP", 20)
    assert build_incidence_graph(S).num_vertices == 20  # 20/4 + 20/2 + 20/4


def test_oracle_view_matches_the_closure_geometry():
    """``build_incidence_graph`` reads the maximal parabolic index sets; the
    geometry of ``associated_geometry`` reads the positions that the
    ``PermGroup`` closures of the same parabolics generate.  Both are
    ``IncidenceView``s and must give the same graph: on every twentieth corpus
    system, torus p = 197 and the rank-5 simplex.  The index sets themselves
    are checked against sympy on every corpus system in
    ``tests/test_kernel_crosscheck.py``."""
    systems = [build_cplus(inst.group, inst.R) for inst in build_corpus()[::20]]
    systems += [torus_p_cplus(197), simplex_cplus(5)]
    for S in systems:
        oracle_view = build_incidence_graph(S)
        closure_view = associated_geometry(S)
        assert oracle_view.type_masks == closure_view.type_masks, S.R
        assert oracle_view.adjacency == closure_view.adjacency, S.R
        assert oracle_view.columns == closure_view.columns, S.R


def test_oracle_closes_no_group_and_builds_no_coset(monkeypatch):
    """The oracle works on the system's index sets: no closure by
    ``generate_group`` (under any name a module holds it by) and no
    ``RightCoset``."""
    systems = [build_cplus(inst.group, inst.R) for inst in build_corpus()[::20]]
    systems += [torus_p_cplus(101), simplex_cplus(4)]
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    closure = permcore.generate_group
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("hypertope")
                and getattr(module, "generate_group", None) is closure):
            monkeypatch.setattr(module, "generate_group", counted("generate_group", closure))
    monkeypatch.setattr(permcore.RightCoset, "__init__",
                        counted("RightCoset", permcore.RightCoset.__init__))
    verdicts = collections.Counter(chirality_bruteforce(S).verdict for S in systems)
    assert calls == {}, calls
    assert set(verdicts) == {CHIRAL, REGULAR, NOT_HYPERTOPE}, verdicts
    # the patches count: the closure geometry closes its parabolics, and cosets are made
    geo = associated_geometry(systems[-1])
    right_coset(geo.parabolics[0], geo.group.element(0))
    assert calls["generate_group"] == 4 and calls["RightCoset"] > 0, calls


def test_oracle_reads_the_systems_arrays_of_R(monkeypatch):
    """R generates G, so its arrays, which ``build_cplus`` builds, serve the
    oracle's cosets, its clique orbits and its pair search: ``cli.run`` with
    the oracle asks the group for action arrays once, where it asked three
    times, once for each."""
    asked = []
    built = permcore.PermGroup.actions

    def actions(G, gs):
        asked.append(len(gs))
        return built(G, gs)
    monkeypatch.setattr(permcore.PermGroup, "actions", actions)
    S = torus_p_cplus(401)
    del asked[:]
    report = cli.run(cli.spec_from_mapping({"degree": 401,
                                            "generators": [list(r.images) for r in S.R],
                                            "options": {"oracle": True}}))
    assert report.chirality.verdict == report.oracle.verdict == CHIRAL
    assert report.oracle.orbit_sizes == (1604, 1604)
    assert asked == [2]


def test_cross_orbit_test_groups_chambers_by_ridge():
    a, b, c = (0, 1, 2), (0, 1, 3), (0, 4, 5)
    assert _adjacent_pair_in_one_orbit([[a, b], [c]])  # a, b share the ridge (0, 1)
    assert not _adjacent_pair_in_one_orbit([[a, c], [b]])
    assert not _adjacent_pair_in_one_orbit([[a], [b], [c]])


def test_oracle_verdicts_match_known_instances():
    rep = chirality_bruteforce(torus_cplus())
    assert rep.verdict == CHIRAL
    assert rep.orbit_sizes == (20, 20)

    rep = chirality_bruteforce(catalog_cplus("fix-code4-a4"))
    assert rep.verdict == REGULAR

    c4 = cyclic(4)
    h = c4.generators[0]
    rep = chirality_bruteforce(build_cplus(c4, (h, h * h)))
    assert rep.verdict == NOT_HYPERTOPE


def _sample_rank4(G, rng, count):
    """``count`` seeded random triples of G that generate G, are independent
    and pass (ii), as systems."""
    acts = G.actions(G.elements)
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


def test_fast_matches_oracle_on_groups_rich_in_non_cplus_systems(psl27):
    """Rank-4 systems of S5, PSL(2,7) and A6 where IC⁺ often fails after
    (ii), (i) and (iii) hold, plus the rank-5 simplex in A6.  The group list
    is local to this test: the acceptance corpus stays as it is."""
    rng = random.Random(20261018)
    groups = [("s5", symmetric(5), 10), ("psl27", psl27, 8), ("a6", alternating(6), 6)]
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

    S = simplex_cplus(5)
    assert S.group.order == 360
    assert is_chiral_hypertope(S, check_all_k=True).verdict == REGULAR
    assert chirality_bruteforce(S).verdict == REGULAR


def test_rank4_sweeps_certify_chiral_verdicts_by_both_paths(rank4_classes):
    """Every independent rank-4 class of S5 (776) and of PSL(2,7) (630):
    the fast path's tallies are pinned, and the oracle gives the same
    verdict on each of the 248 chiral and code-5 classes."""
    tallies = {"s5": {None: 80, 1: 60, 2: 606, 3: 6, 5: 24},
               "psl27": {None: 72, 1: 28, 2: 458, 5: 72}}
    checked = 0
    for name, (G, classes) in rank4_classes.items():
        tally = collections.Counter(report.failing_condition for _, report in classes)
        assert tally == tallies[name], (name, tally)
        for R, report in classes:
            if report.failing_condition in (None, 5):
                assert chirality_bruteforce(build_cplus(G, R)).verdict == report.verdict, (name, R)
                checked += 1
    assert checked == 248


@pytest.mark.parametrize("make, verdict", [
    (lambda: torus_p_cplus(197), CHIRAL),
    (lambda: simplex_cplus(6), REGULAR),
], ids=["torus-p197", "simplex-r6"])
def test_fast_matches_oracle_at_larger_orders(make, verdict):
    S = make()
    assert S.group.order in (788, 2520)
    fast = is_chiral_hypertope(S, check_all_k=True)
    oracle = chirality_bruteforce(S)
    assert fast.verdict == oracle.verdict == verdict
    assert fast.orbit_sizes == oracle.orbit_sizes == (S.group.order, S.group.order)
    assert not fast.cross_k_disagreement


def test_decision_and_oracle_leave_no_reference_cycles():
    """Everything the decision and the oracle allocate is freed by reference
    counting alone: the cyclic collector finds nothing."""
    specs = [cli.spec_from_mapping({"degree": S.group.degree,
                                    "generators": [list(r.images) for r in S.R],
                                    "options": {"check_all_k": True}})
             for S in (simplex_cplus(4), simplex_cplus(5), torus_p_cplus(101))]
    gc.collect()
    gc.disable()
    try:
        for spec in specs:
            cli.run(spec)
        assert gc.collect() == 0
        chirality_bruteforce(simplex_cplus(4))
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the graph layer against networkx ------------------------------------------

def _graph_layer_instances():
    """Geometries of every catalog entry, a seeded corpus sample, the rank-4
    and rank-5 simplices, the rank-2 hexagon, and two systems that fail
    geometry and connectedness."""
    out = []
    for name in catalog_names():
        out.append((name, associated_geometry(catalog_cplus(name))))
    for inst in random.Random(20261018).sample(build_corpus(), 40):
        out.append((inst.name, associated_geometry(build_cplus(inst.group, inst.R))))
    for rank in (4, 5):
        out.append((f"simplex-r{rank}", associated_geometry(simplex_cplus(rank))))
    out += [("hexagon", hexagon()), ("non-geometry", non_geometry_rank4())]
    out.append(("disconnected", disconnected_c4()))
    return out


def _every_flag_extends(flags, rank):
    """The geometry property as first defined: every flag lies in a chamber
    (a flag of one vertex per type)."""
    covered = {frozenset(sub) for c in flags if len(c) == rank for k in range(rank + 1)
               for sub in itertools.combinations(c, k)}
    return all(f in covered for f in flags)


def _networkx_thin_and_rc(nx, nx_graph, flags, types, rank):
    """Thinness and residual connectedness recomputed with networkx: the
    residue of a flag is the subgraph on its common neighbours."""
    thin, rc = True, nx.is_connected(nx_graph) if rank >= 2 else True
    for flag in flags:
        common = set(nx_graph)
        for v in flag:
            common &= set(nx_graph[v])
        if len(flag) == rank - 1:
            missing = set(range(rank)) - {types[v] for v in flag}
            thin &= sum(1 for v in common if types[v] in missing) == 2
        elif 0 < len(flag) < rank - 1 and len(common) > 1:
            rc &= nx.is_connected(nx_graph.subgraph(common))
    return thin, rc


def test_graph_layer_matches_networkx():
    """Edges against direct coset intersection (small instances), maximal
    cliques against ``networkx.find_cliques``, the flag walk of every type
    set against networkx's cliques of that type set, ``is_thin`` and
    ``is_residually_connected`` against networkx residues, and
    ``is_geometry`` against the every-flag-extends definition."""
    nx = pytest.importorskip("networkx")
    seen = collections.Counter()
    for name, geo in _graph_layer_instances():
        V = geo.num_vertices
        types = [geo.type_and_coset(v)[0] for v in range(V)]
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(V))
        nx_graph.add_edges_from((a, b) for a in range(V) for b in range(a + 1, V)
                                if geo.adjacency[a] >> b & 1)
        assert nx_graph.number_of_edges() == geo.num_edges, name
        if geo.group.order <= 60:
            members = [frozenset(_coset(geo, v)[1].elements()) for v in range(V)]
            for a, b in itertools.combinations(range(V), 2):
                direct = types[a] != types[b] and bool(members[a] & members[b])
                assert bool(geo.adjacency[a] >> b & 1) == direct, (name, a, b)
        cliques = chambers_via_maximal_cliques(geo)
        assert cliques == sorted(tuple(sorted(c)) for c in nx.find_cliques(nx_graph)), name
        # the flags are the cliques, the empty one included; the walk holds
        # each flag once, under its type set, in ascending order
        nx_cliques = [()] + [tuple(sorted(c)) for c in nx.enumerate_all_cliques(nx_graph)]
        by_type = collections.defaultdict(list)
        for c in nx_cliques:
            by_type[tuple(types[v] for v in c)].append(c)
        for k in range(geo.rank + 1):
            for J in itertools.combinations(range(geo.rank), k):
                assert [f for f, _ in geo._flag_tuples(J)] == sorted(by_type[J]), (name, J)
        flags = [frozenset(c) for c in nx_cliques]
        thin, rc = _networkx_thin_and_rc(nx, nx_graph, flags, types, geo.rank)
        assert geo.is_thin() == thin, name
        assert geo.is_residually_connected() == rc, name
        assert geo.is_geometry() == _every_flag_extends(flags, geo.rank), name
        seen.update([("thin", thin), ("rc", rc), ("geometry", geo.is_geometry())])
    assert all(seen[prop, value] for prop in ("thin", "rc", "geometry")
               for value in (True, False)), seen
