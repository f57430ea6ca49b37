"""Coset incidence systems: incidence, flags, residues, truncations, orbits."""

import itertools

import pytest

from hypertope.catalog import catalog_entry, catalog_names
from hypertope.cli import spec_from_mapping
from hypertope.corpus import (
    generating_tuples,
    rank3_group_list,
    rank4_group_list,
    symmetric,
    torus_rotation_group,
)
from hypertope.cosetgeo import CosetGeometry, Flag, build
from hypertope.cplus import associated_geometry, build_cplus
from hypertope.oracle import _vertex_moves
from hypertope.permcore import (
    Permutation,
    generate_group,
    right_coset,
)


def hexagon():
    """S3 with two point stabilizer-ish reflections: incidence graph is a 6-cycle."""
    G = symmetric(3)
    H1 = generate_group(3, [Permutation([1, 0, 2])])
    H2 = generate_group(3, [Permutation([0, 2, 1])])
    return build(G, [H1, H2])


def torus_system():
    G, (s, t) = torus_rotation_group()
    return associated_geometry(build_cplus(G, (s, s * t)))


def non_geometry_rank4():
    """Connected rank-4 system over C2^3 with a non-extendable rank-3 flag."""
    G = generate_group(6, [Permutation.from_cycles(6, [(0, 1)]),
                           Permutation.from_cycles(6, [(2, 3)]),
                           Permutation.from_cycles(6, [(4, 5)])])
    quads = ["(4 5)", "(2 3)", "(2 3)(4 5)", "(0 1)"]
    images = {"(4 5)": [0, 1, 2, 3, 5, 4], "(2 3)": [0, 1, 3, 2, 4, 5],
              "(2 3)(4 5)": [0, 1, 3, 2, 5, 4], "(0 1)": [1, 0, 2, 3, 4, 5]}
    parabolics = [generate_group(6, [Permutation(images[q])]) for q in quads]
    return build(G, parabolics)


def s4_rank4():
    """Rank-4 coset system of S4 from the three Coxeter transpositions."""
    G = symmetric(4)
    R = [Permutation.from_cycles(4, [(i, i + 1)]) for i in range(3)]
    return associated_geometry(build_cplus(G, R))


# -- incidence --------------------------------------------------------------

def test_cosets_intersect_matches_enumeration():
    geo = hexagon()
    H1, H2 = geo.parabolics
    for g1 in geo.group:
        for g2 in geo.group:
            c1 = right_coset(H1, g1)
            c2 = right_coset(H2, g2)
            direct = bool(set(c1.elements()) & set(c2.elements()))
            assert geo.incident(0, c1, 1, c2) == direct == geo.incident(1, c2, 0, c1)


@pytest.mark.parametrize("make", [non_geometry_rank4, s4_rank4])
def test_coset_map_matches_element_sets(make):
    geo = make()
    assert geo.rank == 4
    members = {i: {c: frozenset(c.elements()) for c in geo.elements_of_type(i)}
               for i in geo.type_set}
    for i in geo.type_set:
        cosets = geo.elements_of_type(i)
        # canonical order: ascending minimal member, which is the representative
        reps = [c.representative for c in cosets]
        assert reps == sorted(reps)
        assert all(c.representative == min(members[i][c]) for c in cosets)
        assert len(cosets) * geo.parabolics[i].order == geo.group.order
        # shift is element translation
        for c in cosets:
            for g in geo.group:
                assert members[i][geo.shift(i, c, g)] == frozenset(x * g for x in members[i][c])
        # incidence is nonempty intersection of the element sets
        for j in geo.type_set:
            for c1 in cosets:
                for c2 in geo.elements_of_type(j):
                    direct = bool(members[i][c1] & members[j][c2])
                    assert geo.incident(i, c1, j, c2) == direct


COLUMN_SYSTEMS = ([f"r3-{name}" for name, _ in rank3_group_list()]
                  + [f"r4-{name}" for name, _ in rank4_group_list()]
                  + [f"catalog-{name}" for name in catalog_names()])


def _column_system(system: str):
    """A corpus group with its least generating tuple of the rank, or a
    catalog instance, as a system."""
    kind, name = system.split("-", 1)
    if kind == "catalog":
        spec = spec_from_mapping(catalog_entry(name))
        return build_cplus(generate_group(spec.degree, spec.generators), spec.generators)
    groups = dict(rank3_group_list() if kind == "r3" else rank4_group_list())
    R = next(generating_tuples(groups[name], 2 if kind == "r3" else 3, limit=1))
    return build_cplus(groups[name], R)


@pytest.mark.parametrize("system", COLUMN_SYSTEMS)
def test_coset_columns_match_permutation_arithmetic(system):
    """Cosets, shifts by every element and the oracle's vertex moves, each
    against sets of permutation products built here."""
    geo = associated_geometry(_column_system(system))
    G = geo.group
    for i, H in enumerate(geo.parabolics):
        cosets = geo.elements_of_type(i)
        members = [frozenset(h * c.representative for h in H) for c in cosets]
        assert [c.representative for c in cosets] == sorted(min(m) for m in members)
        holder = {x: n for n, m in enumerate(members) for x in m}
        assert len(holder) == G.order
        for x in G:
            assert members[geo.coset_number(i, x)] == frozenset(h * x for h in H)
        for c, g in itertools.product(cosets, G):
            assert geo.shift(i, c, g) == cosets[holder[c.representative * g]]
    graph = geo.view()
    numbers = [{c: n for n, c in enumerate(geo.elements_of_type(i))} for i in geo.type_set]
    for g, move in zip(G.generators or G.elements, _vertex_moves(G, graph)):
        assert move == [graph.vertex(i, numbers[i][geo.shift(i, geo.elements_of_type(i)[c], g)])
                        for i, c in map(graph.type_and_coset, range(graph.num_vertices))]
    # flags built unchecked equal the checked constructor's
    assert all(f == Flag(f.items) for f in geo.chambers())
    assert all(f == Flag(f.items) for f in geo.flags_of_type([0, geo.rank - 1]))


def test_same_type_incidence_is_equality():
    geo = hexagon()
    a, b = geo.elements_of_type(0)[:2]
    assert geo.incident(0, a, 0, a)
    assert not geo.incident(0, a, 0, b)


# -- the hexagon ------------------------------------------------------------

def test_hexagon_shape():
    geo = hexagon()
    assert len(geo.elements_of_type(0)) == 3
    assert len(geo.elements_of_type(1)) == 3
    assert len(geo.chambers()) == 6
    assert geo.is_geometry() and geo.is_thin() and geo.is_connected()
    assert geo.is_residually_connected_graph()
    assert geo.is_flag_transitive()


def test_base_chamber_is_pairwise_incident():
    geo = torus_system()
    ch = geo.base_chamber()
    for (i, c1) in ch:
        for (j, c2) in ch:
            assert geo.incident(i, c1, j, c2) or (i, c1) == (j, c2)


# -- flags ------------------------------------------------------------------

def test_flag_rejects_duplicate_type():
    geo = hexagon()
    c = geo.elements_of_type(0)[0]
    d = geo.elements_of_type(0)[1]
    with pytest.raises(ValueError):
        Flag([(0, c), (0, d)])


def test_flags_of_type_counts_match_backtracking():
    geo = torus_system()
    view = geo.view()
    # rank-2 flags of type {0, 1} == incident pairs counted directly
    pairs = [(c1, c2) for c1 in geo.elements_of_type(0)
             for c2 in geo.elements_of_type(1) if geo.incident(0, c1, 1, c2)]
    assert len(view.flags_of_type([0, 1])) == len(pairs)


# -- structural predicates --------------------------------------------------

def test_disconnected_system():
    # C4 with both parabolics <g^2>: two components {H, Hg} x 2 types
    G = generate_group(4, [Permutation([1, 2, 3, 0])])
    H = generate_group(4, [Permutation([2, 3, 0, 1])])
    geo = build(G, [H, H])
    assert not geo.is_connected()
    assert not geo.is_residually_connected_graph()


def test_rank3_coset_systems_are_geometries():
    # any element of a pairwise intersection extends the flag, so rank <= 3
    # coset systems never fail the geometry property
    for geo in (hexagon(), torus_system()):
        assert geo.is_geometry()


def test_non_geometry_requires_rank4():
    geo = non_geometry_rank4()
    assert geo.is_connected()
    assert not geo.is_geometry()


def test_thin_geometry_has_unique_adjacent_chamber_per_type():
    geo = torus_system()
    assert geo.is_thin()
    ch = geo.base_chamber()
    chambers = geo.chambers()
    assert ch in chambers
    for i in geo.type_set:
        # chambers agreeing with ch outside type i and differing at i
        adjacent = [d for d in chambers
                    if [c for t, c in d if t != i] == [c for t, c in ch if t != i]
                    and d.get(i) != ch.get(i)]
        assert len(adjacent) == 1


# -- truncations ------------------------------------------------------------

def test_truncation_selects_parabolics():
    geo = torus_system()
    tr = geo.truncation([0, 2])
    assert tr.parabolics == (geo.parabolics[0], geo.parabolics[2])
    with pytest.raises(ValueError):
        geo.truncation([])
    with pytest.raises(ValueError):
        geo.truncation([0, 5])


def test_rank2_truncations_are_chamber_transitive():
    geo = torus_system()
    for i in geo.type_set:
        J = [j for j in geo.type_set if j != i]
        assert geo.truncation(J).is_chamber_transitive()


# -- orbits and transitivity ------------------------------------------------

def test_torus_system_has_two_chamber_orbits():
    geo = torus_system()
    chambers = set(geo.chambers())
    first = geo.flag_orbit(geo.base_chamber())
    second = geo.flag_orbit(next(iter(chambers - first)))
    assert len(first) == len(second) == 20
    assert first | second == chambers
    assert not geo.is_chamber_transitive()


def test_flag_orbit_is_invariant_set():
    geo = hexagon()
    orbit = geo.flag_orbit(geo.base_chamber())
    for f in orbit:
        for g in geo.group:
            assert Flag((t, geo.shift(t, c, g)) for t, c in f) in orbit


def test_residual_connectedness_group_vs_graph():
    for geo in (hexagon(),):
        assert geo.is_flag_transitive()
        assert (geo.is_residually_connected_group()
                == geo.is_residually_connected_graph())


def test_parabolic_not_subgroup_rejected():
    G = generate_group(3, [Permutation([1, 2, 0])])
    H = generate_group(3, [Permutation([1, 0, 2])])
    with pytest.raises(ValueError):
        CosetGeometry(G, [H])
