"""Coset incidence systems: incidence, flags, residues, truncations, orbits."""

import itertools

import pytest

from conftest import catalog_cplus, hexagon, non_geometry_rank4, torus_cplus
from hypertope.catalog import catalog_names
from hypertope.corpus import (
    generating_tuples,
    rank3_group_list,
    rank4_group_list,
    symmetric,
)
from hypertope.cosetgeo import CosetGeometry, build, flag_orbits, vertex_moves
from hypertope.cplus import associated_geometry, build_cplus
from hypertope.permcore import (
    Permutation,
    generate_group,
    right_coset,
)


def torus_system():
    return associated_geometry(torus_cplus())


def s4_rank4():
    """Rank-4 coset system of S4 from the three Coxeter transpositions."""
    G = symmetric(4)
    R = [Permutation.from_cycles(4, [(i, i + 1)]) for i in range(3)]
    return associated_geometry(build_cplus(G, R))


def cosets(geo, i):
    """The type-i cosets of ``geo`` as ``RightCoset``s, in the geometry's
    numbering: coset c is H_i g for g the element at ``least[i][c]``."""
    G = geo.group
    return [right_coset(geo.parabolics[i], G.element(x)) for x in geo.least[i]]


def base_chamber(geo):
    """The chamber of the identity cosets, as a vertex tuple."""
    return tuple(geo.vertex(i, 0) for i in geo.type_set)


def translate(geo, flag, g):
    """The image of a vertex tuple under right multiplication by g, by
    permutation products: each coset's least element times g."""
    return tuple(geo.vertex(i, geo.coset_number(i, geo.group.element(geo.least[i][c]) * g))
                 for i, c in map(geo.type_and_coset, flag))


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
    typed = [cosets(geo, i) for i in geo.type_set]
    members = [[frozenset(c.elements()) for c in of_type] for of_type in typed]
    for i, of_type in enumerate(typed):
        # canonical order: ascending minimal member, which is the representative
        reps = [c.representative for c in of_type]
        assert reps == sorted(reps)
        assert reps == [geo.group.element(x) for x in geo.least[i]]
        assert len(of_type) * geo.parabolics[i].order == geo.group.order
        # the coset of a translated representative is the translated coset
        for n, c in enumerate(of_type):
            for g in geo.group:
                image = members[i][geo.coset_number(i, c.representative * g)]
                assert image == frozenset(x * g for x in members[i][n])
        # incidence is nonempty intersection of the element sets
        for j in geo.type_set:
            for n1, c1 in enumerate(of_type):
                for n2, c2 in enumerate(typed[j]):
                    direct = bool(members[i][n1] & members[j][n2])
                    assert geo.incident(i, c1, j, c2) == direct


COLUMN_SYSTEMS = ([f"r3-{name}" for name, _ in rank3_group_list()]
                  + [f"r4-{name}" for name, _ in rank4_group_list()]
                  + [f"catalog-{name}" for name in catalog_names()])


def _column_system(system: str):
    """A corpus group with its least generating tuple of the rank, or a
    catalog instance, as a system."""
    kind, name = system.split("-", 1)
    if kind == "catalog":
        return catalog_cplus(name)
    groups = dict(rank3_group_list() if kind == "r3" else rank4_group_list())
    R = next(generating_tuples(groups[name], 2 if kind == "r3" else 3, limit=1))
    return build_cplus(groups[name], R)


@pytest.mark.parametrize("system", COLUMN_SYSTEMS)
def test_coset_columns_match_permutation_arithmetic(system):
    """Cosets, the coset of every element and each generator's vertex move,
    each against sets of permutation products built here."""
    geo = associated_geometry(_column_system(system))
    G = geo.group
    holders = []
    for i, H in enumerate(geo.parabolics):
        members = [frozenset(h * G.element(x) for h in H) for x in geo.least[i]]
        assert [G.element(x) for x in geo.least[i]] == sorted(min(m) for m in members)
        holder = {x: n for n, m in enumerate(members) for x in m}
        assert len(holder) == G.order
        for x in G:
            assert members[geo.coset_number(i, x)] == frozenset(h * x for h in H)
        holders.append(holder)
    # the vertex (i, c) moves under g to the type-i coset holding (least of c) * g
    for g, move in zip(G.generators, vertex_moves(geo)):
        assert move == [geo.vertex(i, holders[i][G.element(geo.least[i][c]) * g])
                        for i, c in map(geo.type_and_coset, range(geo.num_vertices))]


def test_same_type_incidence_is_equality():
    geo = hexagon()
    a, b = cosets(geo, 0)[:2]
    assert geo.incident(0, a, 0, a)
    assert not geo.incident(0, a, 0, b)


# -- the hexagon ------------------------------------------------------------

def test_hexagon_shape():
    geo = hexagon()
    assert len(cosets(geo, 0)) == 3
    assert len(cosets(geo, 1)) == 3
    assert len(geo.chambers()) == 6
    assert geo.is_geometry() and geo.is_thin() and geo.is_connected()
    assert geo.is_residually_connected_graph()
    assert geo.is_flag_transitive()


def test_base_chamber_is_pairwise_incident():
    geo = torus_system()
    base = [right_coset(H, geo.group.element(0)) for H in geo.parabolics]
    for i, c1 in enumerate(base):
        for j, c2 in enumerate(base):
            assert geo.incident(i, c1, j, c2)
    assert [cosets(geo, i)[0] for i in geo.type_set] == base
    assert base_chamber(geo) in geo.chambers()


# -- flags ------------------------------------------------------------------

def test_flags_of_type_counts_match_backtracking():
    geo = torus_system()
    # rank-2 flags of type {0, 1} == incident pairs counted directly
    pairs = [(c1, c2) for c1 in cosets(geo, 0)
             for c2 in cosets(geo, 1) if geo.incident(0, c1, 1, c2)]
    assert len(geo.flags_of_type([0, 1])) == len(pairs)
    # J is a set of types: a repeated type names the same flags
    assert geo.flags_of_type([1, 0, 1]) == geo.flags_of_type([0, 1])
    six = hexagon()
    assert len(six.flags_of_type([0, 0])) == len(six.flags_of_type([0])) == 3


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
    ch = base_chamber(geo)
    chambers = geo.chambers()
    assert ch in chambers
    for i in geo.type_set:
        # chambers agreeing with ch outside type i and differing at i
        adjacent = [d for d in chambers
                    if d[:i] + d[i + 1:] == ch[:i] + ch[i + 1:] and d[i] != ch[i]]
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
    first = set(geo.flag_orbit(base_chamber(geo)))
    second = set(geo.flag_orbit(min(chambers - first)))
    assert len(first) == len(second) == 20
    assert first | second == chambers
    assert not geo.is_chamber_transitive()


def test_flag_orbit_is_invariant_set():
    geo = hexagon()
    orbit = geo.flag_orbit(base_chamber(geo))
    for f in orbit:
        for g in geo.group:
            assert translate(geo, f, g) in orbit
    with pytest.raises(ValueError):
        geo.flag_orbit((0, 1, 2))


def test_flag_transitivity_of_a_non_geometry_sweeps_every_type():
    """The non-geometry branch of ``is_flag_transitive``: the orbits of G on
    the flags of every type set, counted from products of ``RightCoset``
    representatives, against ``flag_orbits``.  The identity cosets give a
    flag of every type set that extends to a chamber, so a non-geometry has
    two orbits on the flags of some type set; here only on type {0, 1, 2}."""
    geo = non_geometry_rank4()
    assert not geo.is_geometry()
    G = geo.group
    counts = {}
    for k in range(1, geo.rank + 1):
        for J in itertools.combinations(geo.type_set, k):
            flags = [tuple(cosets(geo, i)[c] for i, c in map(geo.type_and_coset, f))
                     for f in geo.flags_of_type(J)]
            orbits = {frozenset(tuple(right_coset(geo.parabolics[i], c.representative * g)
                                      for i, c in zip(J, flag)) for g in G)
                      for flag in flags}
            counts[J] = len(orbits)
            assert len(flag_orbits(geo, geo.flags_of_type(J))) == counts[J], J
    assert {J for J, n in counts.items() if n != 1} == {(0, 1, 2)}
    assert not geo.is_flag_transitive()


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
