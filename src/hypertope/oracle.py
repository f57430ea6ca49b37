"""Brute-force reference path: explicit incidence graph, maximal-clique
chambers, direct orbit counting, direct chirality verdict.

This module exists to be obviously correct; it certifies the fast
group-theoretic decision.  It computes on one incidence graph, the coset
geometry's ``view``: the cosets of the per-type coset columns, each built
from permutation products h g over G, numbered, with a neighbour bitmask
per vertex.  The chambers are its maximal cliques, on which each generator
acts through one vertex permutation, read from the same columns.  What it
shares with the fast path:

- the kernel: permutations, the element numbering and actions fixed at
  closure, unchecked products;
- the system's maximal parabolics: the oracle builds its coset geometry
  (``associated_geometry``) over their ``PermGroup`` views, while the fast
  path never builds a geometry and reads the cosets of (i) and (iii) from
  the same parabolics as index sets;
- the idea of the inverting-automorphism test, a pair search that is
  group-theoretic in both routes.  The code differs: the oracle multiplies
  permutations, as image tuples (``inverting_automorphism_exists``), the
  fast path looks up indices (``extends_on_indices``).

A kernel bug would therefore reach both verdicts alike;
``tests/test_kernel_crosscheck.py`` checks the kernel's group, parabolic and
intersection orders against sympy, which shares no code with it, and
``tests/test_oracle.py`` checks the graph layer against networkx.
"""

from __future__ import annotations

from .cosetgeo import CosetGeometry, TypedElement, maximal_cliques
from .cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    ChiralityReport,
    CPlusSystem,
    associated_geometry,
)
from .permcore import inverting_automorphism_exists

DEFAULT_VERTEX_CAP = 50_000


class VertexCapError(RuntimeError):
    """The incidence graph has more vertices than the configured cap."""


class IncidenceGraph:
    """Explicit incidence graph of a coset incidence system.

    Vertices are (type, coset) pairs in deterministic order (type, then
    canonical coset order); bit b of ``adjacency[a]`` is set iff a and b
    are incident elements of distinct types.
    """

    def __init__(self, vertices: list[TypedElement], adjacency: list[int],
                 index: dict[TypedElement, int]):
        self.vertices = vertices
        self.adjacency = adjacency
        self.index = index

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


def build_incidence_graph(geometry: CosetGeometry,
                          vertex_cap: int = DEFAULT_VERTEX_CAP) -> IncidenceGraph:
    """All elements and all pairwise incidences, from the geometry's view."""
    if sum(len(geometry.elements_of_type(i)) for i in geometry.type_set) > vertex_cap:
        raise VertexCapError(f"incidence graph exceeds vertex cap {vertex_cap}")
    view = geometry.view()
    return IncidenceGraph(view.vertices, view.adjacency, view.index)


def chambers_via_maximal_cliques(graph: IncidenceGraph) -> list[frozenset[int]]:
    """All maximal cliques, via pivoting Bron-Kerbosch over bitmasks.

    The type partition keeps this benign: a clique holds at most one vertex
    per type.  For a geometry the size-r cliques are exactly the chambers.
    """
    everything = (1 << graph.num_vertices) - 1
    return sorted((frozenset(c) for c in maximal_cliques(graph.adjacency, everything)),
                  key=sorted)


def _vertex_moves(geometry: CosetGeometry, graph: IncidenceGraph) -> list[list[int]]:
    """Each generator's permutation of the vertices under right multiplication.

    Vertex (i, c) goes to the type-i coset holding ``c.representative * g``:
    one product, then the type's coset column.  The type-i vertices follow
    the coset order from the first of them on."""
    first: dict[int, int] = {}
    for n, (i, _) in enumerate(graph.vertices):
        first.setdefault(i, n)
    return [[first[i] + geometry.coset_number(i, c.representative * g) for i, c in graph.vertices]
            for g in geometry.group.generators or geometry.group.elements]


def _clique_orbits(geometry: CosetGeometry, graph: IncidenceGraph,
                   cliques: list[frozenset[int]]) -> list[set[frozenset[int]]]:
    """Orbits of right multiplication on cliques, ordered by minimal clique.

    Each generator of the group acts through one permutation of the vertices."""
    moves = _vertex_moves(geometry, graph)
    clique_set = set(cliques)
    seen: set[frozenset[int]] = set()
    orbits = []
    for start in cliques:
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            new = []
            for c in frontier:
                for move in moves:
                    img = frozenset(move[v] for v in c)
                    if img not in orbit:
                        orbit.add(img)
                        new.append(img)
            frontier = new
        if not orbit <= clique_set:
            raise RuntimeError("group action does not preserve the clique set")
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _adjacent_pair_in_one_orbit(orbits: list[set[frozenset[int]]]) -> bool:
    """Do two chambers of one orbit share a ridge (all but one element)?"""
    ridges = [(n, c - {v}) for n, orbit in enumerate(orbits) for c in orbit for v in c]
    return len(set(ridges)) < len(ridges)


def chirality_bruteforce(S: CPlusSystem,
                         vertex_cap: int = DEFAULT_VERTEX_CAP) -> ChiralityReport:
    """Direct chirality verdict from the incidence graph.

    Chiral: the system is a thin, residually connected geometry, the group
    has exactly two orbits on the maximal cliques, every adjacent chamber
    pair is cross-orbit, and no automorphism inverts all generators.  With
    the same two fused orbits but an inverting automorphism present, the
    system is a regular hypertope.  Anything else is not a hypertope.
    """
    geometry = associated_geometry(S)
    graph = build_incidence_graph(geometry, vertex_cap=vertex_cap)
    cliques = chambers_via_maximal_cliques(graph)

    # every chamber is a maximal clique; in a geometry there are no others
    view = geometry.view()
    thin_rc_geometry = (len(cliques) == len(view.chambers()) and view.is_thin()
                        and view.is_residually_connected())

    orbits = _clique_orbits(geometry, graph, cliques)
    inverting = inverting_automorphism_exists(S.group, S.R)

    orbit_sizes = (len(orbits[0]), len(orbits[1])) if len(orbits) == 2 else None
    if (thin_rc_geometry and len(orbits) == 2
            and not _adjacent_pair_in_one_orbit(orbits)):
        if inverting:
            return ChiralityReport(REGULAR, 4, {4: False}, k_used=0,
                                   orbit_sizes=orbit_sizes)
        return ChiralityReport(CHIRAL, None, {4: True}, k_used=0,
                               orbit_sizes=orbit_sizes)
    return ChiralityReport(NOT_HYPERTOPE, None, {4: not inverting}, k_used=0,
                           orbit_sizes=orbit_sizes)
