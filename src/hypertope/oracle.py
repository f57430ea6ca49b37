"""Brute-force reference path: explicit incidence graph, maximal-clique
chambers, direct orbit counting, direct chirality verdict.

This module exists to be slow and obviously correct; it certifies the fast
group-theoretic decision.  What it shares with the fast path:

- the kernel: permutations, the element numbering and actions fixed at
  closure, unchecked products;
- the system's maximal parabolics: the oracle builds its coset geometry
  (``associated_geometry``) over their ``PermGroup`` views, while the fast
  path never builds a geometry and reads the cosets of (i) and (iii) from
  the same parabolics as index sets;
- the idea of the inverting-automorphism test, a pair search that is
  group-theoretic in both routes.  The code differs: the oracle multiplies
  permutations (``inverting_automorphism_exists``), the fast path looks up
  indices (``extends_on_indices``).

A kernel bug would therefore reach both verdicts alike;
``tests/test_kernel_crosscheck.py`` checks the kernel's group, parabolic and
intersection orders against sympy, which shares no code with it.
"""

from __future__ import annotations

from typing import Optional

from .cosetgeo import CosetGeometry
from .cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    ChiralityReport,
    CPlusSystem,
    associated_geometry,
)
from .permcore import Permutation, RightCoset, inverting_automorphism_exists

DEFAULT_VERTEX_CAP = 50_000


class VertexCapError(RuntimeError):
    """The incidence graph has more vertices than the configured cap."""


class IncidenceGraph:
    """Explicit incidence graph of a coset incidence system.

    Vertices are (type, coset) pairs in deterministic order (type, then
    canonical coset order); edges join incident elements of distinct types.
    """

    def __init__(self, vertices: list[tuple[int, RightCoset]],
                 adjacency: list[set[int]]):
        self.vertices = vertices
        self.adjacency = adjacency
        self.index = {v: i for i, v in enumerate(vertices)}

    def type_of(self, v: int) -> int:
        return self.vertices[v][0]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def build_incidence_graph(geometry: CosetGeometry,
                          vertex_cap: int = DEFAULT_VERTEX_CAP) -> IncidenceGraph:
    """Materialize all elements and all pairwise incidences."""
    vertices: list[tuple[int, RightCoset]] = []
    for i in geometry.type_set:
        for c in geometry.elements_of_type(i):
            vertices.append((i, c))
            if len(vertices) > vertex_cap:
                raise VertexCapError(f"incidence graph exceeds vertex cap {vertex_cap}")
    adjacency: list[set[int]] = [set() for _ in vertices]
    for a, (i, c1) in enumerate(vertices):
        for b in range(a + 1, len(vertices)):
            j, c2 = vertices[b]
            if i != j and geometry.incident(i, c1, j, c2):
                adjacency[a].add(b)
                adjacency[b].add(a)
    return IncidenceGraph(vertices, adjacency)


def chambers_via_maximal_cliques(graph: IncidenceGraph) -> list[frozenset[int]]:
    """All maximal cliques, via pivoting Bron-Kerbosch.

    The type partition keeps this benign: a clique holds at most one vertex
    per type.  For a geometry the size-r cliques are exactly the chambers.
    """
    cliques: list[frozenset[int]] = []
    adjacency = graph.adjacency

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adjacency[v] & p))
        for v in sorted(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(graph.num_vertices)), set())
    return sorted(cliques, key=sorted)


def _clique_orbits(geometry: CosetGeometry, graph: IncidenceGraph,
                   cliques: list[frozenset[int]],
                   generators) -> list[list[frozenset[int]]]:
    """Orbits of right multiplication on cliques, ordered by minimal clique."""
    clique_set = set(cliques)

    def act(clique: frozenset[int], g: Permutation) -> frozenset[int]:
        return frozenset(graph.index[(i, geometry.shift(i, c, g))] for i, c in
                         (graph.vertices[v] for v in clique))

    seen: set[frozenset[int]] = set()
    orbits = []
    for start in cliques:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for c in frontier:
                for g in generators:
                    img = act(c, g)
                    if img not in orbit:
                        orbit.add(img)
                        new.append(img)
            frontier = new
        if not orbit <= clique_set:
            raise RuntimeError("group action does not preserve the clique set")
        seen.update(orbit)
        orbits.append(sorted(orbit, key=sorted))
    return orbits


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

    view = geometry.view()
    thin_rc_geometry = (view.is_geometry() and view.is_thin()
                        and view.is_residually_connected())

    generators = S.group.generators or S.group.elements
    orbits = _clique_orbits(geometry, graph, cliques, generators)

    cross_orbit = True
    if len(orbits) == 2:
        orbit_of = {c: n for n, orbit in enumerate(orbits) for c in orbit}
        for a, c1 in enumerate(cliques):
            for c2 in cliques[a + 1:]:
                if len(c1 & c2) == len(c1) - 1 and orbit_of[c1] == orbit_of[c2]:
                    cross_orbit = False
                    break
            if not cross_orbit:
                break

    inverting = inverting_automorphism_exists(S.group, S.R)

    orbit_sizes: Optional[tuple[int, int]] = None
    if len(orbits) == 2:
        orbit_sizes = (len(orbits[0]), len(orbits[1]))

    if thin_rc_geometry and len(orbits) == 2 and cross_orbit:
        if inverting:
            return ChiralityReport(REGULAR, 4, {4: False}, k_used=0,
                                   orbit_sizes=orbit_sizes)
        return ChiralityReport(CHIRAL, None, {4: True}, k_used=0,
                               orbit_sizes=orbit_sizes)
    return ChiralityReport(NOT_HYPERTOPE, None, {4: not inverting}, k_used=0,
                           orbit_sizes=orbit_sizes)
