"""Brute-force reference path: explicit incidence graph, maximal flags as
chambers, direct orbit counting, direct chirality verdict.

This module exists to be obviously correct; it certifies the fast
group-theoretic decision.  It computes on one incidence graph, a
``cosetgeo.IncidenceView`` of G over the system's maximal parabolic index
sets: the cosets of each type are the orbit of G_i under the generators'
action arrays, numbered by least position, with a neighbour bitmask per
vertex.  One walk over the view's flags gives the chambers, thinness,
residual connectedness and the maximal cliques: vertices of one type are
never adjacent, so every clique is a flag, and a flag is maximal iff it has
no common neighbour (no Bron–Kerbosch search).  Cliques are ascending
vertex tuples.  Each generator g moves vertex (i, c) to the type-i coset
holding the position ``act[least position of c]``, with ``act`` g's action
array; it is read from the type's coset column with no product, and so g
permutes the cliques by number (``cosetgeo.flag_orbits``, the routine that
also decides the geometry layer's chamber- and flag-transitivity).  The
generators are R, which generates G: the view, the clique orbits and the
pair search read the system's arrays of R (``CPlusSystem.actions``), built
once by ``build_cplus``.  What it shares with the fast path:

- the kernel: permutations, the element numbering fixed at closure and
  the action arrays of R built from it, unchecked products;
- the system's maximal parabolics as index sets of G
  (``CPlusSystem.maximal_indices``), generated from the actions of the
  α_i⁻¹α_j.  The fast path reads the cosets of (i) and (iii) from the same
  sets but never builds the geometry;
- the idea of the inverting-automorphism test, a pair search that is
  group-theoretic in both routes.  The code differs: the oracle multiplies
  permutations, as image tuples (``extends_to_homomorphism``), the fast
  path looks up indices (``extends_on_indices``).

A kernel bug would therefore reach both verdicts alike;
``tests/test_kernel_crosscheck.py`` checks the kernel's group order, each
maximal parabolic index set as a set of elements, the intersection orders
and condition (iv) against sympy, which shares no code with it, and
``tests/test_oracle.py`` checks the graph layer against networkx and
against the geometry built from ``PermGroup`` closures of the parabolics.

The verdict states the definition in full, but at rank >= 3 the thinness
and geometry checks never decide it: two clique orbits with no ridge
shared inside one orbit already give a thin geometry.  Write C0 for the
base chamber (G_0, ..., G_{r-1}), P_k for its panel without type k, and
α_ab = α_a^-1 α_b, which lies in every G_j with j ∉ {a, b}.

- No panel lies on three chambers: two of them would share it inside one
  orbit.
- For m ≠ k, G_k α_mk meets every G_j with j ≠ k: for j ≠ m it holds
  α_mk, and for j = m, with a third type l, α_mk = α_ml α_lk lies in
  G_k G_m.  So P_k ∪ {G_k α_mk} is a chamber.  C0 α_jk differs from C0 at
  most at types j and k and lies in C0's orbit, so α_jk lies in both G_j
  and G_k or in neither.
- Each G_k ≠ G.  If G_i = G, then C0 α_ik differs from C0 at most at type
  k, so α_ik ∈ G_k for every k ≠ i; then α_kb = α_ki α_ib ∈ G_k, so every
  G_k = G, and the one chamber is one orbit.  As G_k ≠ G, some α_mk is not
  in G_k, and P_k lies on a second chamber D_k = P_k ∪ {G_k α_mk}, the
  same for each such m.
- It is a geometry.  A maximal clique that is not a chamber has an orbit
  of non-chambers, so the chambers would form one orbit, holding C0 and
  D_k on the ridge P_k.
- It is thin.  D_k is not in C0's orbit, so every corank-1 flag, which
  lies in a chamber, is a panel of C0 or of D_k moved by some g.  P_k lies
  on C0 and D_k.  Take j ≠ k.  If α_jk ∉ G_k, then D_k = D_j α_jk, and the
  panel of D_k without type j is P_j α_jk.  Otherwise α_jk lies in every
  G_l; then α_jm ∉ G_m, or α_mk = α_mj α_jk would lie in G_k.  So
  D_k = D_m α_mk, and the panel is the type-j panel of D_m, which is of
  the first kind, moved by α_mk.  Each lies on two chambers.

``tests/test_oracle.py`` pins both checks directly and checks the claim on
the corpus.
"""

from __future__ import annotations

from .cosetgeo import IncidenceView, flag_orbits
from .cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    ChiralityReport,
    CPlusSystem,
)
from .permcore import extends_to_homomorphism

DEFAULT_VERTEX_CAP = 50_000

Clique = tuple[int, ...]


class VertexCapError(RuntimeError):
    """The incidence graph has more vertices than ``DEFAULT_VERTEX_CAP``."""


def build_incidence_graph(S: CPlusSystem) -> IncidenceView:
    """All elements and all pairwise incidences of the system's coset
    geometry, the ``IncidenceView`` of G over the maximal parabolic index
    sets.

    The module's ``DEFAULT_VERTEX_CAP`` is checked first, read at the call,
    on the vertex count sum_i |G| / |G_i|.  The cosets are the orbits under
    R, through the system's arrays.  Vertices are (type, coset number) pairs
    in deterministic order (type, then canonical coset order); bit b of
    ``adjacency[a]`` is set iff a and b are incident elements of distinct
    types."""
    G = S.group
    maximal = [S.maximal_indices(i) for i in S.type_set]
    if sum(G.order // len(H) for H in maximal) > DEFAULT_VERTEX_CAP:
        raise VertexCapError(f"incidence graph exceeds vertex cap {DEFAULT_VERTEX_CAP}")
    return IncidenceView(G, maximal, S.actions)


def chambers_via_maximal_cliques(graph: IncidenceView) -> list[Clique]:
    """All maximal cliques as ascending vertex tuples, ascending: the flags
    of the graph's flag walk with no common neighbour.

    A clique holds at most one vertex per type, so it is a flag.  For a
    geometry the size-r cliques are exactly the chambers.
    """
    return graph.maximal_flags()


def _adjacent_pair_in_one_orbit(orbits: list[list[Clique]]) -> bool:
    """Do two chambers of one orbit share a ridge (all but one element)?"""
    for orbit in orbits:
        ridges = [c[:k] + c[k + 1:] for c in orbit for k in range(len(c))]
        if len(set(ridges)) < len(ridges):
            return True
    return False


def chirality_bruteforce(S: CPlusSystem) -> ChiralityReport:
    """Direct chirality verdict from the incidence graph.

    Chiral: the system is a thin, residually connected geometry, the group
    has exactly two orbits on the maximal cliques, every adjacent chamber
    pair is cross-orbit, and no automorphism inverts all generators.  With
    the same two fused orbits but an inverting automorphism present, the
    system is a regular hypertope.  Anything else is not a hypertope.
    """
    graph = build_incidence_graph(S)
    cliques = chambers_via_maximal_cliques(graph)
    thin_rc_geometry = graph.is_geometry() and graph.is_thin() and graph.is_residually_connected()

    orbits = flag_orbits(graph, cliques)
    # R generates G, so when r -> r^-1 extends to a homomorphism its image
    # holds every r^-1 and is G: the extension is an automorphism
    inverting = extends_to_homomorphism(S.group, S.actions, [r.inverse() for r in S.R])

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
