"""Coset incidence systems in the sense of Tits.

Elements of type i are the right cosets of the i-th distinguished subgroup;
two cosets are incident iff they intersect.  Flags, truncations and the
geometric property tests (geometry / thin / connected / residually
connected / chamber- and flag-transitive) all live here.

One builder, ``IncidenceView(G, subgroups, actions)``, makes the incidence
graph from G, per type a subgroup given as a set of positions of G, and the
action arrays of a generating set of G, which its caller builds and the
view keeps.  The cosets of a type are the orbit of the subgroup under right
multiplication by those generators: (H x) g = H (x g), one lookup in g's
action array per element (``permcore.coset_column``).  Each coset is
numbered by its least position, which is the position of its canonical
(least) representative, because positions follow the sorted order of the
elements.  The view keeps, per type, the coset number of each position
(the coset column) and the least position of each coset, and per vertex an
integer bitmask of its neighbours, the cosets meeting it, read off the
columns in O(|G| r^2).  The oracle builds it from the system's
maximal parabolic index sets and the arrays of R.  A ``CosetGeometry`` is
itself a view, built once at construction from the positions its
``PermGroup`` parabolics generate and the arrays of G's generators.  Flags
and chambers are the view's vertex tuples everywhere.

One walk over the view's flags, made once, records each flag with the mask
of its common neighbours.  Flags, chambers, thinness, residual
connectedness and the maximal flags read that walk: vertices of one type
are never adjacent, so every clique is a flag, and a flag is maximal iff it
has no common neighbour.  Each generator of G permutes the vertices
(``vertex_moves``), and so the flags of one type set; one breadth-first
search over flag numbers (``flag_orbits``) gives the oracle's clique
orbits, ``CosetGeometry.flag_orbit`` and the chamber- and
flag-transitivity tests.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .permcore import (
    PermGroup,
    Permutation,
    RightCoset,
    coset_column,
    generated_indices,
    product_set,  # noqa: F401 -- perfbench/test_perfbench.py reaches it as cosetgeo.product_set
)

FlagTuple = tuple[tuple[int, ...], int]  # a flag's vertices, ascending, and its common neighbours


class IncidenceView:
    """The incidence graph of a coset system, on numbered vertices with
    bitmask edges, made from the coset columns of its types.

    ``columns[i][x]`` is the number of the type-i coset holding position x
    of G, and ``least[i][c]`` the least position in coset c.  The type-i
    vertices are numbered consecutively from ``offsets[i]``: vertex
    ``offsets[i] + c`` is the pair (type i, coset number c).  Bit m of
    ``adjacency[n]`` is set iff vertices n and m are incident and of
    different types; ``type_masks`` holds the vertices of each type.
    ``generator_actions`` are the action arrays of a generating set of G,
    handed to the view and read by ``vertex_moves``.  A flag
    is a tuple of pairwise adjacent vertices, ascending, which is also type
    order.  A view is immutable, so its flag walk is built once and kept.
    """

    def __init__(self, G: PermGroup, subgroups: Sequence[Collection[int]],
                 actions: Sequence[Sequence[int]]):
        """The coset system of G over ``subgroups``, type i's subgroup given
        as a set of positions of G, with its cosets numbered by
        ``coset_column`` under ``actions``, the arrays of elements that
        generate G.  The cosets of x ∈ G, one per type, pairwise meet, and
        every meeting pair arises so: the edges are the distinct pairs of
        entries of two columns at one position, O(|G| r^2)."""
        self.generator_actions = tuple(actions)
        cosets = [coset_column(H, self.generator_actions, G.order) for H in subgroups]
        self.columns = [column for column, _ in cosets]
        self.least = [least for _, least in cosets]
        *self.offsets, self.num_vertices = itertools.accumulate(map(len, self.least), initial=0)
        self.type_masks = {i: ((1 << len(least)) - 1) << offset
                           for i, (least, offset) in enumerate(zip(self.least, self.offsets))}
        self.type_set = tuple(range(len(self.least)))
        self.mask = (1 << self.num_vertices) - 1
        self.adjacency = [0] * self.num_vertices
        vertex_columns = [[offset + c for c in column]
                          for offset, column in zip(self.offsets, self.columns)]
        for a, b in itertools.combinations(vertex_columns, 2):
            for u, w in set(zip(a, b)):
                self.adjacency[u] |= 1 << w
                self.adjacency[w] |= 1 << u
        self._flags: Optional[dict[tuple[int, ...], list[FlagTuple]]] = None

    @property
    def rank(self) -> int:
        return len(self.type_set)

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adjacency) // 2

    def vertex(self, i: int, c: int) -> int:
        """The number of the vertex of type i and coset number c."""
        return self.offsets[i] + c

    def type_and_coset(self, n: int) -> tuple[int, int]:
        """The type and the coset number of vertex n."""
        i = bisect.bisect_right(self.offsets, n) - 1
        return i, n - self.offsets[i]

    def _walk(self) -> dict[tuple[int, ...], list[FlagTuple]]:
        """Every flag with its common neighbours, grouped by type set, each
        group in canonical order; walked once and kept."""
        if self._flags is None:
            self._flags = {(): [((), self.mask)]}
            _walk_flags(self.adjacency, [(t, self.type_masks[t]) for t in self.type_set],
                        0, (), (), self.mask, self._flags)
        return self._flags

    def _flag_tuples(self, J: Sequence[int]) -> list[FlagTuple]:
        """(vertices, common neighbours) of each flag of type J, in canonical order."""
        return self._walk().get(tuple(J), [])

    def flags_of_type(self, J: Iterable[int]) -> list[tuple[int, ...]]:
        """All flags with domain exactly the set J, as vertex tuples, in canonical order."""
        J = sorted(set(J))
        if not set(J) <= set(self.type_set):
            raise ValueError("flag type outside the type set")
        return [f for f, _ in self._flag_tuples(J)]

    def chambers(self) -> list[tuple[int, ...]]:
        """The flags of every type, as vertex tuples, in canonical order."""
        return [f for f, _ in self._flag_tuples(self.type_set)]

    def maximal_flags(self) -> list[tuple[int, ...]]:
        """The flags with no common neighbour, ascending.  Vertices of one
        type are never adjacent, so these are the maximal cliques."""
        return sorted(f for flags in self._walk().values() for f, common in flags if not common)

    def is_connected(self) -> bool:
        """Literal incidence-graph connectivity (isolated vertices count)."""
        return _connected(self.adjacency, self.mask)

    def is_geometry(self) -> bool:
        """Is every maximal flag a chamber?  (Buekenhout's definition: every
        flag then extends to a chamber.)  A chamber has no common neighbour,
        so the chambers are among the maximal flags: it is one iff there are
        as many of them."""
        maximal = sum(1 for flags in self._walk().values() for _, common in flags if not common)
        return maximal == len(self.chambers())

    def is_thin(self) -> bool:
        """Every corank-1 flag is incident to exactly two elements of the missing type."""
        for missing in self.type_set:
            m = self.type_masks[missing]
            for _, common in self._flag_tuples([t for t in self.type_set if t != missing]):
                if (common & m).bit_count() != 2:
                    return False
        return True

    def is_residually_connected(self) -> bool:
        """Every residue of rank >= 2, including the whole system, is connected.

        Residues of residues are residues of the union flag, so a flat sweep
        over flags of corank >= 2 is equivalent to the recursive definition.
        The vertices of a flag's residue are its common neighbours.
        """
        if self.rank < 2:
            return True
        if not self.is_connected():
            return False
        return all(_connected(self.adjacency, common)
                   for k in range(1, self.rank - 1)
                   for J in itertools.combinations(self.type_set, k)
                   for _, common in self._flag_tuples(J))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walk_flags(adjacency: Sequence[int], typed_masks: Sequence[tuple[int, int]], first: int,
                types: tuple[int, ...], flag: tuple[int, ...], common: int, out: dict) -> None:
    """Record each extension of ``flag`` (of type set ``types``, with common
    neighbours ``common``) by one vertex of a type in ``typed_masks[first:]``,
    with its common neighbours, and walk on from it.  A flag grows only by
    types after its last one, so each flag is reached once."""
    for k in range(first, len(typed_masks)):
        t, m = typed_masks[k]
        grown = types + (t,)
        found = out.setdefault(grown, [])
        for v in _bits(common & m):
            child = flag + (v,), common & adjacency[v]
            found.append(child)
            if k + 1 < len(typed_masks):
                _walk_flags(adjacency, typed_masks, k + 1, grown, *child, out)


def _connected(adjacency: Sequence[int], mask: int) -> bool:
    """Is the subgraph induced on ``mask`` connected?  Breadth-first over masks."""
    if not mask & (mask - 1):
        return True
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adjacency[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


def vertex_moves(view: IncidenceView) -> list[list[int]]:
    """Each generator's permutation of the vertices under right multiplication.

    Vertex (i, c) goes to the type-i coset holding ``act[least position of
    c]``, with ``act`` the view's action array of the generator g: one
    lookup in the action array, then one in the type's coset column."""
    places = [(offset, column, x) for offset, column, least
              in zip(view.offsets, view.columns, view.least) for x in least]
    return [[offset + column[act[x]] for offset, column, x in places]
            for act in view.generator_actions]


def flag_orbits(view: IncidenceView,
                flags: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Orbits of right multiplication on flags of one type set, ordered by
    minimal flag.

    Each generator moves the vertices through one permutation, so it moves
    the flags through one permutation of their numbers; the orbits are a
    breadth-first search over those numbers."""
    number = {f: n for n, f in enumerate(flags)}
    try:
        # a vertex keeps its type, so the image of an ascending flag is ascending
        perms = [[number[tuple(map(move.__getitem__, f))] for f in flags]
                 for move in vertex_moves(view)]
    except KeyError:
        raise RuntimeError("group action does not preserve the flag set") from None
    orbit_of = [-1] * len(flags)
    orbits = []
    for start in range(len(flags)):
        if orbit_of[start] >= 0:
            continue
        orbit_of[start] = len(orbits)
        orbit = [start]
        for n in orbit:  # grows while it is read
            for perm in perms:
                m = perm[n]
                if orbit_of[m] < 0:
                    orbit_of[m] = len(orbits)
                    orbit.append(m)
        orbits.append([flags[n] for n in orbit])
    return orbits


class CosetGeometry(IncidenceView):
    """Coset incidence system of a group with an indexed family of subgroups,
    which is its own incidence view, built once at construction.

    Each parabolic is kept as a ``PermGroup`` and as the set of positions of
    G its generators generate; the cosets are numbered over those positions
    under the arrays of G's generators.  Flags and chambers are vertex
    tuples; the type-i coset numbered c is ``right_coset(H_i, G.element(x))``
    for x = ``least[i][c]``.
    """

    def __init__(self, group: PermGroup, parabolics: Sequence[PermGroup]):
        for H in parabolics:
            if not H.is_subgroup_of(group):
                raise ValueError("parabolic is not a subgroup of the group")
        self.group = group
        self.parabolics = tuple(parabolics)
        self._maximal = [generated_indices(group.actions(H.generators)) for H in self.parabolics]
        super().__init__(group, self._maximal, group.actions(group.generators))

    def coset_number(self, i: int, x: Permutation) -> int:
        """The number of the type-i coset holding the element x of G."""
        return self.columns[i][self.group.index_of(x)]

    def incident(self, i: int, c1: RightCoset, j: int, c2: RightCoset) -> bool:
        """Typed incidence: same-type elements are incident iff equal, cosets
        of different types iff they share an element."""
        u = self.vertex(i, self.coset_number(i, c1.representative))
        v = self.vertex(j, self.coset_number(j, c2.representative))
        return u == v or bool(self.adjacency[u] >> v & 1)

    # -- geometric property tests ----------------------------------------

    def is_residually_connected_graph(self) -> bool:
        return self.is_residually_connected()

    def is_residually_connected_group(self) -> bool:
        """Group-theoretic residual connectedness for flag-transitive geometries.

        True iff the parabolic of J is generated by the parabolics of
        J ∪ {i}, for every J with at least two missing types.  Only valid
        when the geometry is flag-transitive, which the caller asserts.

        Subgroups are index sets of G.  A maximal parabolic is generated by
        the actions of its generators, and the parabolic of J is the
        intersection over J.  The subgroup generated by the parabolics of
        the J ∪ {i} grows from their elements: one outside it adds its
        action to the generators, until the subgroup is as large as the
        parabolic of J or no element is left.
        """
        G = self.group
        maximal = self._maximal

        def meet(J: Sequence[int]) -> set[int]:
            """The parabolic of J: the intersection of the maximal ones over J."""
            return set(range(G.order)).intersection(*(maximal[j] for j in J))

        I = self.type_set
        for k in range(0, self.rank - 1):
            for J in itertools.combinations(I, k):
                target = len(meet(J))
                actions: list[tuple[int, ...]] = []
                generated = {0}
                for x in sorted(set().union(*(meet(J + (i,)) for i in I if i not in J))):
                    if len(generated) == target:
                        break
                    if x not in generated:
                        actions += G.actions([G.element(x)])
                        generated = generated_indices(actions)
                if len(generated) != target:
                    return False
        return True

    # -- truncation -------------------------------------------------------

    def truncation(self, J: Iterable[int]) -> "CosetGeometry":
        J = sorted(set(J))
        if not J:
            raise ValueError("truncation to an empty type set")
        if not set(J) <= set(self.type_set):
            raise ValueError("truncation types outside the type set")
        return CosetGeometry(self.group, [self.parabolics[j] for j in J])

    # -- group actions ----------------------------------------------------

    def flag_orbit(self, start: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The orbit of the flag ``start``, a vertex tuple, among the flags
        of its type set, in breadth-first order from the least."""
        flags = self.flags_of_type(self.type_and_coset(v)[0] for v in start)
        for orbit in flag_orbits(self, flags):
            if start in orbit:
                return orbit
        raise ValueError("not a flag of the geometry")

    def is_chamber_transitive(self) -> bool:
        """One orbit on chambers.  Rank < 3 is free by the Tits construction."""
        if self.rank <= 2:
            return True
        return len(flag_orbits(self, self.chambers())) <= 1

    def is_flag_transitive(self) -> bool:
        """Transitive on flags of every type.

        For geometries, chamber transitivity is equivalent (every flag is a
        restriction of a chamber), so the per-type sweep only runs for
        non-geometries.
        """
        if self.rank <= 2:
            return True
        if self.is_geometry():
            return self.is_chamber_transitive()
        return all(len(flag_orbits(self, self.flags_of_type(J))) <= 1
                   for k in range(1, self.rank + 1)
                   for J in itertools.combinations(self.type_set, k))

    def __repr__(self) -> str:
        orders = ", ".join(str(H.order) for H in self.parabolics)
        return f"CosetGeometry(|G|={self.group.order}, parabolic orders=[{orders}])"


def build(group: PermGroup, parabolics: Sequence[PermGroup]) -> CosetGeometry:
    return CosetGeometry(group, parabolics)
