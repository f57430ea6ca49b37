"""Coset incidence systems in the sense of Tits.

Elements of type i are the right cosets of the i-th distinguished subgroup;
two cosets are incident iff they intersect.  Flags, truncations and the
geometric property tests (geometry / thin / connected / residually
connected / chamber- and flag-transitive) all live here.

A ``CosetGeometry`` answers every coset question from one coset column per
type, built in a single pass over G: the canonical cosets of the type, and
for each position of ``G.elements`` the number of the coset holding that
element.  The image of a coset under right multiplication by g is the
column's entry at the position of ``representative * g``.

Its ``view`` is the incidence graph, built once in O(|G| r^2): the typed
cosets numbered by type and then canonical order, and per vertex an integer
bitmask of its neighbours, the cosets meeting it; the oracle reads it too.
One walk over its flags, made once, records each flag with the mask of its
common neighbours.  Flags, chambers, thinness, residual connectedness and
the maximal flags read that walk: vertices of one type are never adjacent,
so every clique is a flag, and a flag is maximal iff it has no common
neighbour.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .permcore import (
    PermGroup,
    Permutation,
    RightCoset,
    generated_indices,
    product_set,  # noqa: F401 -- perfbench/test_perfbench.py reaches it as cosetgeo.product_set
    right_coset_column,
)

TypedElement = tuple[int, RightCoset]
FlagTuple = tuple[tuple[int, ...], int]  # a flag's vertices, ascending, and its common neighbours


class Flag:
    """A set of pairwise incident elements, at most one per type.

    Stored as a type-indexed assignment, which makes the one-element-per-type
    constraint structural.
    """

    __slots__ = ("items", "_hash")

    def __init__(self, items: Iterable[TypedElement]):
        self.items = tuple(sorted(items, key=lambda tc: tc[0]))
        if len({t for t, _ in self.items}) != len(self.items):
            raise ValueError("flag assigns more than one element to a type")
        self._hash: Optional[int] = None

    @classmethod
    def _trusted(cls, items: tuple[TypedElement, ...]) -> "Flag":
        """A flag of items already one per type, in type order: no check."""
        flag = object.__new__(cls)
        flag.items = items
        flag._hash = None
        return flag

    @property
    def types(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.items)

    @property
    def rank(self) -> int:
        return len(self.items)

    def get(self, t: int) -> RightCoset:
        for tt, c in self.items:
            if tt == t:
                return c
        raise KeyError(t)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Flag) and self.items == other.items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.items)
        return self._hash

    def __repr__(self) -> str:
        return f"Flag(types={self.types})"


class Chamber(Flag):
    """A flag whose domain is the full type set."""


class IncidenceView:
    """An explicit incidence system on numbered vertices with bitmask edges.

    Vertex n is the typed element ``vertices[n]``, and bit m of
    ``adjacency[n]`` is set iff vertices n and m are incident and of
    different types.  ``type_masks`` holds the view's vertices of each type.
    A flag is a tuple of pairwise adjacent vertices, ascending, which is
    also type order.  A view is immutable, so its flag walk and ``index``
    are built once and kept.
    """

    def __init__(self, vertices: Sequence[TypedElement], adjacency: Sequence[int],
                 type_masks: dict[int, int]):
        self.vertices = vertices
        self.adjacency = adjacency
        self.type_masks = type_masks
        self.types = tuple(sorted(type_masks))
        self.mask = sum(type_masks.values())  # all vertices: the type masks are disjoint
        self._index: Optional[dict[TypedElement, int]] = None
        self._flags: Optional[dict[tuple[int, ...], list[FlagTuple]]] = None

    @property
    def rank(self) -> int:
        return len(self.types)

    @property
    def index(self) -> dict[TypedElement, int]:
        """Typed element -> vertex number, built on first read."""
        if self._index is None:
            self._index = {v: n for n, v in enumerate(self.vertices)}
        return self._index

    @property
    def num_vertices(self) -> int:
        return self.mask.bit_count()

    @property
    def num_edges(self) -> int:
        return sum((self.adjacency[v] & self.mask).bit_count() for v in _bits(self.mask)) // 2

    def incident(self, a: TypedElement, b: TypedElement) -> bool:
        if a[0] == b[0]:
            return a == b
        return bool(self.adjacency[self.index[a]] >> self.index[b] & 1)

    def _walk(self) -> dict[tuple[int, ...], list[FlagTuple]]:
        """Every flag with its common neighbours, grouped by type set, each
        group in canonical order; walked once and kept."""
        if self._flags is None:
            self._flags = {(): [((), self.mask)]}
            _walk_flags(self.adjacency, [(t, self.type_masks[t]) for t in self.types],
                        0, (), (), self.mask, self._flags)
        return self._flags

    def _flag_tuples(self, J: Sequence[int]) -> list[FlagTuple]:
        """(vertices, common neighbours) of each flag of type J, in canonical order."""
        return self._walk().get(tuple(J), [])

    def flags_of_type(self, J: Iterable[int]) -> list[Flag]:
        """All flags with domain exactly J, in canonical order."""
        J = sorted(J)
        if not set(J) <= set(self.types):
            raise ValueError("flag type outside the type set")
        # a flag tuple holds one vertex of each type of J, in J's order
        return [Flag._trusted(tuple([self.vertices[v] for v in f]))
                for f, _ in self._flag_tuples(J)]

    def chambers(self) -> list[Chamber]:
        vertex = self.vertices.__getitem__
        return [Chamber._trusted(tuple(map(vertex, f))) for f, _ in self._flag_tuples(self.types)]

    def maximal_flags(self) -> list[tuple[int, ...]]:
        """The flags with no common neighbour, ascending.  Vertices of one
        type are never adjacent, so these are the maximal cliques."""
        return sorted(f for flags in self._walk().values() for f, common in flags if not common)

    def is_connected(self) -> bool:
        """Literal incidence-graph connectivity (isolated vertices count)."""
        return _connected(self.adjacency, self.mask)

    def is_geometry(self) -> bool:
        """Is every maximal flag a chamber?  (Buekenhout's definition: every
        flag then extends to a chamber.)"""
        return all(len(f) == self.rank for f in self.maximal_flags())

    def is_thin(self) -> bool:
        """Every corank-1 flag is incident to exactly two elements of the missing type."""
        for missing in self.types:
            m = self.type_masks[missing]
            for _, common in self._flag_tuples([t for t in self.types if t != missing]):
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
                   for J in itertools.combinations(self.types, k)
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


class CosetGeometry:
    """Coset incidence system of a group with an indexed family of subgroups.

    The coset column of each type and the incidence view are built lazily,
    once, and cached; the object is otherwise immutable.  The columns are
    keyed by subgroup, and a truncation shares its parent's store, so a
    column built for either serves both.
    """

    def __init__(self, group: PermGroup, parabolics: Sequence[PermGroup]):
        for H in parabolics:
            if not H.is_subgroup_of(group):
                raise ValueError("parabolic is not a subgroup of the group")
        self.group = group
        self.parabolics = tuple(parabolics)
        self._columns: dict[PermGroup, tuple[list[int], tuple[RightCoset, ...]]] = {}
        self._view: Optional[IncidenceView] = None

    @property
    def rank(self) -> int:
        return len(self.parabolics)

    @property
    def type_set(self) -> tuple[int, ...]:
        return tuple(range(self.rank))

    def _column(self, i: int) -> tuple[list[int], tuple[RightCoset, ...]]:
        """The type-i coset column: (coset number per position, cosets)."""
        H = self.parabolics[i]
        if H not in self._columns:
            self._columns[H] = right_coset_column(self.group, H)
        return self._columns[H]

    def elements_of_type(self, i: int) -> tuple[RightCoset, ...]:
        """The type-i cosets, ascending by canonical representative."""
        return self._column(i)[1]

    def coset_number(self, i: int, x: Permutation) -> int:
        """The number, in ``elements_of_type(i)``, of the type-i coset
        holding the element x of G."""
        return self._column(i)[0][self.group.positions[x.images]]

    def shift(self, i: int, c: RightCoset, g: Permutation) -> RightCoset:
        """The type-i coset c g: the image of c under right multiplication by g."""
        return self.elements_of_type(i)[self.coset_number(i, c.representative * g)]

    def incident(self, i: int, c1: RightCoset, j: int, c2: RightCoset) -> bool:
        """Typed incidence: same-type elements are incident iff equal, cosets
        of different types iff they share an element."""
        return self.view().incident((i, c1), (j, c2))

    def base_chamber(self) -> Chamber:
        """The chamber of the identity cosets; always pairwise incident."""
        e = self.group.identity
        return Chamber((i, self.elements_of_type(i)[self.coset_number(i, e)])
                       for i in self.type_set)

    def view(self) -> IncidenceView:
        """The geometry as an explicit incidence graph, built once.

        The cosets of x ∈ G, one per type, pairwise meet, and every meeting
        pair arises so.  The view holds no reference to the geometry: that
        cycle would keep dead geometries alive until a full collection.
        """
        if self._view is None:
            vertices: list[TypedElement] = []
            type_masks: dict[int, int] = {}
            columns = []  # per type: the vertex of each element's coset
            for i in self.type_set:
                column, cosets = self._column(i)
                offset = len(vertices)
                type_masks[i] = ((1 << len(cosets)) - 1) << offset
                vertices.extend((i, c) for c in cosets)
                columns.append([offset + c for c in column])
            adjacency = [0] * len(vertices)
            for a, b in itertools.combinations(columns, 2):
                for u, w in set(zip(a, b)):
                    adjacency[u] |= 1 << w
                    adjacency[w] |= 1 << u
            self._view = IncidenceView(vertices, adjacency, type_masks)
        return self._view

    # -- flag and chamber enumeration ------------------------------------

    def flags_of_type(self, J: Iterable[int]) -> list[Flag]:
        return self.view().flags_of_type(J)

    def chambers(self) -> list[Chamber]:
        return self.view().chambers()

    # -- geometric property tests ----------------------------------------

    def is_geometry(self) -> bool:
        return self.view().is_geometry()

    def is_thin(self) -> bool:
        return self.view().is_thin()

    def is_connected(self) -> bool:
        return self.view().is_connected()

    def is_residually_connected_graph(self) -> bool:
        return self.view().is_residually_connected()

    def is_residually_connected_group(self, verify_flag_transitive: bool = False) -> bool:
        """Group-theoretic residual connectedness for flag-transitive geometries.

        True iff the parabolic of J is generated by the parabolics of
        J ∪ {i}, for every J with at least two missing types.  Only valid
        when the geometry is flag-transitive; the caller asserts that unless
        ``verify_flag_transitive`` is set.

        Subgroups are index sets of G.  A maximal parabolic is generated by
        the actions of its generators, and the parabolic of J is the
        intersection over J.  The subgroup generated by the parabolics of
        the J ∪ {i} grows from their elements: one outside it adds its
        action to the generators, until the subgroup is as large as the
        parabolic of J or no element is left.
        """
        if verify_flag_transitive and not (self.is_geometry() and self.is_flag_transitive()):
            raise ValueError("group-theoretic test requires a flag-transitive geometry")
        G = self.group
        maximal = [generated_indices(G.action(g) for g in H.generators) for H in self.parabolics]

        def parabolic(J: Sequence[int]) -> set[int]:
            return set(range(G.order)).intersection(*(maximal[j] for j in J))

        I = self.type_set
        for k in range(0, self.rank - 1):
            for J in itertools.combinations(I, k):
                target = len(parabolic(J))
                actions: list[tuple[int, ...]] = []
                generated = {0}
                for x in sorted(set().union(*(parabolic(J + (i,)) for i in I if i not in J))):
                    if len(generated) == target:
                        break
                    if x not in generated:
                        actions.append(G.action(G.element(x)))
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
        child = CosetGeometry(self.group, [self.parabolics[j] for j in J])
        child._columns = self._columns
        return child

    # -- group actions ----------------------------------------------------

    def flag_orbit(self, start: Flag) -> set[Flag]:
        gens = self.group.generators or self.group.elements
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for f in frontier:
                for g in gens:
                    img = Flag((t, self.shift(t, c, g)) for t, c in f)
                    if img not in orbit:
                        orbit.add(img)
                        new.append(img)
            frontier = new
        return orbit

    def is_chamber_transitive(self) -> bool:
        """One orbit on chambers.  Rank < 3 is free by the Tits construction."""
        if self.rank <= 2:
            return True
        chambers = self.chambers()
        if not chambers:
            return True
        return len(self.flag_orbit(chambers[0])) == len(chambers)

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
        for k in range(1, self.rank + 1):
            for J in itertools.combinations(self.type_set, k):
                flags = self.flags_of_type(J)
                if flags and len(self.flag_orbit(flags[0])) != len(flags):
                    return False
        return True

    def __repr__(self) -> str:
        orders = ", ".join(str(H.order) for H in self.parabolics)
        return f"CosetGeometry(|G|={self.group.order}, parabolic orders=[{orders}])"


def build(group: PermGroup, parabolics: Sequence[PermGroup]) -> CosetGeometry:
    return CosetGeometry(group, parabolics)
