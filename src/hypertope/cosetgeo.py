"""Coset incidence systems in the sense of Tits.

Elements of type i are the right cosets of the i-th distinguished subgroup;
two cosets are incident iff they intersect.  Flags, residues, truncations and
the geometric property tests (geometry / thin / connected / residually
connected / chamber- and flag-transitive) all live here.

A ``CosetGeometry`` answers every coset question from one map per type,
element of G -> its coset, built in a single pass over G: the canonical
cosets of a type, the image of a coset under right multiplication, and
incidence (cosets of types i and j meet iff the two maps send some element
of G to them).

Residues are computed combinatorially by filtering element lists, so they
remain meaningful when the system is not flag-transitive.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from .permcore import (
    PermGroup,
    Permutation,
    RightCoset,
    generate_group,
    product_set,  # noqa: F401 -- perfbench/test_perfbench.py reaches it as cosetgeo.product_set
    right_coset_decomposition,
    subgroup_intersection,
)

TypedElement = tuple[int, RightCoset]


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

    def restrict(self, types: Iterable[int]) -> "Flag":
        ts = set(types)
        return Flag((t, c) for t, c in self.items if t in ts)

    def extend(self, t: int, c: RightCoset) -> "Flag":
        return Flag(self.items + ((t, c),))

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
    """An explicit incidence system: typed elements plus an incidence predicate.

    This is the combinatorial side of a coset geometry, and it is closed
    under taking residues, which is exactly what the graph-based residual
    connectedness test needs.  A view is immutable, so ``is_geometry``,
    which enumerates every flag, is computed once and kept.
    """

    def __init__(self, types: Sequence[int],
                 elements_by_type: dict[int, Sequence[TypedElement]],
                 incident_fn: Callable[[TypedElement, TypedElement], bool]):
        self.types = tuple(sorted(types))
        self.elements_by_type = {t: tuple(elements_by_type[t]) for t in self.types}
        self._incident = incident_fn
        self._is_geometry: Optional[bool] = None

    @property
    def rank(self) -> int:
        return len(self.types)

    def all_elements(self) -> list[TypedElement]:
        return [e for t in self.types for e in self.elements_by_type[t]]

    def incident(self, a: TypedElement, b: TypedElement) -> bool:
        if a[0] == b[0]:
            return a == b
        return self._incident(a, b)

    def flags_of_type(self, J: Iterable[int]) -> list[Flag]:
        """All flags with domain exactly J, in canonical order."""
        J = sorted(J)
        if not set(J) <= set(self.types):
            raise ValueError("flag type outside the type set")
        flags: list[Flag] = []

        def backtrack(idx: int, chosen: list[TypedElement]):
            if idx == len(J):
                flags.append(Flag(chosen))
                return
            for e in self.elements_by_type[J[idx]]:
                if all(self.incident(e, c) for c in chosen):
                    chosen.append(e)
                    backtrack(idx + 1, chosen)
                    chosen.pop()

        backtrack(0, [])
        return flags

    def chambers(self) -> list[Chamber]:
        return [Chamber(f.items) for f in self.flags_of_type(self.types)]

    def residue(self, flag: Flag) -> "IncidenceView":
        """Elements incident to every element of the flag, over the remaining types."""
        remaining = [t for t in self.types if t not in flag.types]
        if not remaining:
            raise ValueError("a chamber has an empty residue type set")
        flag_elems = list(flag.items)
        by_type = {
            t: [e for e in self.elements_by_type[t]
                if all(self.incident(e, fe) for fe in flag_elems)]
            for t in remaining
        }
        return IncidenceView(remaining, by_type, self._incident)

    def is_connected(self) -> bool:
        """Literal incidence-graph connectivity (isolated vertices count)."""
        verts = self.all_elements()
        if len(verts) <= 1:
            return True
        index = {v: i for i, v in enumerate(verts)}
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j, w in enumerate(verts):
                if j not in seen and self.incident(verts[i], w):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(verts)

    def is_geometry(self) -> bool:
        """Does every flag extend to a chamber?"""
        if self._is_geometry is None:
            self._is_geometry = self._every_flag_extends()
        return self._is_geometry

    def _every_flag_extends(self) -> bool:
        chambers = self.chambers()
        covered: set[frozenset[TypedElement]] = set()
        for ch in chambers:
            items = ch.items
            for k in range(len(items) + 1):
                for sub in itertools.combinations(items, k):
                    covered.add(frozenset(sub))
        for k in range(self.rank + 1):
            for J in itertools.combinations(self.types, k):
                for f in self.flags_of_type(J):
                    if frozenset(f.items) not in covered:
                        return False
        return True

    def is_thin(self) -> bool:
        """Every corank-1 flag is incident to exactly two elements of the missing type."""
        for missing in self.types:
            others = [t for t in self.types if t != missing]
            for f in self.flags_of_type(others):
                n = sum(1 for e in self.elements_by_type[missing]
                        if all(self.incident(e, fe) for fe in f.items))
                if n != 2:
                    return False
        return True

    def is_residually_connected(self) -> bool:
        """Every residue of rank >= 2, including the whole system, is connected.

        Residues of residues are residues of the union flag, so a flat sweep
        over flags of corank >= 2 is equivalent to the recursive definition.
        """
        if self.rank < 2:
            return True
        if not self.is_connected():
            return False
        for k in range(1, self.rank - 1):
            for J in itertools.combinations(self.types, k):
                for f in self.flags_of_type(J):
                    if not self.residue(f).is_connected():
                        return False
        return True


class CosetGeometry:
    """Coset incidence system of a group with an indexed family of subgroups.

    The element -> coset map of each type and the incidence view are built
    lazily, once, and cached; the object is otherwise immutable.  The maps
    are keyed by subgroup, and a truncation shares its parent's store, so a
    map built for either serves both.
    """

    def __init__(self, group: PermGroup, parabolics: Sequence[PermGroup]):
        for H in parabolics:
            if not H.is_subgroup_of(group):
                raise ValueError("parabolic is not a subgroup of the group")
        self.group = group
        self.parabolics = tuple(parabolics)
        self._coset_maps: dict[PermGroup, dict[Permutation, RightCoset]] = {}
        self._elements: dict[PermGroup, tuple[RightCoset, ...]] = {}
        self._view: Optional[IncidenceView] = None

    @property
    def rank(self) -> int:
        return len(self.parabolics)

    @property
    def type_set(self) -> tuple[int, ...]:
        return tuple(range(self.rank))

    def _coset_map(self, i: int) -> dict[Permutation, RightCoset]:
        """Every element of the group mapped to its type-i coset."""
        H = self.parabolics[i]
        if H not in self._coset_maps:
            self._coset_maps[H] = right_coset_decomposition(self.group, H)
        return self._coset_maps[H]

    def elements_of_type(self, i: int) -> tuple[RightCoset, ...]:
        """The type-i cosets, ascending by canonical representative."""
        H = self.parabolics[i]
        if H not in self._elements:
            self._elements[H] = tuple(dict.fromkeys(self._coset_map(i).values()))
        return self._elements[H]

    def shift(self, i: int, c: RightCoset, g: Permutation) -> RightCoset:
        """The type-i coset c g: the image of c under right multiplication by g."""
        return self._coset_map(i)[c.representative * g]

    def incident(self, i: int, c1: RightCoset, j: int, c2: RightCoset) -> bool:
        """Typed incidence: same-type elements are incident iff equal, cosets
        of different types iff they share an element."""
        return self.view().incident((i, c1), (j, c2))

    def base_chamber(self) -> Chamber:
        """The chamber of the identity cosets; always pairwise incident."""
        e = self.group.identity
        return Chamber((i, self._coset_map(i)[e]) for i in self.type_set)

    def view(self) -> IncidenceView:
        """The geometry as an explicit incidence system, built once.

        Cosets of types i < j meet iff some element x of G lies in both, so
        the meeting pairs are exactly the (type-i, type-j) coset pairs of the
        elements of G.  The incidence test closes over these pair sets, not
        over the geometry: a view -> geometry reference would be a cycle that
        keeps dead geometries alive until a full garbage collection.
        """
        if self._view is None:
            maps = [self._coset_map(i) for i in self.type_set]
            pairs = {(i, j): {(maps[i][x], maps[j][x]) for x in self.group.elements}
                     for i, j in itertools.combinations(self.type_set, 2)}

            def meet(a: TypedElement, b: TypedElement) -> bool:
                (i, c1), (j, c2) = (a, b) if a[0] < b[0] else (b, a)
                return (c1, c2) in pairs[i, j]

            by_type = {i: [(i, c) for c in self.elements_of_type(i)]
                       for i in self.type_set}
            self._view = IncidenceView(self.type_set, by_type, meet)
        return self._view

    # -- flag and chamber enumeration ------------------------------------

    def flags_of_type(self, J: Iterable[int]) -> list[Flag]:
        return self.view().flags_of_type(J)

    def chambers(self) -> list[Chamber]:
        return self.view().chambers()

    def residue(self, flag: Flag) -> IncidenceView:
        if set(flag.types) == set(self.type_set):
            raise ValueError("residue of a chamber is empty")
        return self.view().residue(flag)

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
        """
        if verify_flag_transitive and not (self.is_geometry() and self.is_flag_transitive()):
            raise ValueError("group-theoretic test requires a flag-transitive geometry")
        I = self.type_set
        for k in range(0, self.rank - 1):
            for J in itertools.combinations(I, k):
                G_J = self._parabolic_of(J)
                gens: list[Permutation] = []
                for i in I:
                    if i not in J:
                        gens.extend(self._parabolic_of(J + (i,)).elements)
                generated = generate_group(self.group.degree, gens, cap=G_J.order + 1)
                if generated.order != G_J.order:
                    return False
        return True

    def _parabolic_of(self, J: Sequence[int]) -> PermGroup:
        """Intersection of the maximal parabolics indexed by J (G for empty J)."""
        result = self.group
        for j in J:
            result = subgroup_intersection(result, self.parabolics[j])
        return result

    # -- truncation -------------------------------------------------------

    def truncation(self, J: Iterable[int]) -> "CosetGeometry":
        J = sorted(set(J))
        if not J:
            raise ValueError("truncation to an empty type set")
        if not set(J) <= set(self.type_set):
            raise ValueError("truncation types outside the type set")
        child = CosetGeometry(self.group, [self.parabolics[j] for j in J])
        child._coset_maps = self._coset_maps
        child._elements = self._elements
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
