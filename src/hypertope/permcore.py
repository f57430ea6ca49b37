"""Finite permutation group kernel.

Elements are permutations of {0, ..., n-1} stored as image tuples, groups are
fully enumerated element sets with a fixed lexicographic total order.  This is
deliberately the dumb-but-exact representation.  Sets of elements that are
not subgroups (product sets, double cosets) are frozensets.

A group numbers its elements once, at closure: ``G.index`` maps each element
to its position in the sorted element list (the identity is always 0), so
the order of indices is the order of the elements.  The closure keeps the
products x * g it computes as one index array per generator,
``G.action(g)``.  After that, group computations are computations over
integers, with no new permutation product:

- the subgroup generated by some elements is the breadth-first search of
  their actions from 0 (``generated_indices``), so subgroups are index sets
  and their intersections are set intersections;
- the action of g^-1 is the inverse array (``inverse_action``), the action
  of g h the composition of two arrays (``compose_actions``);
- the homomorphism test is a search over pairs of indices
  (``extends_on_indices``).

The element-set functions (``subgroup_intersection``, ``product_set``,
``right_coset``, ``double_coset_decomposition``, ``extends_to_homomorphism``)
compute such things from permutations.  The oracle, the coset geometry and
the tests use them; the chirality decision uses none of them.

Only the public constructor validates its input.  Products and inverses of
permutations are permutations, so they are built unchecked.
"""

from __future__ import annotations

from functools import total_ordering
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

DEFAULT_ELEMENT_CAP = 100_000


class GroupTooLargeError(RuntimeError):
    """Closure enumeration exceeded the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"group too large: closure exceeds element cap {cap}")
        self.cap = cap


@total_ordering
class Permutation:
    """A permutation of {0, ..., n-1} as the tuple of images.

    Composition is a right action: ``(p * q)(x) == q(p(x))``, i.e. p acts
    first.  Cosets ``H g`` therefore transform as ``H g -> H (g h)`` under
    right multiplication by ``h``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        if len(a) < 2:  # itemgetter of 0 or 1 points is not a tuple
            return other
        return _trusted(itemgetter(*a)(b))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return _trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, cycles led by their minimal point."""
        seen: set[int] = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.images[x]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        result = 1
        for cycle in self.cycles():
            result = result * len(cycle) // _gcd(result, len(cycle))
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id, degree={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation[{body}]"


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation of images already known to be a permutation: no check."""
    p = object.__new__(Permutation)
    p.images = images
    return p


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class PermGroup:
    """A finite permutation group held as its full, sorted element list.

    ``index`` numbers the elements by their position in that list.
    ``action(g)`` is the index array of x -> x * g; the closure records it
    for each generator, any other element's array is built on first request
    and kept.  A group never holds more arrays than were asked for.
    """

    __slots__ = ("degree", "generators", "elements", "index", "_actions", "_hash")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        self._actions: dict[Permutation, tuple[int, ...]] = {}
        self._hash: Optional[int] = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        e = Permutation.identity(degree)
        return cls(degree, (), (e,))

    @classmethod
    def _from_elements(cls, degree: int, elements: Iterable[Permutation],
                       generators: Optional[Sequence[Permutation]] = None) -> "PermGroup":
        elements = tuple(sorted(set(elements)))
        if generators is None:
            generators = tuple(g for g in elements if not g.is_identity())
        return cls(degree, generators, elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def action(self, g: Permutation) -> tuple[int, ...]:
        """x -> x * g on indices: ``action(g)[index[x]] == index[x * g]``."""
        act = self._actions.get(g)
        if act is None:
            if g not in self.index:
                raise ValueError("element not in the group")
            act = self._actions[g] = _right_action(self, g)
        return act

    def __contains__(self, p: Permutation) -> bool:
        return p in self.index

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.index.keys() <= other.index.keys()

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self.index.keys() == other.index.keys())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self.elements))
        return self._hash

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _right_action(G: PermGroup, g: Permutation) -> tuple[int, ...]:
    index = G.index
    return tuple([index[x * g] for x in G.elements])


def action_table(G: PermGroup) -> list[tuple[int, ...]]:
    """``G.action`` of every element, in index order: a |G| x |G| table that
    the caller holds and drops; nothing is kept on G."""
    return [_right_action(G, g) for g in G.elements]


def generated_indices(actions: Iterable[Sequence[int]]) -> set[int]:
    """The indices reached from the identity (index 0) under the given
    actions: the subgroup generated by their elements, as indices."""
    actions = tuple(actions)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for act in actions:
            y = act[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def inverse_action(act: Sequence[int]) -> tuple[int, ...]:
    """The action of g^-1 from the action of g: x -> x * g^-1."""
    inv = [0] * len(act)
    for x, y in enumerate(act):
        inv[y] = x
    return tuple(inv)


def compose_actions(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The action of g h from the actions a of g and b of h: x -> (x * g) * h."""
    if len(a) < 2:  # itemgetter of 0 or 1 points is not a tuple
        return tuple(b)
    return itemgetter(*a)(b)


def generate_group(degree: int, gens: Sequence[Permutation],
                   cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Close a generator list under composition and inverse.

    Breadth-first closure from the identity; the element list comes out
    sorted, so the result is independent of generator order.  The products
    x * g of the closure are kept as each generator's action.  Raises
    GroupTooLargeError as soon as the closure exceeds ``cap``.
    """
    gens = tuple(dict.fromkeys(gens))  # dedupe, keep first occurrence
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    found = [Permutation.identity(degree)]  # in order of discovery
    number = {found[0]: 0}
    edges: list[list[int]] = [[] for _ in gens]  # edges[i][n]: number of found[n] * gens[i]
    for x in found:  # the list grows while it is walked
        for g, row in zip(gens, edges):
            y = x * g
            n = number.get(y)
            if n is None:
                n = number[y] = len(found)
                if n >= cap:
                    raise GroupTooLargeError(cap)
                found.append(y)
            row.append(n)
    G = PermGroup(degree, gens, sorted(found))
    to_index = [G.index[x] for x in found]
    for g, row in zip(gens, edges):
        act = [0] * len(found)
        for n, m in enumerate(row):
            act[to_index[n]] = to_index[m]
        G._actions[g] = tuple(act)
    return G


def subgroup_intersection(H: PermGroup, K: PermGroup) -> PermGroup:
    """H ∩ K, iterating the smaller group and testing membership in the larger."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    small, large = (H, K) if H.order <= K.order else (K, H)
    return PermGroup._from_elements(H.degree, (x for x in small if x in large))


def product_set(H: PermGroup, K: PermGroup,
                cap: int = DEFAULT_ELEMENT_CAP) -> frozenset[Permutation]:
    """The set HK = {h k : h in H, k in K}; |HK| = |H||K| / |H ∩ K|."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    out: set[Permutation] = set()
    for h in H:
        for k in K:
            out.add(h * k)
            if len(out) > cap:
                raise GroupTooLargeError(cap)
    return frozenset(out)


class RightCoset:
    """A right coset H g with its canonical (lexicographically minimal) representative."""

    __slots__ = ("subgroup", "representative", "_hash")

    def __init__(self, subgroup: PermGroup, representative: Permutation):
        self.subgroup = subgroup
        self.representative = representative
        self._hash: Optional[int] = None

    def elements(self) -> Iterator[Permutation]:
        g = self.representative
        return (h * g for h in self.subgroup)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RightCoset)
                and self.representative == other.representative
                and self.subgroup == other.subgroup)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.subgroup, self.representative))
        return self._hash

    def __repr__(self) -> str:
        return f"RightCoset({self.subgroup!r} * {self.representative!r})"


def right_coset(H: PermGroup, g: Permutation) -> RightCoset:
    """The coset H g with canonical representative min(H g)."""
    if H.degree != g.degree:
        raise ValueError("degree mismatch")
    return RightCoset(H, min(h * g for h in H))


def right_coset_decomposition(G: PermGroup,
                              H: PermGroup) -> dict[Permutation, RightCoset]:
    """Every element of G mapped to its right coset of H.

    One pass over the sorted elements of G: the first unseen member of a
    coset is its minimum, so each coset gets its canonical representative
    without a search, and the cosets first appear, in the map's values, in
    ascending order of representative.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    coset_of: dict[Permutation, RightCoset] = {}
    for g in G.elements:
        if g not in coset_of:
            coset = RightCoset(H, g)
            for h in H:
                coset_of[h * g] = coset
    return coset_of


def double_coset_decomposition(H: PermGroup, S: frozenset[Permutation],
                               K: PermGroup) -> list[frozenset[Permutation]]:
    """Partition S into double cosets H x K, ordered by minimal member.

    S must be a union of (H, K)-double cosets; a class leaking outside S is
    reported as an error.
    """
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    seen: set[Permutation] = set()
    classes = []
    for x in sorted(S):
        if x in seen:
            continue
        block = frozenset(h * x * k for h in H for k in K)
        if not block <= S:
            raise ValueError("S is not a union of (H, K)-double cosets")
        seen.update(block)
        classes.append(block)
    return classes


def extends_to_homomorphism(G: PermGroup, gens: Sequence[Permutation],
                            images: Sequence[Permutation]) -> bool:
    """Does gens[i] -> images[i] extend to a homomorphism on G?

    Breadth-first search over the pairs (x, phi(x)), from phi(1) = 1 along
    phi(x * gens[i]) = phi(x) * images[i]: x moves on indices by
    ``G.action``, phi(x) by products.  The pairs reached are the subgroup D
    of the direct product generated by the (gens[i], images[i]), so the map
    is well defined iff every edge agrees with the value phi already has,
    i.e. iff |D| == |G|.  Raises ValueError when gens do not generate G,
    whether or not the images conflict.
    """
    if len(gens) != len(images):
        raise ValueError("generator/image length mismatch")
    if images and len({q.degree for q in images}) != 1:
        raise ValueError("images do not share a common degree")
    for g in gens:
        if g not in G:
            raise ValueError("generator not in G")
    edges = [(G.action(g), q) for g, q in zip(gens, images)]
    phi = {0: Permutation.identity(images[0].degree) if images else None}
    stack = [0]
    consistent = True
    while stack:
        x = stack.pop()
        fx = phi[x]
        for act, q in edges:
            y = act[x]
            fy = fx * q
            if y not in phi:
                phi[y] = fy
                stack.append(y)
            elif phi[y] != fy:
                consistent = False
    if len(phi) != G.order:
        raise ValueError("gens do not generate G")
    return consistent


def extends_on_indices(actions: Sequence[Sequence[int]],
                       images: Sequence[Sequence[int]]) -> bool:
    """Does gens[i] -> images[i] extend to a homomorphism from G to G?

    The elements gens[i] and images[i] of G are given by their right
    actions on the indices of G (``G.action``).  This is the pair search of
    ``extends_to_homomorphism`` with phi(x) an index too:
    phi(x * gens[i]) = phi(x) * images[i] is ``images[i][phi[x]]``, so no
    permutation is multiplied.  Raises ValueError when gens do not generate
    G; an empty list stands for the trivial group.
    """
    if len(actions) != len(images):
        raise ValueError("generator/image length mismatch")
    edges = tuple(zip(actions, images))
    phi = [-1] * (len(actions[0]) if actions else 1)
    phi[0] = 0
    stack = [0]
    consistent = True
    while stack:
        x = stack.pop()
        fx = phi[x]
        for act, img in edges:
            y = act[x]
            fy = img[fx]
            if phi[y] < 0:
                phi[y] = fy
                stack.append(y)
            elif phi[y] != fy:
                consistent = False
    if -1 in phi:
        raise ValueError("gens do not generate G")
    return consistent


def inverting_automorphism_exists(G: PermGroup, R: Sequence[Permutation]) -> bool:
    """Is there an automorphism of G inverting every element of R?

    R must generate G.  When r -> r^-1 extends to a homomorphism, the image
    contains every r^-1 and hence generates G, so the extension is
    automatically an automorphism.
    """
    return extends_to_homomorphism(G, list(R), [r.inverse() for r in R])
