"""Finite permutation group kernel.

Elements are permutations of {0, ..., n-1} stored as image tuples, with the
lexicographic total order.  Sets of elements that are not subgroups
(product sets, double cosets) are frozensets.

A closure (``generate_group``) is a deterministic Schreier–Sims on the base
0, 1, ..., m-1, the shortest prefix of the points whose pointwise
stabilizer is trivial.  It sifts the Schreier generators that are not tree
edges, except one on each cycle of a strong generator s whose length L is
the order of s: along that cycle the Schreier generators multiply to
u s^L u^-1 = 1, so any one of them is generated by the others.  Its
stabilizer chain keeps one transversal per base point, as image tuples,
and an element is known by its m base images: two elements first differ
at a point below m, so sorting the m-tuples sorts the elements.  The
chain factors every element uniquely as one transversal element per
level, so the closure lists the base images as those products and numbers
the elements once, in sorted order (the identity is always 0).  The
action of an element g is the index array of x -> x * g
(``G.actions([g])``), built from the base images when asked for and held
by the caller, not by the group.  After that, group computations are
computations over integers, with no new permutation product:

- the subgroup generated by some elements is the breadth-first search of
  their actions from 0 (``generated_indices``), so subgroups are index sets
  and their intersections are set intersections;
- the action of g^-1 is the inverse array (``inverse_action``), the action
  of g h the composition of two arrays (``compose_actions``), and
  conjugation is a table read from the actions (``conjugation_table``);
- the right cosets of an index-set subgroup are its orbit under right
  multiplication by some elements (``coset_orbit``), and under the
  generators of G they are all its cosets, numbered by least position
  (``coset_column``);
- the homomorphism test is a search over pairs of indices
  (``extends_on_indices``).

Every ``PermGroup`` is such a closure; subgroups that the coset geometry
and the tests need as groups (parabolics, ``subgroup_intersection``) are
closed from their generators too.  Membership and the index of one
permutation are always a sift through the chain, which ends with a
comparison on every point; there is no image tuple -> index map.  The
element list is built only when first read: the coset geometry, the corpus
and the tests read it, the chirality decision and the oracle do not.
The element-set functions (``subgroup_intersection``, ``product_set``,
``right_coset``, ``double_coset_decomposition``, ``extends_to_homomorphism``)
compute from permutations, for the same callers.

Only the public constructor validates its input.  Products and inverses of
permutations are permutations, so they are built unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from operator import attrgetter, itemgetter
from typing import Collection, Iterable, Iterator, Optional, Sequence

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
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
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
        return _trusted(_key_getter(a)(b))

    def inverse(self) -> "Permutation":
        return _trusted(inverse_action(self.images))

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, cycles of two or more points led by
        their minimal point."""
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
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

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


class PermGroup:
    """A finite permutation group with its elements numbered in sorted order.

    Every group is a closure, built by ``generate_group``.  ``generators``
    generate the group.  ``index_of(p)`` is the position of p in the sorted
    element list (the identity is 0), ``element(i)`` the element at
    position i.  ``actions(gs)`` builds the index arrays of x -> x * g for
    the elements g of ``gs`` together and hands them to the caller: a group
    holds no action array.

    The group holds its stabilizer chain on the base 0, ..., m-1 and the
    sorted tuples of base images, one per element: an element is known by
    where it sends 0, ..., m-1.  The base images and ``elements`` (built on
    first access only) are the products of one transversal element per
    level; membership and ``index_of`` sift through the chain (there is no
    position map), and ``element`` is a product along it.
    """

    __slots__ = ("degree", "generators", "_elements", "_chain",
                 "_keys", "_key_index", "_hash")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 chain: list[dict[int, tuple[int, ...]]], keys: Sequence[tuple[int, ...]]):
        self.degree = degree
        self.generators = tuple(generators)
        self._chain = chain
        self._keys = tuple(keys)
        self._key_index = {key: i for i, key in enumerate(self._keys)}
        self._elements: Optional[tuple[Permutation, ...]] = None
        self._hash: Optional[int] = None

    @property
    def order(self) -> int:
        return len(self._keys)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    @property
    def base_length(self) -> int:
        """m, the length of the shortest prefix 0, ..., m-1 of the points
        whose pointwise stabilizer is trivial: the base of the chain."""
        return len(self._chain)

    @property
    def base_images(self) -> tuple[tuple[int, ...], ...]:
        """The images of 0, ..., m-1 under each element, in index order."""
        return self._keys

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, sorted, built here once: the products of one
        transversal element per level, as in ``_base_images``."""
        if self._elements is None:
            found = [self.identity]
            for transversal in reversed(self._chain):
                if len(transversal) > 1:
                    us = [_trusted(u) for u in transversal.values()]
                    found = [x * u for x in found for u in us]
            found.sort(key=attrgetter("images"))
            self._elements = tuple(found)
        return self._elements

    def element(self, i: int) -> Permutation:
        """The element at position i: the product of one transversal element
        per base point."""
        return _trusted(_chain_element(self._chain, self._keys[i], self.degree))

    def _position(self, p: object) -> Optional[int]:
        if not isinstance(p, Permutation) or p.degree != self.degree:
            return None
        if _sift(self._chain, p.images, tuple(range(self.degree))) is not None:
            return None
        return self._key_index[p.images[:len(self._chain)]]

    def index_of(self, p: Permutation) -> int:
        """The position of p; ValueError when p is not in the group.  This is
        a sift, which compares the result with the identity on every point,
        not on the base alone."""
        i = self._position(p)
        if i is None:
            raise ValueError("element not in the group")
        return i

    def actions(self, gs: Sequence[Permutation]) -> list[tuple[int, ...]]:
        """The index array of x -> x * g for each g of ``gs``:
        ``actions([g])[0][index_of(x)] == index_of(x * g)``.  Each g but the
        generators is sifted (ValueError if it is not in the group); then g
        maps each base point's column of base images at once.  The group
        keeps none of the arrays."""
        for g in set(gs).difference(self.generators):
            self.index_of(g)
        if self.order == 1:  # no base point, so no column
            return [(0,)] * len(gs)
        number, columns = self._key_index, list(zip(*self._keys))
        return [tuple([number[y] for y in zip(*[itemgetter(*c)(g.images) for c in columns])])
                for g in gs]

    def __contains__(self, p: object) -> bool:
        return self._position(p) is not None

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(g in other for g in self.generators)

    def __eq__(self, other: object) -> bool:
        """Same elements.  Equal groups have the same sorted base images, but
        the base images alone do not decide: <(0 1)> and <(0 1)(2 3)> both
        have (0,) and (1,).  With equal orders, inclusion is equality."""
        return self is other or (isinstance(other, PermGroup) and self.degree == other.degree
                                 and self._keys == other._keys and self.is_subgroup_of(other))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self._keys))
        return self._hash

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _key_getter(key: Sequence[int]):
    """images -> the tuple of images of the points of ``key``: an itemgetter,
    except for 0 or 1 points, where an itemgetter returns no tuple."""
    if len(key) > 1:
        return itemgetter(*key)
    return lambda images: tuple([images[p] for p in key])


def conjugation_table(actions: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """From the actions of every element of a group, in index order
    (``G.actions(G.elements)``), the table whose row g maps the index of t
    to the index of g^-1 t g, with no permutation product."""
    table = []
    for ag in actions:
        g_inv = ag.index(0)  # x * g is the identity iff x = g^-1
        table.append(tuple([ag[at[g_inv]] for at in actions]))  # g^-1, then t, then g
    return table


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
    return _key_getter(a)(b)


def generate_group(degree: int, gens: Sequence[Permutation],
                   cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
    """Close a generator list under composition and inverse.

    A deterministic Schreier–Sims builds the stabilizer chain of the group
    on the base 0, 1, ..., m-1, the shortest prefix of the points whose
    pointwise stabilizer is trivial.  It sifts every Schreier generator that
    is not a tree edge but one on each cycle of a strong generator s as long
    as the order of s, which the others on that cycle generate (their
    product is u_b s^L u_b^-1 = 1).  |G| is the product of the orbit
    lengths, which bounds it from below at every stage: GroupTooLargeError
    is raised as soon as it exceeds ``cap``.  Then the base images of every
    element are the products of one transversal element per level, O(m)
    per element.  Two elements differ first at a point below m, so the
    sorted m-tuples number the elements as the sorted image tuples would;
    the result is independent of generator order.
    """
    gens = tuple(dict.fromkeys(gens))  # dedupe, keep first occurrence
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    builder = _SchreierSims(degree, cap)
    for g in gens:
        builder.sift_into(g.images, builder.identity, 0)
    chain = builder.chain
    return PermGroup(degree, gens, chain, sorted(_base_images(chain)))


# -- the stabilizer chain ------------------------------------------------------
#
# Level l of a chain is the dict {point: u}: the orbit of l under the
# pointwise stabilizer of 0, ..., l-1, each point with a transversal element
# u, as an image tuple, that sends l to it (l itself to the identity).  Every
# element is one product u_{m-1} ... u_1 u_0, one factor per level.


class _SchreierSims:
    """The state of a deterministic Schreier–Sims; ``chain`` is the result.

    Each level keeps its strong generators S_l, which fix 0, ..., l-1, and
    grows its orbit and transversal from the root along them.  A Schreier
    generator u_b s u_{b s}^-1 that is not a tree edge is sifted through
    the levels below, to the identity on every point.  One that does not
    sift is a new strong generator of the levels from l+1 down to the first
    point it moves, which are then completed from the bottom up; a base
    that runs out gains levels, so it stays a prefix.  Two kinds of
    non-tree edge are not sifted:

    - the root's, for a generator that fixes the level's point: it is the
      generator itself, a strong generator of the next level;
    - the first one met on a cycle b -> b s -> ... -> b s^L = b of s whose
      length L is the order of s.  The Schreier generators along the cycle
      multiply to u_b s^L u_b^-1 = 1 and those of its tree edges are 1, so
      the others on the cycle, all sifted, generate it.  The first such
      edge marks the cycle's points; s^L is computed once per generator
      and length.  The marks of a level and generator are allocated at its
      first non-tree edge, so a generator that fixes many levels' points
      costs no marks there.
    """

    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        self.identity = tuple(range(degree))
        self.chain: list[dict[int, tuple[int, ...]]] = []
        self.orbits: list[list[int]] = []  # each level's points, in order of discovery
        self.strong: list[list[tuple[int, ...]]] = []
        self.checked: list[list[int]] = []  # checked[l][k]: orbit points met by strong[l][k]
        # marks[l][k]: the points of the strong[l][k]-cycles a non-tree edge has
        # met; until the first one, the shared read-only ``unmarked``
        self.unmarked = bytes(degree)
        self.marks: list[list[bytes]] = []
        # powers[l][k]: L -> whether s^L is the identity, for s = strong[l][k];
        # one dict per generator, shared by its levels
        self.powers: list[list[dict[int, bool]]] = []
        self.order = 1  # the product of the orbit lengths

    def sift_into(self, a: tuple[int, ...], b: tuple[int, ...], first: int) -> None:
        """Sift a * b^-1 from level ``first``; a residue becomes a strong
        generator."""
        found = _sift(self.chain, a, b, first)
        if found is not None:
            level, h = found
            if level == len(self.chain):  # h fixes the whole base
                level = next(p for p in range(level, self.degree) if h[p] != p)
            self.add(h, first, level)

    def add(self, h: tuple[int, ...], first: int, level: int) -> None:
        """Make h, which fixes 0, ..., level-1 and moves level, a strong
        generator of the levels first, ..., level and complete them."""
        while len(self.chain) <= level:
            point = len(self.chain)
            self.chain.append({point: self.identity})
            self.orbits.append([point])
            self.strong.append([])
            self.checked.append([])
            self.marks.append([])
            self.powers.append([])
        powers: dict[int, bool] = {}
        for l in range(first, level + 1):
            self.strong[l].append(h)
            self.checked[l].append(0)
            self.marks[l].append(self.unmarked)
            self.powers[l].append(powers)
        for l in range(level, first - 1, -1):
            self.complete(l)

    def complete(self, level: int) -> None:
        """Meet every orbit point with every strong generator of the level."""
        transversal, orbit = self.chain[level], self.orbits[level]
        S, done = self.strong[level], self.checked[level]
        marks, powers = self.marks[level], self.powers[level]
        grown = True
        while grown:
            grown = False
            for k, s in enumerate(S):
                while done[k] < len(orbit):
                    b = orbit[done[k]]
                    done[k] += 1
                    c = s[b]
                    if c not in transversal:
                        self.order = self.order // len(orbit) * (len(orbit) + 1)
                        if self.order > self.cap:
                            raise GroupTooLargeError(self.cap)
                        transversal[c] = itemgetter(*transversal[b])(s)
                        orbit.append(c)
                        grown = True
                    # each edge (b, k) is met once, and a tree edge is the one
                    # that adds c, so this is a non-tree edge
                    elif not b == c == level \
                            and (marks[k][b] or not self.spared(marks, k, powers[k], s, b)):
                        self.sift_into(itemgetter(*transversal[b])(s), transversal[c], level + 1)

    def spared(self, marks: list[bytes], k: int, powers: dict[int, bool],
               s: tuple[int, ...], b: int) -> bool:
        """Whether the non-tree edge from b along s = strong[l][k], the first
        one met on b's cycle of s, need not be sifted: s^L is the identity
        for the cycle's length L.  Marks the cycle's points in ``marks[k]``,
        the level's marks of s, allocated here on its first non-tree edge;
        ``powers`` keeps s^L == 1 by L."""
        if marks[k] is self.unmarked:
            marks[k] = bytearray(self.degree)
        met = marks[k]
        met[b] = 1
        length, x = 1, s[b]
        while x != b:
            met[x] = 1
            x = s[x]
            length += 1
        spared = powers.get(length)
        if spared is None:
            spared = powers[length] = _power(s, length) == self.identity
        return spared


def _power(s: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The images of s^e, e >= 1, by repeated squaring."""
    result = None
    while True:
        if e & 1:
            result = s if result is None else itemgetter(*result)(s)
        e >>= 1
        if not e:
            return result
        s = itemgetter(*s)(s)


def _base_images(chain: list[dict[int, tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The images of the base 0, ..., m-1 under every element of the group,
    unsorted: the products u_{m-1} * ... * u_0, one transversal element per
    level, taken from the deepest level up.  The chain factors every element
    uniquely, so each appears exactly once.  A level holding the identity
    alone is skipped."""
    found = [tuple(range(len(chain)))]
    for transversal in reversed(chain):
        if len(transversal) > 1:
            found = [get(u) for get in map(_key_getter, found) for u in transversal.values()]
    return found


def _sift(chain: list[dict[int, tuple[int, ...]]], a: tuple[int, ...],
          b: tuple[int, ...], first: int = 0) -> Optional[tuple[int, tuple[int, ...]]]:
    """Sift x = a * b^-1 through the levels from ``first`` on.

    x is kept as the pair (a, b): dividing it by a transversal element u
    is the one forward product b -> u * b, and no inverse is formed.
    Returns None when x reaches the identity, which is checked on every
    point (a == b), not on the base alone.  Otherwise returns the level
    whose orbit misses x's image of its point, or len(chain) when x fixes
    the whole base but is not the identity, with the residue: x divided by
    the transversal elements met.
    """
    for level in range(first, len(chain)):
        image = a[level]
        if b[level] == image:  # x fixes the point: its factor is the identity
            continue
        u = chain[level].get(b.index(image))
        if u is None:
            return level, _divide(a, b)
        b = itemgetter(*u)(b)
    if a == b:
        return None
    return len(chain), _divide(a, b)


def _divide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The images of a * b^-1."""
    return itemgetter(*a)(inverse_action(b))


def _chain_element(chain: list[dict[int, tuple[int, ...]]], key: Sequence[int],
                   degree: int) -> tuple[int, ...]:
    """The images of the element whose base images are ``key``: the product
    of its transversal elements, one per level."""
    factors = []
    key = list(key)
    for level, transversal in enumerate(chain):
        if key[level] != level:
            u = transversal[key[level]]
            factors.append(u)
            inv = inverse_action(u)
            key = [inv[x] for x in key]  # the base images of (element) * u^-1
    images = tuple(range(degree))
    for u in reversed(factors):
        images = itemgetter(*images)(u)
    return images


def subgroup_intersection(H: PermGroup, K: PermGroup) -> PermGroup:
    """H ∩ K, closed from the elements of the smaller group that lie in the
    larger.  An element is kept as a generator only when the kept ones do
    not generate it (``generated_indices`` over the smaller group's
    actions), so there are at most log2 |H ∩ K| of them."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    small, large = (H, K) if H.order <= K.order else (K, H)
    gens: list[Permutation] = []
    actions: list[tuple[int, ...]] = []
    generated = {0}
    for n, x in enumerate(small.elements):
        if n not in generated and x in large:
            gens.append(x)
            actions += small.actions([x])
            generated = generated_indices(actions)
    return generate_group(H.degree, gens)


def product_set(H: PermGroup, K: PermGroup) -> frozenset[Permutation]:
    """The set HK = {h k : h in H, k in K}; |HK| = |H||K| / |H ∩ K|.
    GroupTooLargeError is raised once it holds more than
    ``DEFAULT_ELEMENT_CAP`` elements."""
    if H.degree != K.degree:
        raise ValueError("degree mismatch")
    out: set[Permutation] = set()
    for h in H:
        for k in K:
            out.add(h * k)
            if len(out) > DEFAULT_ELEMENT_CAP:
                raise GroupTooLargeError(DEFAULT_ELEMENT_CAP)
    return frozenset(out)


@dataclass(frozen=True, slots=True)
class RightCoset:
    """A right coset H g with its canonical (lexicographically minimal) representative."""

    subgroup: PermGroup
    representative: Permutation

    def elements(self) -> Iterator[Permutation]:
        g = self.representative
        return (h * g for h in self.subgroup)


def right_coset(H: PermGroup, g: Permutation) -> RightCoset:
    """The coset H g with canonical representative min(H g)."""
    if H.degree != g.degree:
        raise ValueError("degree mismatch")
    return RightCoset(H, min(h * g for h in H))


def coset_orbit(subgroup: Collection[int],
                actions: Sequence[Sequence[int]]) -> list[list[int]]:
    """The orbit of a subgroup H, given as a set of positions, under right
    multiplication by the elements with these actions: the right cosets
    H x reached from H, since (H x) g = H (x g), each as a list of
    positions, H first.

    Each coset is mapped through an action array, and an image is new iff
    its first position is in no coset found so far.
    """
    cosets = [list(subgroup)]
    seen = set(cosets[0])
    for coset in cosets:  # the list grows while it is walked
        for act in actions:
            if act[coset[0]] not in seen:
                image = [act[x] for x in coset]
                seen.update(image)
                cosets.append(image)
    return cosets


def coset_column(subgroup: Collection[int], actions: Sequence[Sequence[int]],
                 order: int) -> tuple[list[int], list[int]]:
    """The right cosets of a subgroup of a group G of the given order, the
    subgroup given as a set of positions of G and ``actions`` the arrays of
    G's generators, which the caller builds once.

    Returns (column, least): ``column[x]`` is the number of the coset
    holding position x, and ``least[c]`` the least position in coset c,
    which is the position of its canonical representative.  The cosets are
    the ``coset_orbit`` of the subgroup under the generators of G, then
    numbered by least position, in one pass over the positions in order.
    """
    found = coset_orbit(subgroup, actions)
    column = [0] * order
    for n, coset in enumerate(found):
        for x in coset:
            column[x] = n
    number = [-1] * len(found)
    least: list[int] = []
    for x, c in enumerate(column):
        if number[c] < 0:
            number[c] = len(least)
            least.append(x)
    return [number[c] for c in column], least


def right_coset_decomposition(G: PermGroup,
                              H: PermGroup) -> dict[Permutation, RightCoset]:
    """Every element of G mapped to its right coset of H, read from the
    ``coset_column`` of the positions that H's generators generate: the
    cosets first appear, in the map's values, in ascending order of
    representative."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    column, least = coset_column(generated_indices(G.actions(H.generators)),
                                 G.actions(G.generators), G.order)
    cosets = [RightCoset(H, G.element(x)) for x in least]
    return {x: cosets[c] for x, c in zip(G.elements, column)}


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


def extends_to_homomorphism(G: PermGroup, actions: Sequence[Sequence[int]],
                            images: Sequence[Permutation]) -> bool:
    """Does gens[i] -> images[i] extend to a homomorphism on G?

    The gens are given by their action arrays.  Breadth-first search over
    the pairs (x, phi(x)), from phi(1) = 1 along phi(x * gens[i]) =
    phi(x) * images[i]: x moves on indices by the arrays, phi(x) by
    products of image tuples.  The pairs
    reached are the subgroup D of the direct product generated by the
    (gens[i], images[i]), so the map is well defined iff every edge agrees
    with the value phi already has, i.e. iff |D| == |G|.  Raises ValueError
    when gens do not generate G, whether or not the images conflict.
    """
    if len(actions) != len(images):
        raise ValueError("generator/image length mismatch")
    if images and len({q.degree for q in images}) != 1:
        raise ValueError("images do not share a common degree")
    edges = [(act, q.images) for act, q in zip(actions, images)]
    phi = {0: tuple(range(images[0].degree)) if images else ()}
    stack = [0]
    consistent = True
    while stack:
        x = stack.pop()
        fx_times = _key_getter(phi[x])  # q's images -> phi(x) q's images
        for act, q in edges:
            y = act[x]
            fy = fx_times(q)
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
    actions on the indices of G (``G.actions``).  This is the pair search of
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
