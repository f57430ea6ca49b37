"""Small-group catalog and instance generation for cross-validation runs.

Instances are pairs (group, R) with R an ordered generating tuple.  To keep
exhaustive sweeps tractable, one tuple is taken per simultaneous-conjugacy
class (conjugate tuples give isomorphic coset systems and identical
verdicts): the least member of the class.  The sweep is an orderly search
(canonical augmentation) that only ever extends class-minimal prefixes, so
generation and independence are tested once per class.

Four families check the decision above the oracle's reach, at any order:
the affine tori x -> ax + b mod p, the simplices in A_{r+1}, PSL(2,q) and
the torus maps {4,4}_(b,c).  Their builders return (degree, R), unclosed.
``torus_rotation_group`` is the closed group of ``affine_torus(5)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .permcore import (
    PermGroup,
    Permutation,
    conjugation_table,
    coset_column,
    generate_group,
    generated_indices,
)


# -- named groups -----------------------------------------------------------

def cyclic(n: int) -> PermGroup:
    return generate_group(n, [Permutation([(i + 1) % n for i in range(n)])])


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n on the vertices of an n-gon."""
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
    return generate_group(n, [rot, ref])


def symmetric(n: int) -> PermGroup:
    cycle = Permutation([(i + 1) % n for i in range(n)])
    swap = Permutation.from_cycles(n, [(0, 1)])
    return generate_group(n, [swap, cycle])


def alternating(n: int) -> PermGroup:
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        big = Permutation([(i + 1) % n for i in range(n)])
    else:
        big = Permutation.from_cycles(n, [tuple(range(1, n))])
    return generate_group(n, [three, big])


def affine_torus(p: int) -> tuple[int, tuple[Permutation, Permutation]]:
    """The chiral torus map of x -> ax + b mod p, p ≡ 1 mod 4 prime, a the
    least with a^2 ≡ -1: R = (s, s t), s: x -> ax, t: x -> ax + 1; |G| = 4p."""
    a = next(a for a in range(2, p) if a * a % p == p - 1)
    s = Permutation([a * x % p for x in range(p)])
    t = Permutation([(a * x + 1) % p for x in range(p)])
    return p, (s, s * t)


def simplex(rank: int) -> tuple[int, tuple[Permutation, ...]]:
    """The regular (rank-1)-simplex: alpha_i = (0 1)(i i+1) in A_{rank+1}."""
    n = rank + 1
    return n, tuple(Permutation.from_cycles(n, [(0, 1)]) * Permutation.from_cycles(n, [(i, i + 1)])
                    for i in range(1, rank))


def psl2(q: int) -> tuple[int, tuple[Permutation, Permutation]]:
    """PSL(2,q), q an odd prime, on the projective line (q is infinity):
    x -> x + 1 and x -> -1/x."""
    shift = Permutation([(x + 1) % q for x in range(q)] + [q])
    invert = Permutation([q if x == 0 else -pow(x, -1, q) % q for x in range(q)] + [0])
    return q + 1, (shift, invert)


def torus_map(b: int, c: int) -> tuple[int, tuple[Permutation, Permutation]]:
    """The map {4,4}_(b,c), regular iff bc(b − c) = 0 (McMullen and
    Schulte, Abstract Regular Polytopes, 2002), and its R = (σ1, σ1σ2).

    The n = b² + c² points are Z²/Λ, Λ spanned by (b, c) and (−c, b); (x, y)
    has the key ((xb + yc) mod n, (yb − xc) mod n), 0 exactly on Λ, and the
    points are numbered as a walk by (1, 0) and (0, 1) from 0 meets them.
    σ1 (x, y) ↦ (1 − y, x) and σ2 (x, y) ↦ (−y, x) are the quarter turns
    about a face centre and the vertex 0; σ1 acts first in σ1σ2."""
    n = b * b + c * c

    def key(x: int, y: int) -> tuple[int, int]:
        return (x * b + y * c) % n, (y * b - x * c) % n
    number, points = {key(0, 0): 0}, [(0, 0)]
    for x, y in points:  # grows while it is walked
        for step in ((x + 1, y), (x, y + 1)):
            if key(*step) not in number:
                number[key(*step)] = len(points)
                points.append(step)
    s1 = Permutation([number[key(1 - y, x)] for x, y in points])
    s2 = Permutation([number[key(-y, x)] for x, y in points])
    return n, (s1, s1 * s2)


def elementary_abelian_2cubed() -> PermGroup:
    gens = [Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(2, 3)]),
            Permutation.from_cycles(6, [(4, 5)])]
    return generate_group(6, gens)


def torus_rotation_group() -> tuple[PermGroup, tuple[Permutation, Permutation]]:
    """Rotation group of the {4,4}_(1,2) torus map, with its two distinguished
    order-4 rotations s: x -> 2x and t: x -> 2x + 1 over Z_5 (their product
    has order 2): the order-20 Frobenius group ``affine_torus(5)``, whose R
    is (s, s t)."""
    degree, (s, st) = affine_torus(5)
    t = s.inverse() * st
    return generate_group(degree, [s, t]), (s, t)


# -- generating tuple enumeration ------------------------------------------

def generating_tuples(G: PermGroup, size: int, independent: Optional[bool] = None,
                      limit: Optional[int] = None) -> Iterator[tuple[Permutation, ...]]:
    """Ordered generating ``size``-tuples of distinct nonidentity elements of
    G, one per simultaneous-conjugacy class, in ascending order.

    ``independent`` filters on whether each entry avoids the subgroup
    generated by the others (None keeps both kinds).  ``limit`` stops the
    search after that many tuples.

    Tuples are element indices (0 is the identity), and each yielded tuple
    T is the least of its class: T <= T^g for every g, entrywise
    conjugation compared lexicographically.  Distinctness, generation and
    independence hold for all of a class or none of it, and a prefix of a
    class-minimal tuple is class-minimal.  So the search is depth first in
    ascending order and extends a prefix P by t only when t is the least of
    its orbit under C(P) = {g : P^g = P}; C(P + t) is then the part of C(P)
    that fixes t.  Generation and independence are searches over one local
    action table, ``G.actions(G.elements)``, run on complete tuples only.
    The generation test of T = P + (t,) works on the cosets of ⟨P⟩, built
    once per prefix P (``_generation_test``).  As T generates G,
    T[-1] ∈ ⟨P⟩ iff ⟨P⟩ = G, which that test also reports; for
    i < size - 1, T[i] is looked for in the subgroup the other entries
    generate (``generated_indices``).
    """
    acts = G.actions(G.elements)
    generator_actions = [acts[G.index_of(g)] for g in G.generators]
    conj = conjugation_table(acts)
    count = 0
    prefix: Optional[tuple[int, ...]] = None
    for T in _class_minimal_tuples(conj, size, (), range(G.order)):
        if T[:-1] != prefix:  # the extensions of a prefix come one after another
            prefix = T[:-1]
            generates, prefix_generates = _generation_test(acts, generator_actions, prefix)
        if not generates(T[-1]):
            continue
        if independent is not None:
            is_indep = not (prefix_generates
                            or any(T[i] in generated_indices(acts[t] for t in T[:i] + T[i + 1:])
                                   for i in range(size - 1)))
            if is_indep != independent:
                continue
        yield tuple(G.elements[t] for t in T)
        count += 1
        if limit is not None and count >= limit:
            return


def _generation_test(acts: Sequence[Sequence[int]], generator_actions: Sequence[Sequence[int]],
                     prefix: tuple[int, ...]) -> tuple[Callable[[int], bool], bool]:
    """The test of ⟨P, t⟩ = G for the prefix P, as a function of t, and
    whether ⟨P⟩ = G already; ``acts`` is the action table of G, in index
    order, and ``generator_actions`` are the rows of G's generators.

    ⟨P, t⟩ contains H = ⟨P⟩, so it is G iff the orbit of coset 0, which
    is H, under the moves of P and t on the cosets of H covers all |G : H|
    of them (``generated_indices`` over the moves).  H, its
    ``coset_column`` and the moves of P's entries are built once, here;
    each t then costs a search over the cosets, not over G.  ⟨P⟩ = G iff
    there is one coset.
    """
    column, least = coset_column(generated_indices(acts[p] for p in prefix),
                                 generator_actions, len(acts))
    moves = [[column[act[x]] for x in least] for act in (acts[p] for p in prefix)]

    def generates(t: int) -> bool:
        act = acts[t]
        return len(generated_indices(moves + [[column[act[x]] for x in least]])) == len(least)
    return generates, len(least) == 1


def _class_minimal_tuples(conj: Sequence[Sequence[int]], size: int,
                          prefix: tuple[int, ...],
                          stabilizer: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The class-minimal extensions of ``prefix`` to ``size`` distinct
    nonidentity indices, in ascending order.

    ``prefix`` is class-minimal and ``stabilizer`` lists the g with
    prefix^g = prefix; ``conj[g][t]`` is the index of g^-1 t g.
    """
    if len(prefix) == size:
        yield prefix
        return
    rows = [conj[g] for g in stabilizer]
    least = list(map(min, zip(*rows)))  # least of each orbit under the stabilizer
    for t in range(1, len(conj)):
        if least[t] == t and t not in prefix:
            yield from _class_minimal_tuples(
                conj, size, prefix + (t,), [g for g, row in zip(stabilizer, rows) if row[t] == t])


@dataclass
class CorpusInstance:
    name: str
    group: PermGroup
    R: tuple[Permutation, ...]

    @property
    def rank(self) -> int:
        return len(self.R) + 1


def rank3_group_list() -> list[tuple[str, PermGroup]]:
    groups: list[tuple[str, PermGroup]] = [
        ("c6", cyclic(6)),
        ("c10", cyclic(10)),
        ("c12", cyclic(12)),
        ("c15", cyclic(15)),
        ("a4", alternating(4)),
        ("s4", symmetric(4)),
        ("a5", alternating(5)),
        ("f20", torus_rotation_group()[0]),
    ]
    groups.extend((f"d{n}", dihedral(n)) for n in range(3, 17))
    groups.extend((f"d{n}", dihedral(n)) for n in (18, 20))
    return groups


def rank4_group_list() -> list[tuple[str, PermGroup]]:
    return [
        ("c2^3", elementary_abelian_2cubed()),
        ("d4", dihedral(4)),
        ("d6", dihedral(6)),
        ("a4", alternating(4)),
        ("s4", symmetric(4)),
    ]


def build_corpus() -> list[CorpusInstance]:
    """Deterministic instance corpus: exhaustive rank-3 sweeps of the
    independent tuples (one per conjugacy class) over the group catalog
    plus the first six independent rank-4 classes of each rank-4 group."""
    corpus: list[CorpusInstance] = []
    for name, G in rank3_group_list():
        for idx, R in enumerate(generating_tuples(G, 2, independent=True)):
            corpus.append(CorpusInstance(f"{name}#r3-{idx}", G, R))
    for name, G in rank4_group_list():
        for idx, R in enumerate(generating_tuples(G, 3, independent=True, limit=6)):
            corpus.append(CorpusInstance(f"{name}#r4-{idx}", G, R))
    return corpus
