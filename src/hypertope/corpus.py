"""Small-group catalog and instance generation for cross-validation runs.

Instances are pairs (group, R) with R an ordered generating tuple.  To keep
exhaustive sweeps tractable, generating tuples are deduplicated up to
simultaneous conjugation: conjugate tuples give isomorphic coset systems and
identical verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .permcore import (
    PermGroup,
    Permutation,
    action_table,
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


def elementary_abelian_2cubed() -> PermGroup:
    gens = [Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [(2, 3)]),
            Permutation.from_cycles(6, [(4, 5)])]
    return generate_group(6, gens)


def torus_rotation_group() -> tuple[PermGroup, tuple[Permutation, Permutation]]:
    """Rotation group of the {4,4}_(1,2) torus map, with its two distinguished
    order-4 rotations (their product has order 2).

    Realized as the order-20 Frobenius group of affine maps x -> a x + b over
    Z_5, acting on 5 points.
    """
    s = Permutation([(2 * x) % 5 for x in range(5)])
    t = Permutation([(2 * x + 1) % 5 for x in range(5)])
    return generate_group(5, [s, t]), (s, t)


def regular_representation(G: PermGroup,
                           gens: Sequence[Permutation]) -> tuple[int, list[Permutation]]:
    """Degree-|G| right-regular images of the given elements of G."""
    return G.order, [Permutation(G.action(g)) for g in gens]


# -- generating tuple enumeration ------------------------------------------

def generating_tuples(G: PermGroup, size: int, independent: Optional[bool] = None,
                      dedupe: bool = True,
                      limit: Optional[int] = None) -> Iterator[tuple[Permutation, ...]]:
    """Ordered generating ``size``-tuples of nonidentity elements of G.

    ``independent`` filters on whether each entry avoids the subgroup
    generated by the others (None keeps both kinds).  With ``dedupe`` only
    one representative per simultaneous-conjugacy class is yielded, in
    deterministic order.

    Tuples are tried as element indices (0 is the identity), against one
    local table of every element's action: generation and membership are
    searches over it, and the dedupe key is the least tuple of conjugate
    indices over G.
    """
    seen: set[tuple] = set()
    count = 0
    acts = action_table(G)
    inv = [G.index[x.inverse()] for x in G.elements]
    for T in itertools.product(range(1, G.order), repeat=size):
        if len(set(T)) != size:
            continue
        if len(generated_indices(acts[t] for t in T)) != G.order:
            continue
        if independent is not None:
            is_indep = all(
                T[i] not in generated_indices(acts[t] for t in T[:i] + T[i + 1:])
                for i in range(size))
            if is_indep != independent:
                continue
        if dedupe:
            # g^-1 t g: from g^-1, right-multiply by t, then by g
            key = min(tuple(ag[acts[t][inv[g]]] for t in T)
                      for g, ag in enumerate(acts))
            if key in seen:
                continue
            seen.add(key)
        yield tuple(G.elements[t] for t in T)
        count += 1
        if limit is not None and count >= limit:
            return


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


def build_corpus(independent: Optional[bool] = True,
                 rank3_limit_per_group: Optional[int] = None,
                 rank4_limit_per_group: Optional[int] = 6) -> list[CorpusInstance]:
    """Deterministic instance corpus: exhaustive (deduplicated) rank-3 sweeps
    over the group catalog plus a batch of rank-4 instances."""
    corpus: list[CorpusInstance] = []
    for name, G in rank3_group_list():
        for idx, R in enumerate(generating_tuples(
                G, 2, independent=independent, limit=rank3_limit_per_group)):
            corpus.append(CorpusInstance(f"{name}#r3-{idx}", G, R))
    for name, G in rank4_group_list():
        for idx, R in enumerate(generating_tuples(
                G, 3, independent=independent, limit=rank4_limit_per_group)):
            corpus.append(CorpusInstance(f"{name}#r4-{idx}", G, R))
    return corpus
