"""Kernel cross-check against sympy's Schreier–Sims groups.

Both decision paths sit on ``permcore``, so a kernel bug would pass the
fast == oracle gate.  These checks rebuild every group from its generators'
image arrays in ``sympy.combinatorics`` (stabilizer chains, no element
enumeration by ``permcore``) and compare the orders the decision depends on:
|G|, the maximal parabolics G_i = ⟨α_i⁻¹α_j : i, j ≠ type⟩, and every
pairwise intersection G_i ∩ G_j.  The kernel side reads what the decision
reads: the parabolics as index sets of G (and their ``PermGroup`` views),
intersected as sets.  The closure's own chain is checked too: its order,
and its base 0, ..., m-1 as the shortest prefix of the points whose
pointwise stabilizer is trivial.
"""

import itertools

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from hypertope.corpus import build_corpus, rank3_group_list, rank4_group_list  # noqa: E402
from hypertope.cplus import build_cplus  # noqa: E402
from hypertope.permcore import Permutation, generate_group  # noqa: E402

SymPerm = combinatorics.Permutation
SymGroup = combinatorics.PermutationGroup


def _sympy_orders(degree, R):
    """|G|, [|G_i|] and {(i, j): |G_i ∩ G_j|}, computed by sympy alone."""
    identity = SymPerm(list(range(degree)))
    alphas = [identity] + [SymPerm(list(r.images)) for r in R]  # alpha_0 = 1
    rank = len(alphas)

    def group(gens):
        return SymGroup(gens or [identity])

    # sympy composes left to right like permcore: (p*q)(x) = q(p(x))
    maximal = [group([~alphas[a] * alphas[b]
                      for a in range(rank) for b in range(rank)
                      if a != b and i not in (a, b)])
               for i in range(rank)]
    meets = {}
    for i, j in itertools.combinations(range(rank), 2):
        small, large = sorted((maximal[i], maximal[j]), key=lambda H: H.order())
        meets[i, j] = sum(1 for h in small.generate() if large.contains(h))
    return group(alphas[1:]).order(), [H.order() for H in maximal], meets


def _kernel_orders(S):
    maximal = [S.maximal_indices(i) for i in S.type_set]
    views = S.maximal_parabolics()
    assert [H.order for H in views] == [len(H) for H in maximal]
    meets = {(i, j): len(maximal[i] & maximal[j])
             for i, j in itertools.combinations(S.type_set, 2)}
    return S.group.order, [len(H) for H in maximal], meets


def _assert_orders_agree(degree, R, S):
    assert _kernel_orders(S) == _sympy_orders(degree, R)


def test_acceptance_corpus_orders_match_sympy():
    corpus = build_corpus()
    assert len(corpus) > 300
    for inst in corpus:
        S = build_cplus(inst.group, inst.R)
        _assert_orders_agree(inst.group.degree, inst.R, S)


def _ladder_a_generators(p):
    """G = {x -> ax + b mod p} with a^2 = -1, R = (s, s t)."""
    a = next(a for a in range(2, p) if a * a % p == p - 1)
    s = Permutation([a * x % p for x in range(p)])
    t = Permutation([(a * x + 1) % p for x in range(p)])
    return (s, s * t)


def _ladder_b_generators(rank):
    """alpha_i = (0 1)(i i+1) in A_{rank+1}."""
    n = rank + 1
    return tuple(Permutation.from_cycles(n, [(0, 1)]) * Permutation.from_cycles(n, [(i, i + 1)])
                 for i in range(1, rank))


@pytest.mark.parametrize("degree, R", [
    pytest.param(101, _ladder_a_generators(101), id="ladder-a-p101"),
    pytest.param(197, _ladder_a_generators(197), id="ladder-a-p197"),
    pytest.param(5, _ladder_b_generators(4), id="ladder-b-rank4"),
    pytest.param(6, _ladder_b_generators(5), id="ladder-b-rank5"),
    pytest.param(7, _ladder_b_generators(6), id="ladder-b-rank6"),
])
def test_ladder_orders_match_sympy(degree, R):
    G = generate_group(degree, R)
    S = build_cplus(G, R)
    _assert_orders_agree(degree, R, S)
    assert G.order == {101: 404, 197: 788, 5: 60, 6: 360, 7: 2520}[degree]


def _sympy_group(G):
    return SymGroup([SymPerm(list(g.images)) for g in G.generators]
                    or [SymPerm(list(range(G.degree)))])


def _sympy_chain_order(H):
    """|H| from sympy's incremental Schreier–Sims: the product of its basic
    orbit lengths.  ``H.order()`` gives the same number, but at p = 2477 it
    spends most of its time rewriting straight-line programs."""
    base, strong_gens = H.schreier_sims_incremental()
    identity = SymPerm(list(range(H.degree)))
    order = 1
    for i, point in enumerate(base):
        # the strong generators that fix base[:i] generate its pointwise stabilizer
        level = [g for g in strong_gens if all(g.array_form[b] == b for b in base[:i])]
        order *= len(SymGroup(level or [identity]).orbit(point))
    return order


def _chain_cases():
    cases = [pytest.param(G.degree, list(G.generators), id=name)
             for name, G in rank3_group_list() + rank4_group_list()]
    cases += [pytest.param(p, list(_ladder_a_generators(p)), id=f"ladder-a-p{p}")
              for p in (101, 401, 797, 2477)]
    cases += [pytest.param(rank + 1, list(_ladder_b_generators(rank)), id=f"simplex-rank{rank}")
              for rank in (4, 5, 6, 7)]
    return cases


@pytest.mark.parametrize("degree, gens", _chain_cases())
def test_chain_order_and_base_length_match_sympy(degree, gens):
    G = generate_group(degree, gens)
    H = _sympy_group(G)
    m = G.base_length
    assert G.order == _sympy_chain_order(H)
    assert H.pointwise_stabilizer(list(range(m))).is_trivial
    assert m > 0 and not H.pointwise_stabilizer(list(range(m - 1))).is_trivial
