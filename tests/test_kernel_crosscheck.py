"""Kernel cross-check against sympy's Schreier–Sims groups.

Both decision paths sit on ``permcore``, so a kernel bug would pass the
fast == oracle gate.  These checks rebuild every group from its generators'
image arrays in ``sympy.combinatorics`` (stabilizer chains, no element
enumeration by ``permcore``) and compare what the decision and the oracle
depend on: |G|, the maximal parabolics G_i = ⟨α_a⁻¹α_b : a, b ≠ i⟩ as sets
of elements, and the order of every pairwise intersection G_i ∩ G_j.  The
kernel side reads what both paths read: the parabolics as index sets of G,
each position taken to its element's image tuple, intersected as sets (and
the orders of their ``PermGroup`` closures).  The closure's own chain is checked too:
its order, and its base 0, ..., m-1 as the shortest prefix of the points
whose pointwise stabilizer is trivial.  Condition (iv) is checked against
an order that sympy computes: r -> r^-1 extends to a homomorphism of G iff
the subgroup of G x G generated by the pairs (r, r^-1), on 2n points, has
order |G|.
"""

import itertools

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from hypertope.corpus import (  # noqa: E402
    affine_torus,
    build_corpus,
    rank3_group_list,
    rank4_group_list,
    simplex,
)
from hypertope.cplus import CHIRAL, associated_geometry, build_cplus, condition_iv  # noqa: E402
from hypertope.permcore import Permutation, generate_group  # noqa: E402

SymPerm = combinatorics.Permutation
SymGroup = combinatorics.PermutationGroup


def _sympy_parabolics(degree, R):
    """|G|, [G_i as a set of image tuples] and {(i, j): |G_i ∩ G_j|},
    computed by sympy alone."""
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
    elements = [{tuple(h.array_form) for h in H.generate()} for H in maximal]
    return group(alphas[1:]).order(), elements, meets


def _kernel_parabolics(S):
    G = S.group
    maximal = [S.maximal_indices(i) for i in S.type_set]
    views = associated_geometry(S).parabolics
    assert [H.order for H in views] == [len(H) for H in maximal]
    meets = {(i, j): len(maximal[i] & maximal[j])
             for i, j in itertools.combinations(S.type_set, 2)}
    elements = [{G.element(x).images for x in H} for H in maximal]
    return G.order, elements, meets


def _assert_parabolics_agree(degree, R, S):
    assert _kernel_parabolics(S) == _sympy_parabolics(degree, R)


def test_acceptance_corpus_orders_match_sympy():
    corpus = build_corpus()
    assert len(corpus) > 300
    for inst in corpus:
        S = build_cplus(inst.group, inst.R)
        _assert_parabolics_agree(inst.group.degree, inst.R, S)


def test_rank4_chiral_parabolics_match_sympy(rank4_classes):
    """The 152 chiral independent rank-4 classes of S5 and PSL(2,7)."""
    systems = [(G, R) for G, classes in rank4_classes.values()
               for R, report in classes if report.verdict == CHIRAL]
    assert len(systems) == 80 + 72
    for G, R in systems:
        _assert_parabolics_agree(G.degree, R, build_cplus(G, R))


@pytest.mark.parametrize("degree, R", [
    pytest.param(*affine_torus(101), id="ladder-a-p101"),
    pytest.param(*affine_torus(197), id="ladder-a-p197"),
    pytest.param(*simplex(4), id="ladder-b-rank4"),
    pytest.param(*simplex(5), id="ladder-b-rank5"),
    pytest.param(*simplex(6), id="ladder-b-rank6"),
])
def test_ladder_orders_match_sympy(degree, R):
    G = generate_group(degree, R)
    S = build_cplus(G, R)
    _assert_parabolics_agree(degree, R, S)
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
    cases += [pytest.param(*affine_torus(p), id=f"ladder-a-p{p}")
              for p in (101, 401, 797, 2477)]
    cases += [pytest.param(*simplex(rank), id=f"simplex-rank{rank}") for rank in (4, 5, 6, 7)]
    # cycles on which the closure spares a Schreier generator, or must not:
    # no cycle as long as the order, involutions with fixed points, and
    # cycles through the root as long as their generator's order
    cases += [pytest.param(n, [Permutation.from_cycles(n, c) for c in gens], id=name)
              for name, n, gens in (
                  ("short-cycles", 7, [[(0, 1), (2, 3, 4)], [(1, 5, 6)]]),
                  ("involutions", 9, [[(0, 1), (2, 3)], [(1, 2), (5, 6)], [(3, 4), (6, 7)]]),
                  ("full-cycle-at-root", 8, [[tuple(range(8))], [(1, 7), (2, 6), (3, 5)]]),
                  ("mixed-cycles-at-root", 10, [[(0, 1, 2, 3, 4, 5), (6, 7, 8)], [(0, 3), (6, 9)]]),
              )]
    return cases


@pytest.mark.parametrize("degree, gens", _chain_cases())
def test_chain_order_and_base_length_match_sympy(degree, gens):
    G = generate_group(degree, gens)
    H = _sympy_group(G)
    m = G.base_length
    assert G.order == _sympy_chain_order(H)
    assert H.pointwise_stabilizer(list(range(m))).is_trivial
    assert m > 0 and not H.pointwise_stabilizer(list(range(m - 1))).is_trivial


def _sympy_inversion_extends(R):
    """Does r -> r^-1 extend to a homomorphism of G = <R>?  It does iff its
    graph, the subgroup of G x G generated by the pairs (r, r^-1) acting on
    2n points, has order |G|; computed by sympy alone."""
    gens = [SymPerm(list(r.images)) for r in R]
    n = gens[0].size
    pairs = [SymPerm(g.array_form + [n + x for x in (~g).array_form]) for g in gens]
    return SymGroup(pairs).order() == SymGroup(gens).order()


def test_condition_iv_matches_sympy(rank4_classes):
    """The acceptance corpus (|G| <= 60) and every chiral independent
    rank-4 class of S5 and of PSL(2,7) (|G| = 120, 168)."""
    systems = [(inst.group, inst.R) for inst in build_corpus()]
    systems += [(G, R) for G, classes in rank4_classes.values()
                for R, report in classes if report.verdict == CHIRAL]
    assert len(systems) == 333 + 80 + 72
    outcomes = set()
    for G, R in systems:
        expected = not _sympy_inversion_extends(R)
        assert condition_iv(build_cplus(G, R)) == expected, (G, R)
        outcomes.add(expected)
    assert outcomes == {True, False}
