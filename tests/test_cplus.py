"""The group-theoretic chirality decision and its supporting machinery."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    c3xc3_cplus,
    catalog_cplus,
    conjugated,
    relabelled,
    simplex_cplus,
    torus_cplus,
    torus_p_cplus,
    type_reordered,
)
from hypertope import cplus
from hypertope.catalog import catalog_names
from hypertope.corpus import (
    alternating,
    build_corpus,
    cyclic,
    generating_tuples,
    rank3_group_list,
    rank4_group_list,
    symmetric,
    torus_map,
)
from hypertope.cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    _incident_type_k_cosets,
    associated_geometry,
    build_cplus,
    check_ic_plus,
    condition_i,
    condition_ii,
    condition_iii,
    condition_iv,
    is_chiral_hypertope,
    is_independent_generating_set,
    two_orbit_decomposition,
)
from hypertope.oracle import chirality_bruteforce
from hypertope.permcore import (
    Permutation,
    double_coset_decomposition,
    extends_to_homomorphism,
    generate_group,
    generated_indices,
    product_set,
    subgroup_intersection,
)


def _cross_check_builders():
    """Builders of every system the enumeration cross-checks cover: the
    acceptance corpus, the catalog and the rank-4 and rank-5 simplices.
    Each call builds a fresh system."""
    builders = [lambda inst=inst: build_cplus(inst.group, inst.R) for inst in build_corpus()]
    builders += [lambda name=name: catalog_cplus(name) for name in catalog_names()]
    builders += [lambda: simplex_cplus(4), lambda: simplex_cplus(5)]
    return builders


@pytest.fixture(scope="module")
def integer_path_systems():
    """Fresh systems for the integer-path equivalence checks: every
    ``build_corpus()`` instance, every catalog entry, the simplices of rank
    4 to 6 and the torus p = 101."""
    systems = [build_cplus(inst.group, inst.R) for inst in build_corpus()]
    systems += [catalog_cplus(name) for name in catalog_names()]
    systems += [simplex_cplus(rank) for rank in (4, 5, 6)]
    systems.append(torus_p_cplus(101))
    return systems


def _alpha(S, i, j):
    """The reference alpha_{ij} = alpha_i^-1 alpha_j as a permutation, with
    alpha_0 = 1 and alpha_i = R[i-1]; note alpha_{ji} = alpha_{ij}^-1."""
    alphas = (S.group.identity,) + S.R
    return alphas[i].inverse() * alphas[j]


def _closed_parabolic(S, J):
    """The parabolic of J closed from the permutations alpha_{ij}, i != j ∈ J."""
    return generate_group(S.group.degree, [_alpha(S, i, j) for i in J for j in J if i != j])


def _ic_plus_reference(S):
    """IC⁺ over permutation sets: every pair of subsets of size >= 2,
    parabolics closed by ``generate_group`` and met by ``subgroup_intersection``."""
    closed = {}

    def P(J):
        J = tuple(sorted(J))
        if J not in closed:
            closed[J] = _closed_parabolic(S, J)
        return closed[J]

    subsets = [J for size in range(2, S.rank + 1)
               for J in itertools.combinations(S.type_set, size)]
    return all(subgroup_intersection(P(J), P(K)).order == P(set(J) & set(K)).order
               for a, J in enumerate(subsets) for K in subsets[a:])


# -- construction -----------------------------------------------------------

def test_build_requires_generating_set():
    G = symmetric(4)
    with pytest.raises(ValueError):
        build_cplus(G, (Permutation.from_cycles(4, [(0, 1)]),))


def test_build_requires_membership():
    G = alternating(4)
    with pytest.raises(ValueError):
        build_cplus(G, (Permutation.from_cycles(4, [(0, 1)]),
                        Permutation.from_cycles(4, [(0, 1, 2)])))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_alpha_telescoping(data):
    S = torus_cplus()
    i = data.draw(st.integers(0, 2))
    j = data.draw(st.integers(0, 2))
    k = data.draw(st.integers(0, 2))
    assert _alpha(S, i, j) * _alpha(S, j, k) == _alpha(S, i, k)
    assert _alpha(S, j, i) == _alpha(S, i, j).inverse()
    if i < j:  # the system's array of alpha_{ij} is the reference's action
        assert S.alpha_action(i, j) == S.group.actions([_alpha(S, i, j)])[0]


def test_alpha_action_covers_every_ordered_pair():
    # alpha_0 = 1, so alpha_{i0} = alpha_i^-1 is one of the system's arrays too
    S = catalog_cplus("fix-code1-s5")
    for i, j in itertools.permutations(S.type_set, 2):
        assert S.alpha_action(i, j) == S.group.actions([_alpha(S, i, j)])[0]


def test_parabolic_recipe_matches_single_base_point():
    # <alpha_ij : i,j in J> = <alpha_mj : j in J> for m = min(J)
    S = catalog_cplus("fix-code1-s5")
    for size in (2, 3):
        for J in itertools.combinations(S.type_set, size):
            m = J[0]
            direct = generate_group(S.group.degree,
                                    [_alpha(S, m, j) for j in J if j != m])
            assert direct == _closed_parabolic(S, J)
            assert S.parabolic_indices(J) == {S.group.index_of(x) for x in direct}


def test_parabolic_of_singleton_is_trivial():
    S = torus_cplus()
    assert S.parabolic_indices([1]) == S.parabolic_indices([]) == {0}


def test_maximal_parabolics_of_torus():
    S = torus_cplus()
    assert [H.order for H in associated_geometry(S).parabolics] == [4, 2, 4]
    assert S.type_order == (1, 0, 2)  # by |G_i|, ties by type index


def test_parabolic_index_sets_match_closures(integer_path_systems):
    for S in integer_path_systems:
        G = S.group
        for size in range(S.rank + 1):
            for J in itertools.combinations(S.type_set, size):
                closed = _closed_parabolic(S, J)
                assert S.parabolic_indices(J) == {G.index_of(x) for x in closed}, (S.R, J)
        # the geometry's closures of the maximal parabolics are the same groups
        for k, view in enumerate(associated_geometry(S).parabolics):
            closed = _closed_parabolic(S, [j for j in S.type_set if j != k])
            assert view == closed and view.elements == closed.elements
            assert view.base_images == closed.base_images


# -- independence and IC+ ---------------------------------------------------

def test_independence_examples():
    c6 = cyclic(6)
    g = c6.generators[0]
    assert is_independent_generating_set(build_cplus(c6, (g,)))
    c4 = cyclic(4)
    h = c4.generators[0]
    assert not is_independent_generating_set(build_cplus(c4, (h, h * h)))
    assert is_independent_generating_set(torus_cplus())


def test_ic_plus_examples():
    assert check_ic_plus(torus_cplus())
    c4 = cyclic(4)
    h = c4.generators[0]
    assert not check_ic_plus(build_cplus(c4, (h, h * h)))


def test_ic_plus_matches_permutation_sets(integer_path_systems):
    outcomes = set()
    for S in integer_path_systems:
        expected = _ic_plus_reference(S)
        assert check_ic_plus(S) == expected, (S.group, S.R)
        outcomes.add(expected)
    assert outcomes == {True, False}


def _count_calls(monkeypatch, name):
    """Replace ``cplus.<name>`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(cplus, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(cplus, name, counted)
    return calls


def _subsets(S, largest):
    """Every subset of 1 to ``largest`` types of S, as a sorted tuple."""
    return {J for size in range(1, largest + 1) for J in itertools.combinations(S.type_set, size)}


def test_ic_plus_is_computed_once(monkeypatch):
    """IC⁺ tests each J against the maximal parabolics, so it looks up
    exactly the subsets of 1 to rank - 2 types and closes each once (the
    maximal ones come with the system), and it is computed once per system:
    a second computation would look a subset up, which raises once the
    lookup is gone."""
    closed = _count_calls(monkeypatch, "generated_indices")
    for S in [torus_cplus()] + [simplex_cplus(rank) for rank in (4, 5, 6)]:
        del closed[:]
        looked_up = []
        lookup = S.parabolic_indices
        S.parabolic_indices = lambda J: looked_up.append(J) or lookup(J)
        assert check_ic_plus(S)
        assert set(looked_up) == _subsets(S, S.rank - 2)
        assert len(set(looked_up)) == len(closed) == 2 ** S.rank - 2 - S.rank
        S.parabolic_indices = None
        assert check_ic_plus(S)


def _corpus_and_rank4_systems(rank4_classes):
    """Fresh systems of the 333 corpus instances, of the 310 dependent
    corpus tuples and of every rank-4 class of S5 and PSL(2,7), each with
    the class's report over all k (None outside the rank-4 classes)."""
    dependent = ([(G, R) for _, G in rank3_group_list()
                  for R in generating_tuples(G, 2, independent=False)]
                 + [(G, R) for _, G in rank4_group_list()
                    for R in generating_tuples(G, 3, independent=False, limit=6)])
    assert len(dependent) == 310
    systems = [(build_cplus(inst.group, inst.R), None) for inst in build_corpus()]
    systems += [(build_cplus(G, R), None) for G, R in dependent]
    systems += [(build_cplus(G, R), report)
                for G, classes in rank4_classes.values() for R, report in classes]
    return systems


def _ic_plus_all_pairs(S):
    """IC⁺ as stated: every pair of subsets J, K of at least two types,
    |G_J ∩ G_K| = |G_{J ∩ K}|, over the system's index sets."""
    P = S.parabolic_indices
    subsets = [J for size in range(2, S.rank + 1) for J in itertools.combinations(S.type_set, size)]
    return all(len(P(J) & P(K)) == len(P(set(J) & set(K)))
               for a, J in enumerate(subsets) for K in subsets[a + 1:])


def test_ic_plus_against_maximal_parabolics_equals_all_pairs(rank4_classes):
    """Testing each J against the maximal parabolics answers as every pair
    of subsets does, on the corpus and on every rank-4 class, the code-5
    classes among them."""
    outcomes = collections.Counter()
    for S, report in _corpus_and_rank4_systems(rank4_classes):
        got = check_ic_plus(S)
        assert got == _ic_plus_all_pairs(S), (S.group, S.R)
        if report is not None and report.failing_condition == 5:
            assert not got
            outcomes["code 5"] += 1
        outcomes[got] += 1
    assert outcomes[True] and outcomes[False] and outcomes["code 5"]


def test_independence_equals_a_search_for_each_generator(rank4_classes):
    """Membership of each α_i in the maximal parabolic G_i answers as the
    search for α_i in the subgroup generated by the other generators."""
    outcomes = set()
    for S, _ in _corpus_and_rank4_systems(rank4_classes):
        acts = S.actions
        expected = not any(act[0] in generated_indices(acts[:i] + acts[i + 1:])
                           for i, act in enumerate(acts))
        assert is_independent_generating_set(S) == expected, (S.group, S.R)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_generation_is_searched_unless_G_was_closed_from_R(monkeypatch):
    """A G closed from R needs no generation search: its generators are
    among R, so only the maximal parabolics are closed.  Any other G is
    searched, and an R that does not generate it is refused, also when R
    holds some of G's generators."""
    closed = _count_calls(monkeypatch, "generated_indices")
    G = symmetric(4)
    a, b = G.generators
    R = (b, a, b)
    build_cplus(generate_group(4, R), R)
    assert len(closed) == len(R) + 1  # the maximal parabolics alone
    del closed[:]
    for R in [(a, b * b), (b, b * b), (b,)]:  # orders 8, 4 and 4
        with pytest.raises(ValueError, match="R does not generate G"):
            build_cplus(G, R)
    assert len(closed) == 3
    assert not set(G.generators) <= {a, b * a}
    assert build_cplus(G, (a, b * a)).group is G  # searched, and it generates


def test_involutory_R_fails_iv_without_a_pair_search(monkeypatch):
    """When every α_i is an involution, the identity inverts R and (iv) fails
    with no pair search: so it is for 79 of the 278 corpus instances whose
    decision reaches (iv), and the others search once each."""
    searched = _count_calls(monkeypatch, "extends_on_indices")
    reached = involutory = 0
    for inst in build_corpus():
        S = build_cplus(inst.group, inst.R)
        before = len(searched)
        report = is_chiral_hypertope(S, check_all_k=True)
        if 4 not in report.per_condition:
            continue
        reached += 1
        if all(r * r == S.group.identity for r in S.R):
            involutory += 1
            assert len(searched) == before and report.per_condition[4] is False
        else:
            assert len(searched) == before + 1
    assert (reached, involutory) == (278, 79)


# -- the four conditions ----------------------------------------------------

def test_conditions_on_torus():
    S = torus_cplus()
    assert condition_ii(S)
    for k in S.type_set:
        assert condition_i(S, k)
        assert condition_iii(S, k)
    assert condition_iv(S)


def test_condition_iv_fails_on_a4():
    assert not condition_iv(catalog_cplus("fix-code4-a4"))


def test_condition_i_fails_on_s5_rank4():
    S = catalog_cplus("fix-code1-s5")
    assert condition_ii(S)
    assert condition_i(S, 0) and condition_i(S, 1)
    assert not condition_i(S, 2) and not condition_i(S, 3)


def test_condition_iii_counts_on_c3xc3():
    # |∩ (G_k G_j)| = 9 here, but 2 |G_k| = 6: not thin at the base flag
    S = c3xc3_cplus()
    assert condition_ii(S) and condition_i(S, 0)
    assert not condition_iii(S, 0)


def test_condition_i_matches_chamber_enumeration():
    outcomes = set()
    for build in _cross_check_builders():
        S, reference = build(), build()
        geometry = associated_geometry(reference)
        for k in S.type_set:
            J = [j for j in S.type_set if j != k]
            expected = geometry.truncation(J).is_chamber_transitive()
            assert condition_i(S, k) == expected, (S.group, S.R, k)
            outcomes.add((S.rank, expected))
    assert {(4, True), (4, False), (5, True)} <= outcomes


def test_condition_iii_matches_product_sets():
    outcomes = set()
    for build in _cross_check_builders():
        S = build()
        parabolics = associated_geometry(S).parabolics
        for k in S.type_set:
            Gk = parabolics[k]
            expected = frozenset.intersection(*(product_set(Gk, parabolics[j])
                                                for j in S.type_set if j != k))
            elements = S.group.elements
            kept = frozenset(elements[x] for c in _incident_type_k_cosets(S, k)
                             for x in range(S.group.order) if c >> x & 1)
            assert kept == expected, (S.group, S.R, k)
            assert condition_iii(S, k) == (len(expected) == 2 * Gk.order)
            outcomes.add(condition_iii(S, k))
    assert outcomes == {True, False}


def test_condition_iv_matches_permutation_search(integer_path_systems):
    outcomes = set()
    for S in integer_path_systems:
        expected = not extends_to_homomorphism(S.group, S.group.actions(S.R),
                                               [r.inverse() for r in S.R])
        assert condition_iv(S) == expected, (S.group, S.R)
        outcomes.add(expected)
    assert outcomes == {True, False}


# -- two-orbit decomposition ------------------------------------------------

def test_two_orbit_decomposition_of_torus():
    S = torus_cplus()
    d = two_orbit_decomposition(S, 0)
    assert d.class_count == 2
    assert sum(d.class_sizes) == 8  # |G_0| + |G_0 w B|
    Gk = associated_geometry(S).parabolics[0]
    assert d.witness is not None and d.witness not in Gk


def test_two_orbit_decomposition_requires_condition_i():
    S = catalog_cplus("fix-code1-s5")
    with pytest.raises(ValueError):
        two_orbit_decomposition(S, 2)


def test_two_orbit_decomposition_requires_trivial_corank_stabilizer():
    c4 = cyclic(4)
    h = c4.generators[0]
    S = build_cplus(c4, (h, h * h))
    assert condition_i(S, 0) and not condition_ii(S)
    with pytest.raises(ValueError):
        two_orbit_decomposition(S, 0)


def test_witness_matches_double_cosets(integer_path_systems):
    """Where (ii) and (i) hold, the classes and the witness equal those of
    ``double_coset_decomposition`` over product sets.  All k up to |G| = 404,
    k = 0 above, where the product sets get large."""
    witnesses = 0
    for S in integer_path_systems:
        if S.rank < 3 or not condition_ii(S):
            continue
        for k in (S.type_set if S.group.order <= 404 else (0,)):
            if not condition_i(S, k):
                continue
            parabolics = associated_geometry(S).parabolics
            Gk = parabolics[k]
            others = [parabolics[j] for j in S.type_set if j != k]
            meet = frozenset.intersection(*(product_set(Gk, Gj) for Gj in others))
            B = others[0]
            for Gj in others[1:]:
                B = subgroup_intersection(B, Gj)
            classes = double_coset_decomposition(Gk, meet, B)
            d = two_orbit_decomposition(S, k)
            assert (d.class_count, d.class_sizes) == (len(classes),
                                                      tuple(len(c) for c in classes))
            assert d.witness == (min(classes[1]) if len(classes) == 2 else None)
            witnesses += d.witness is not None
    assert witnesses > 200


# -- the verdict ------------------------------------------------------------

def test_torus_is_chiral():
    rep = is_chiral_hypertope(torus_cplus())
    assert rep.verdict == CHIRAL
    assert rep.failing_condition is None
    assert rep.per_condition == {2: True, 1: True, 3: True, 4: True}
    assert rep.orbit_sizes == (20, 20)
    assert rep.witness is not None


def test_a4_is_regular_with_code_4():
    rep = is_chiral_hypertope(catalog_cplus("fix-code4-a4"))
    assert rep.verdict == REGULAR
    assert rep.failing_condition == 4
    assert rep.orbit_sizes == (12, 12)


def test_c4_fails_with_code_2():
    c4 = cyclic(4)
    h = c4.generators[0]
    rep = is_chiral_hypertope(build_cplus(c4, (h, h * h)))
    assert (rep.verdict, rep.failing_condition) == (NOT_HYPERTOPE, 2)
    assert rep.per_condition == {2: False}  # short-circuit: nothing else ran


def test_c3xc3_fails_with_code_3():
    rep = is_chiral_hypertope(c3xc3_cplus())
    assert (rep.verdict, rep.failing_condition) == (NOT_HYPERTOPE, 3)


def test_s5_rank4_fails_with_code_1_at_k2():
    rep = is_chiral_hypertope(catalog_cplus("fix-code1-s5"), k=2)
    assert (rep.verdict, rep.failing_condition) == (NOT_HYPERTOPE, 1)


def test_check_all_k_records_disagreement():
    rep = is_chiral_hypertope(catalog_cplus("fix-code1-s5"), check_all_k=True)
    assert rep.failing_condition == 1
    assert rep.cross_k_disagreement == {1: {0: True, 1: True, 2: False, 3: False}}


def test_check_all_k_unanimous_on_torus():
    rep = is_chiral_hypertope(torus_cplus(), check_all_k=True)
    assert rep.verdict == CHIRAL
    assert rep.cross_k_disagreement is None


def test_rank6_simplex_is_regular_for_every_k():
    # |G| = 2520: (i) and (iii) for all k from cosets of the parabolics alone
    S = simplex_cplus(6)
    assert S.group.order == 2520
    rep = is_chiral_hypertope(S, check_all_k=True)
    assert (rep.verdict, rep.failing_condition) == (REGULAR, 4)
    assert rep.cross_k_disagreement is None
    assert rep.per_condition == {2: True, 1: True, 3: True, 4: False}


@pytest.mark.parametrize("rank, families", [(4, 6), (5, 8), (6, 10)])
def test_each_part_is_derived_once(monkeypatch, rank, families):
    """With all k, (i) and (iii) share one coset family per type pair: on the
    simplex 2 (rank - 1) families, where building them per k and condition
    took rank (rank - 1), and each is built once: one bitmask per coset.
    Every subset of 1 to rank - 1 types is closed once (2^rank - 2
    ``generated_indices`` calls: the closure from R needs no generation
    check), and the decision looks up the subsets of 1 to rank - 2 types,
    for IC⁺."""
    masks = _count_calls(monkeypatch, "_mask")
    closed = _count_calls(monkeypatch, "generated_indices")
    S = simplex_cplus(rank)
    looked_up = []
    lookup = S.parabolic_indices
    S.parabolic_indices = lambda J: looked_up.append(J) or lookup(J)
    rep = is_chiral_hypertope(S, check_all_k=True)
    assert (rep.verdict, rep.failing_condition) == (REGULAR, 4)
    assert check_ic_plus(S)
    assert len(S._families) == families
    assert len(masks) == sum(map(len, S._families.values()))
    assert len(closed) == 2 ** rank - 2
    assert set(looked_up) == _subsets(S, rank - 2)
    assert len(set(looked_up)) == 2 ** rank - 2 - rank


def test_kept_state_matches_fresh_systems(rank4_classes):
    """One system asked about every k, in either order and with (i) or (iii)
    first, answers as fresh systems asked about one k each, and its report
    over all k is that of a fresh system.  On every tenth rank-4 class that
    report is the fixture's; the sample holds reports whose k disagree."""
    cases = [(build, None) for build in _cross_check_builders() + [lambda: simplex_cplus(6)]]
    cases += [(lambda G=G, R=R: build_cplus(G, R), report)  # reports of fresh systems
              for G, classes in rank4_classes.values() for R, report in classes[::10]]
    assert any(report and report.cross_k_disagreement for _, report in cases)
    for build, report in cases:
        fresh_systems = [build()]
        types = fresh_systems[0].type_set
        fresh_systems += [build() for _ in types[1:]]
        fresh = [(condition_i(F, k), condition_iii(F, k)) for k, F in enumerate(fresh_systems)]
        report = report or is_chiral_hypertope(build(), check_all_k=True)
        for order, i_first in ((types, True), (types[::-1], False)):
            S = build()
            for k in order:
                if i_first:
                    i = condition_i(S, k)
                    iii = condition_iii(S, k)
                else:
                    iii = condition_iii(S, k)
                    i = condition_i(S, k)
                assert (i, iii) == fresh[k], (S.group, S.R, k)
            assert is_chiral_hypertope(S, check_all_k=True) == report, (S.group, S.R)


def test_verdicts_survive_relabelled_points_and_reordered_types(rank4_classes):
    """Relabelling the points, reordering the types, or conjugating R by an
    element g of G (R -> R^g) gives the same system on another base and
    cycle layout of the closure: with all k, the verdict, the code and the
    orbit sizes are the fixture's on every rank-4 class of S5 and of
    PSL(2,7).  The witness changes with the labels."""
    rng = random.Random(20261020)
    conjugators = random.Random(20261021)
    outcomes = set()
    for G, classes in rank4_classes.values():
        pi = rng.sample(range(G.degree), G.degree)
        for R, report in classes:
            order = rng.sample(range(len(R) + 1), len(R) + 1)
            g = G.element(conjugators.randrange(G.order))
            expected = (report.verdict, report.failing_condition, report.orbit_sizes)
            for moved in (relabelled(R, pi), type_reordered(R, order), conjugated(R, g)):
                got = is_chiral_hypertope(build_cplus(generate_group(G.degree, moved), moved),
                                          check_all_k=True)
                assert (got.verdict, got.failing_condition, got.orbit_sizes) == expected, (R, moved)
            outcomes.add(expected[:2])
    assert {(CHIRAL, None), (NOT_HYPERTOPE, 1), (NOT_HYPERTOPE, 2), (NOT_HYPERTOPE, 3),
            (NOT_HYPERTOPE, 5)} <= outcomes


def test_torus_maps_follow_the_regularity_criterion():
    """McMullen and Schulte (Abstract Regular Polytopes, 2002): for b ≥ c ≥ 0
    and b² + c² ≥ 4, {4,4}_(b,c) is regular iff bc(b − c) = 0, and chiral
    otherwise.  Every such map with b² + c² ≤ 200 is decided with all k, and
    by the oracle too where |G| ≤ 400.  |G| = 4n, except for (2, 0), whose
    4 points carry a group of order 8."""
    maps = oracle_checked = 0
    for b in range(15):
        for c in range(b + 1):
            if not 4 <= b * b + c * c <= 200:
                continue
            n, R = torus_map(b, c)
            G = generate_group(n, R)
            assert G.order == (8 if (b, c) == (2, 0) else 4 * (b * b + c * c)), (b, c)
            S = build_cplus(G, R)
            expected = CHIRAL if b * c * (b - c) else REGULAR
            report = is_chiral_hypertope(S, check_all_k=True)
            assert report.verdict == expected, (b, c)
            assert report.cross_k_disagreement is None
            if G.order <= 400:
                assert chirality_bruteforce(S).verdict == expected, (b, c)
                oracle_checked += 1
            maps += 1
    assert (maps, oracle_checked) == (89, 46)


def test_rank_below_3_rejected():
    c5 = cyclic(5)
    S = build_cplus(c5, (c5.generators[0],))
    with pytest.raises(ValueError):
        is_chiral_hypertope(S)


def test_k_out_of_range_rejected():
    with pytest.raises(ValueError):
        is_chiral_hypertope(torus_cplus(), k=3)


def test_report_round_trips_to_plain_data():
    import json
    rep = is_chiral_hypertope(torus_cplus())
    blob = json.dumps(rep.to_dict())
    assert json.loads(blob)["verdict"] == CHIRAL
