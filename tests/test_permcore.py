"""Kernel tests: permutations, closure, cosets, double cosets, homomorphisms."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hypertope import cli, permcore
from hypertope.corpus import (
    affine_torus,
    generating_tuples,
    psl2,
    rank3_group_list,
    rank4_group_list,
    simplex,
)
from hypertope.cosetgeo import CosetGeometry
from hypertope.cplus import build_cplus, is_chiral_hypertope
from hypertope.permcore import (
    GroupTooLargeError,
    Permutation,
    compose_actions,
    conjugation_table,
    coset_column,
    coset_orbit,
    double_coset_decomposition,
    extends_on_indices,
    extends_to_homomorphism,
    generate_group,
    generated_indices,
    inverse_action,
    product_set,
    right_coset,
    right_coset_decomposition,
    subgroup_intersection,
)


def perm_strategy(degree: int):
    return st.permutations(range(degree)).map(Permutation)


# -- permutations -----------------------------------------------------------

def test_compose_is_right_action():
    # (p * q)(x) = q(p(x)): p acts first
    p = Permutation([1, 2, 0])   # (0 1 2)
    q = Permutation([1, 0, 2])   # (0 1)
    assert (p * q).images == (0, 2, 1)
    assert all((p * q)(x) == q(p(x)) for x in range(3))


@given(perm_strategy(6))
def test_cycles_roundtrip(p):
    assert Permutation.from_cycles(6, p.cycles()) == p


@given(perm_strategy(6), perm_strategy(6))
def test_inverse_and_associativity(p, q):
    e = Permutation.identity(6)
    assert p * p.inverse() == e
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perm_strategy(5))
def test_order_matches_iteration(p):
    e = Permutation.identity(5)
    x = p
    n = 1
    while x != e:
        x = x * p
        n += 1
    assert n == p.order()


@pytest.mark.parametrize("degree", [0, 1, 2, 3, random.Random(7).randint(4, 60)])
def test_products_and_inverses_match_definition(degree):
    rng = random.Random(degree)
    for _ in range(20):
        p = Permutation(rng.sample(range(degree), degree))
        q = Permutation(rng.sample(range(degree), degree))
        pq = p * q
        assert pq.images == tuple(q(p(x)) for x in range(degree))
        assert type(pq.images) is tuple and pq == Permutation(pq.images)
        inv = p.inverse()
        assert all(inv(p(x)) == x for x in range(degree))
        assert type(inv.images) is tuple and inv == Permutation(inv.images)


def test_product_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Permutation([1, 0]) * Permutation([1, 0, 2])


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


# -- closure ----------------------------------------------------------------

def test_s4_closure_has_order_24():
    gens = [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])]
    assert generate_group(4, gens).order == 24


def test_closure_independent_of_generator_order():
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    assert generate_group(4, [a, b]).elements == generate_group(4, [b, a]).elements


def test_closure_cap_enforced():
    gens = [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])]
    with pytest.raises(GroupTooLargeError):
        generate_group(4, gens, cap=10)


def test_empty_generators_give_trivial_group():
    G = generate_group(3, [])
    assert G.order == 1 and G.identity in G


def test_equality_is_same_elements():
    """Equal groups built from other generators are equal and hash alike;
    groups with the same base images but other elements are not equal."""
    a = Permutation([1, 0, 2, 3])
    b = Permutation([1, 2, 3, 0])
    G, H = generate_group(4, [a, b]), generate_group(4, [b * a, a * b * b])
    assert H.generators != G.generators and H == G and hash(H) == hash(G)
    t, tt = generate_group(4, [a]), generate_group(4, [Permutation([1, 0, 3, 2])])
    assert t.base_images == tt.base_images == ((0,), (1,))
    assert t != tt and tt != t
    assert generate_group(4, []) == generate_group(4, [Permutation.identity(4)])
    assert generate_group(3, []) != generate_group(4, [])


def test_duplicate_generators_deduplicated():
    g = Permutation([1, 2, 0])
    G = generate_group(3, [g, g])
    assert G.generators == (g,)
    assert G.order == 3


# -- closure on base images --------------------------------------------------

def _plain_closure(degree, gens):
    """Every element's image tuple, sorted, by a breadth-first closure over
    full permutations that shares no code with ``generate_group``."""
    found = [tuple(range(degree))]
    seen = set(found)
    for x in found:
        for g in gens:
            y = tuple(g.images[p] for p in x)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return sorted(found)


# Generators whose cycles the closure may spare one Schreier generator on, or
# not: (0 1)(2 3 4) has no cycle as long as its order; involutions with fixed
# points have 1-cycles and 2-cycles; a cycle through the root as long as its
# generator's order, alone and beside shorter cycles of the same generator.
_SPARING_CASES = [
    (5, [[(0, 1), (2, 3, 4)]]),
    (6, [[(0, 1), (2, 3)], [(1, 2)], [(3, 4)]]),
    (7, [[(1, 2), (4, 5)], [(0, 3)], [(2, 6)]]),
    (5, [[(0, 1, 2, 3, 4)]]),
    (7, [[(0, 1, 2, 3)], [(0, 4), (5, 6)]]),
    (8, [[(0, 1, 2, 3), (4, 5)], [(3, 6, 7)]]),
]


def _closure_cases():
    cases = [(G.degree, list(G.generators)) for _, G in rank3_group_list()]
    cases.append(affine_torus(101))
    # groups that fix a prefix of the points, so the base has levels with
    # one-point orbits, and the trivial group at degrees 0 and 1
    cases.append((7, [Permutation.from_cycles(7, [(4, 6)]), Permutation.from_cycles(7, [(3, 5)])]))
    cases.append((9, [Permutation.from_cycles(9, [(6, 7, 8)]), Permutation.from_cycles(9, [(0, 1)])]))
    cases += [(0, []), (1, []), (3, [Permutation.identity(3)])]
    cases += [(n, [Permutation.from_cycles(n, c) for c in gens]) for n, gens in _SPARING_CASES]
    rng = random.Random(20261018)
    for _ in range(30):
        n = rng.randint(2, 7)
        cases.append((n, [Permutation(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]))
    return cases


def test_base_images_are_prefixes_of_the_plain_closure():
    for degree, gens in _closure_cases():
        G = generate_group(degree, gens)
        full = _plain_closure(degree, gens)
        m = G.base_length
        assert G.order == len(full)
        assert G.base_images == tuple(x[:m] for x in full)
        # m is the shortest such prefix: one point fewer confuses two elements
        assert m == 0 or len({x[:m - 1] for x in full}) < len(full)
        assert [x.images for x in G.elements] == full
        position = {x: i for i, x in enumerate(full)}
        assert G.actions(G.generators) == [
            tuple(position[tuple(g.images[p] for p in x)] for x in full) for g in G.generators]


def _count_sifts(monkeypatch):
    """Replace ``permcore._sift`` by a wrapper that records each call."""
    calls = []
    original = permcore._sift

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(permcore, "_sift", counted)
    return calls


@pytest.mark.parametrize("degree, cycles, sifts", [
    # the generator, then u_4 s u_0^-1 = s^5 = 1 is spared
    (5, [[(0, 1, 2, 3, 4)]], 1),
    # the generator s, then u_1 s u_0^-1 = s^2 != 1 (its 2-cycle is shorter
    # than its order 6), whose 3-cycle on level 2 is spared
    (5, [[(0, 1), (2, 3, 4)]], 2),
])
def test_closure_sifts_no_schreier_generator_a_cycle_makes_redundant(monkeypatch, degree, cycles,
                                                                   sifts):
    calls = _count_sifts(monkeypatch)
    G = generate_group(degree, [Permutation.from_cycles(degree, c) for c in cycles])
    assert G.order == len(_plain_closure(degree, G.generators))
    assert len(calls) == sifts


def test_torus_closure_spares_most_schreier_generators(monkeypatch):
    """Sifting every non-tree edge closes the torus p = 101 in 104 sifts,
    p + 1 of them on level 0.  Sparing the first non-tree edge on each cycle
    as long as its generator's order leaves 28."""
    calls = _count_sifts(monkeypatch)
    G = generate_group(*affine_torus(101))
    assert G.order == 404
    assert len(calls) == 28


@pytest.mark.parametrize("degree, gens, order, sifts", [
    (*affine_torus(401), 1604, 103),
    (*simplex(5), 360, 24),
    (*simplex(7), 20160, 76),
    (*psl2(59), 102660, 88),
], ids=["torus-p401", "simplex-r5", "simplex-r7", "psl2-59"])
def test_closure_sift_counts_at_scale(monkeypatch, degree, gens, order, sifts):
    """The number of Schreier generators the closure sifts, pinned beyond
    the small cases: a change to the closure that sifts more, or fewer,
    shows here."""
    calls = _count_sifts(monkeypatch)
    G = generate_group(degree, gens, cap=200000)
    assert G.order == order
    assert len(calls) == sifts


def test_closure_allocates_no_marks_on_the_levels_a_generator_fixes():
    """<(n-2 n-1)> has the base 0, ..., n-2, and its generator is a strong
    generator of every level but meets a non-tree edge on none of the n-2
    levels whose point it fixes.  Marks allocated with the generator on each
    level would take (n-1) n bytes, 9 MB at n = 3000."""
    n = 3000
    tracemalloc.start()
    try:
        G = generate_group(n, [Permutation.from_cycles(n, [(n - 2, n - 1)])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 2 and G.base_length == n - 1
    assert peak < 5_000_000


def test_base_images_skip_the_levels_that_hold_the_identity_alone(monkeypatch):
    """<(n-2 n-1)> has n-2 levels whose transversal is the identity alone,
    below the one level that holds (n-2 n-1).  The base images and the
    element list skip them: the base images take one key getter, not one
    per level, and the elements one product per element."""
    n = 3000
    G = generate_group(n, [Permutation.from_cycles(n, [(n - 2, n - 1)])])
    getters = []
    original = permcore._key_getter
    monkeypatch.setattr(permcore, "_key_getter", lambda key: getters.append(key) or original(key))
    identity, swap = tuple(range(n - 1)), tuple(range(n - 2)) + (n - 1,)
    assert sorted(permcore._base_images(G._chain)) == list(G.base_images) == [identity, swap]
    assert getters == [identity]
    del getters[:]
    assert [x.images for x in G.elements] == [tuple(range(n)), swap + (n - 2,)]
    assert len(getters) == 2


@pytest.mark.parametrize("degree, gens, i", [
    (*affine_torus(101), 5),
    (5, [Permutation([1, 2, 3, 4, 0])], 1),
])
def test_non_member_agreeing_on_the_base_is_rejected(degree, gens, i):
    G = generate_group(degree, gens)
    x = G.element(i)
    assert x.images == _plain_closure(degree, gens)[i]
    assert x in G and G.index_of(x) == i and G.actions([x])[0][0] == i
    m = G.base_length
    images = list(x.images)
    images[m], images[m + 1] = images[m + 1], images[m]
    y = Permutation(images)
    assert y.images[:m] == x.images[:m]
    assert y not in G
    with pytest.raises(ValueError):
        G.index_of(y)
    with pytest.raises(ValueError):
        G.actions([y])


def test_cap_raises_from_the_orbit_lengths_of_s12():
    """|S12| = 479001600: the closure raises as soon as the product of its
    orbit lengths passes the cap, without enumerating elements."""
    gens = [Permutation.from_cycles(12, [(0, 1)]), Permutation.from_cycles(12, [tuple(range(12))])]
    for cap in (1000, 479001599):
        t0 = time.process_time()
        with pytest.raises(GroupTooLargeError):
            generate_group(12, gens, cap=cap)
        assert time.process_time() - t0 < 5
    with pytest.raises(GroupTooLargeError):
        generate_group(12, gens[::-1], cap=479001599)


def test_decision_leaves_the_element_list_unbuilt(monkeypatch):
    """A decision with every k, as the CLI runs it without the oracle, asks
    the group for action arrays once, for those of R, which the system then
    holds, and never builds the element list."""
    closed, asked = [], []

    def closure(*args, **kwargs):
        G = generate_group(*args, **kwargs)
        closed.append(G)
        return G

    def actions(G, gs):
        asked.append(list(gs))
        return built(G, gs)

    built = permcore.PermGroup.actions
    monkeypatch.setattr(cli, "generate_group", closure)
    monkeypatch.setattr(permcore.PermGroup, "actions", actions)
    gens = list(affine_torus(101)[1])
    report = cli.run(cli.spec_from_mapping({"degree": 101,
                                            "generators": [list(g.images) for g in gens],
                                            "options": {"check_all_k": True}}))
    assert report.chirality.verdict == "chiral-hypertope"
    assert report.chirality.orbit_sizes == (404, 404)
    assert asked == [gens]  # once, for R: the closure builds no action array
    (G,) = closed
    assert G._elements is None
    witness = report.chirality.witness
    assert witness == G.elements[G.index_of(witness)]  # built here, after the decision


def test_deciding_systems_one_after_another_leaves_no_arrays_behind():
    """The arrays of R belong to the system: deciding 20 systems on one
    torus group (p = 401, |G| = 1604), one after another, leaves the traced
    memory where the first decision left it.  The systems are chosen by
    closing each pair, which builds no array on G."""
    G = generate_group(*affine_torus(401))
    rng = random.Random(401)
    systems = []
    while len(systems) < 20:
        R = [G.element(rng.randrange(1, G.order)) for _ in range(2)]
        if generate_group(G.degree, R).order == G.order:
            systems.append(R)
    verdicts = []

    def decide(R):
        verdicts.append(is_chiral_hypertope(build_cplus(G, R), check_all_k=True).verdict)

    tracemalloc.start()
    try:
        decide(systems[0])
        after_first = tracemalloc.get_traced_memory()[0]
        for R in systems[1:]:
            decide(R)
        growth = tracemalloc.get_traced_memory()[0] - after_first
    finally:
        tracemalloc.stop()
    assert len(verdicts) == 20
    assert growth < 32_000  # a group keeping them grows by some 480 KB here


# -- element numbering and actions --------------------------------------------

def test_index_numbers_sorted_elements_from_identity():
    G = _s4()
    before = [G.element(i) for i in range(G.order)]
    assert [G.index_of(x) for x in before] == list(range(G.order))
    assert G._elements is None  # neither lookup built the element list
    assert list(G.elements) == before == sorted(before)
    assert [G.index_of(x) for x in G.elements] == list(range(G.order))  # after it is built
    assert [G.element(i) for i in range(G.order)] == before
    assert G.index_of(G.identity) == 0


def test_action_is_right_multiplication_on_indices():
    G = _s4()
    for g, act in zip(G, G.actions(G.elements)):
        for x in G:
            assert G.index_of(x * g) == act[G.index_of(x)]


def test_closure_actions_equal_recomputed_actions():
    for gens in ([Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])],
                 [Permutation([1, 2, 3, 0]), Permutation([1, 0, 2, 3]),
                  Permutation([0, 1, 3, 2])]):
        G = generate_group(4, gens)
        recorded = G.actions(G.generators)
        fresh = generate_group(4, list(G.elements))  # other generators, same group
        assert fresh == G and fresh.elements == G.elements
        assert recorded == fresh.actions(G.generators)
        assert recorded == [tuple(G.index_of(x * g) for x in G.elements)
                            for g in G.generators]
        assert G.actions(G.elements) == [tuple(G.index_of(x * g) for x in G.elements)
                                         for g in G]


def test_actions_are_built_for_the_caller_and_kept_by_none():
    G = _s4()
    a, b = G.generators
    x = G.element(5)
    expected = {g: tuple(G.index_of(y * g) for y in G.elements) for g in (a, b, x)}
    assert G.actions([b, a, x, b]) == [expected[b], expected[a], expected[x], expected[b]]
    first, again = G.actions([a]), G.actions([a])
    assert first == again and first[0] is not again[0]  # built anew: the group holds none
    assert not hasattr(G, "_actions")
    assert G.actions([]) == []
    trivial = generate_group(3, [])
    assert trivial.actions([trivial.identity]) == [(0,)]


def test_action_rejects_non_members():
    G = generate_group(4, [Permutation([1, 0, 2, 3])])
    with pytest.raises(ValueError):
        G.actions([Permutation([1, 2, 3, 0])])
    with pytest.raises(ValueError):
        G.actions([G.identity, Permutation([1, 2, 3, 0])])
    with pytest.raises(ValueError):
        generate_group(3, []).actions([Permutation([1, 0, 2])])
    with pytest.raises(ValueError):
        extends_to_homomorphism(G, G.actions([Permutation([1, 2, 3, 0])]), [G.identity])


def test_generated_indices_match_closure():
    G = _s4()
    for a, b in itertools.combinations(G.elements, 2):
        H = generate_group(4, [a, b])
        assert generated_indices(G.actions([a, b])) == {G.index_of(h) for h in H}
    assert generated_indices([]) == {0}


def test_inverse_and_composed_actions_match_products():
    G = _s4()
    acts = G.actions(G.elements)
    for g in G:
        assert inverse_action(acts[G.index_of(g)]) == acts[G.index_of(g.inverse())]
        for h in G:
            assert (compose_actions(acts[G.index_of(g)], acts[G.index_of(h)])
                    == acts[G.index_of(g * h)])
    trivial = generate_group(2, [])
    assert compose_actions(trivial.actions([trivial.identity])[0], (0,)) == (0,)


def _conjugates_by_products(G):
    """[g][t] -> index of g^-1 t g, from permutation products."""
    return [[G.index_of(g.inverse() * t * g) for t in G.elements] for g in G.elements]


def test_conjugation_table_matches_products():
    for G in (_s4(), dict(rank3_group_list())["f20"]):
        table = conjugation_table(G.actions(G.elements))
        assert [list(row) for row in table] == _conjugates_by_products(G)


# -- subgroup algebra -------------------------------------------------------

def _s4():
    return generate_group(4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])])


def test_product_formula_on_s4_cyclics():
    G = _s4()
    singles = [generate_group(4, [g]) for g in list(G)[:12]]
    for H, K in itertools.combinations(singles, 2):
        HK = product_set(H, K)
        assert len(HK) * subgroup_intersection(H, K).order == H.order * K.order


def test_right_coset_decomposition_partitions():
    G = _s4()
    H = generate_group(4, [Permutation([1, 0, 2, 3])])
    coset_of = right_coset_decomposition(G, H)
    cosets = list(dict.fromkeys(coset_of.values()))
    assert len(cosets) == G.order // H.order
    all_members = [x for c in cosets for x in c.elements()]
    assert sorted(all_members) == list(G.elements)
    # canonical representative is the minimal member, cosets come in its order,
    # and every element maps to the coset that holds it
    for c in cosets:
        assert c.representative == min(c.elements())
        assert right_coset(H, c.representative) == c
    assert [c.representative for c in cosets] == sorted(c.representative for c in cosets)
    assert all(coset_of[x] == c for c in cosets for x in c.elements())


def test_coset_orbit_is_the_right_cosets_of_every_s4_subgroup():
    """Every subgroup of S4 is generated by two of its elements.  Under the
    generators of G the orbit of H is a partition of G into the right cosets
    of H, H first, and ``coset_column`` numbers the same partition; under
    the generators of a subgroup K it is the cosets H x with x in K."""
    G = _s4()
    actions = G.actions(G.generators)
    subgroups = {generate_group(4, pair) for pair in itertools.combinations(G.elements, 2)}
    assert len(subgroups) == 30 - 1  # all but the trivial one
    for H in subgroups:
        indices = {G.index_of(h) for h in H}
        found = coset_orbit(indices, actions)
        assert set(found[0]) == indices
        assert sorted(x for c in found for x in c) == list(range(G.order))
        for c in found:
            coset = right_coset(H, G.element(c[0]))
            assert {G.index_of(x) for x in coset.elements()} == set(c)
        column, least = coset_column(indices, actions, G.order)
        assert {frozenset(c) for c in found} == {
            frozenset(x for x in range(G.order) if column[x] == n) for n in range(len(least))}
        for K in subgroups:
            meeting = coset_orbit(indices, G.actions(K.generators))
            assert {frozenset(c) for c in meeting} == {
                frozenset(G.index_of(h * k) for h in H) for k in K}


def test_coset_shift_matches_element_translation():
    G = _s4()
    H = generate_group(4, [Permutation([1, 2, 0, 3])])
    geo = CosetGeometry(G, [H])
    least = geo.least[0]
    for c in (right_coset(H, G.element(x)) for x in least):
        for h in G:
            shifted = right_coset(H, G.element(least[geo.coset_number(0, c.representative * h)]))
            assert shifted == right_coset(H, c.representative * h)
            assert sorted(shifted.elements()) == sorted(x * h for x in c.elements())


def test_double_cosets_match_naive_closure():
    G = _s4()
    H = generate_group(4, [Permutation([1, 0, 2, 3])])
    K = generate_group(4, [Permutation([0, 2, 1, 3])])
    S = frozenset(G.elements)
    classes = double_coset_decomposition(H, S, K)
    naive = {frozenset(h * x * k for h in H for k in K) for x in G}
    assert set(classes) == naive
    assert sum(len(c) for c in classes) == G.order
    assert [min(c) for c in classes] == sorted(min(c) for c in classes)


def test_double_coset_rejects_partial_union():
    G = _s4()
    H = generate_group(4, [Permutation([1, 0, 2, 3])])
    S = frozenset(list(G)[:5])
    with pytest.raises(ValueError):
        double_coset_decomposition(H, S, H)


# -- homomorphism extension --------------------------------------------------

def _word_propagation_extends(G, gens, images):
    """Reference oracle: propagate images over a BFS of words in the generators
    and fail on any inconsistency."""
    table = {G.identity: Permutation.identity(images[0].degree) if images else None}
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, im in zip(gens, images):
                y = x * g
                fy = table[x] * im
                if y in table:
                    if table[y] != fy:
                        return False
                else:
                    table[y] = fy
                    new.append(y)
        frontier = new
    return True


def test_extension_examples():
    c3 = generate_group(3, [Permutation([1, 2, 0])])
    g = c3.generators[0]
    # inversion is an automorphism of an abelian group
    assert extends_to_homomorphism(c3, c3.actions([g]), [g * g])
    # g -> transposition cannot extend (orders 3 vs 2)
    assert not extends_to_homomorphism(c3, c3.actions([g]), [Permutation([1, 0, 2])])


def test_extension_matches_word_propagation():
    G = _s4()
    gens = list(G.generators)
    candidates = [list(p) for p in itertools.permutations(gens)] + \
                 [[g.inverse() for g in gens], [gens[0], gens[0]]]
    for images in candidates:
        if len(images) != len(gens):
            continue
        assert (extends_to_homomorphism(G, G.actions(gens), images)
                == _word_propagation_extends(G, gens, images))


@pytest.mark.parametrize("name", ["s4", "a5", "f20"])
def test_extension_matches_word_propagation_on_corpus_tuples(name):
    G = dict(rank3_group_list())[name]
    seen = {True: 0, False: 0}
    for a, b in generating_tuples(G, 2, independent=True):
        for images in ([a.inverse(), b.inverse()], [b, a]):
            got = extends_to_homomorphism(G, G.actions([a, b]), images)
            assert got == _word_propagation_extends(G, [a, b], images)
            seen[got] += 1
    assert seen[True] and seen[False]  # both outcomes exercised


@pytest.mark.parametrize("name", ["s4", "a5", "f20"])
def test_extension_on_indices_matches_permutation_search(name):
    G = dict(rank3_group_list())[name]
    acts = G.actions(G.elements)

    def act(g):
        return acts[G.index_of(g)]

    seen = {True: 0, False: 0}
    for a, b in generating_tuples(G, 2, independent=True):
        for images in ([a.inverse(), b.inverse()], [b, a], [a, a]):
            got = extends_on_indices([act(a), act(b)], [act(q) for q in images])
            assert got == extends_to_homomorphism(G, G.actions([a, b]), images)
            seen[got] += 1
    assert seen[True] and seen[False]  # both outcomes exercised
    t = G.generators[0]
    with pytest.raises(ValueError):
        extends_on_indices([act(t)], [act(t)])  # t alone does not generate G


def test_extension_requires_generating_set():
    G = _s4()
    t = Permutation([1, 0, 2, 3])
    c = Permutation([1, 2, 0, 3])
    with pytest.raises(ValueError):
        extends_to_homomorphism(G, G.actions([t]), [t])  # consistent images
    with pytest.raises(ValueError):
        extends_to_homomorphism(G, G.actions([t]), [c])  # order 2 -> order 3: conflicting
    with pytest.raises(ValueError):
        extends_to_homomorphism(G, G.actions([]), [])
    assert extends_to_homomorphism(generate_group(3, []), [], [])


def test_inverting_automorphism_cases():
    c3 = generate_group(3, [Permutation([1, 2, 0])])
    assert extends_to_homomorphism(c3, c3.actions(c3.generators),
                                   [r.inverse() for r in c3.generators])
    a4 = generate_group(4, [Permutation.from_cycles(4, [(0, 1, 2)]),
                            Permutation.from_cycles(4, [(1, 2, 3)])])
    assert extends_to_homomorphism(a4, a4.actions(a4.generators),
                                   [r.inverse() for r in a4.generators])


@settings(max_examples=25)
@given(st.data())
def test_subgroup_intersection_is_lower_bound(data):
    G = _s4()
    els = list(G)
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    H = generate_group(4, [a])
    K = generate_group(4, [b])
    M = subgroup_intersection(H, K)
    assert M.is_subgroup_of(H) and M.is_subgroup_of(K)
    assert H.order % M.order == 0 and K.order % M.order == 0


# -- the corpus sweep ---------------------------------------------------------

def _reference_tuples(G, size, independent, conj):
    """Brute force: every ordered tuple, the filters, then the tuples T with
    T = min over g of T^g (``conj`` from ``_conjugates_by_products``)."""
    n = G.order
    acts = G.actions(G.elements)
    out = []
    for T in itertools.product(range(1, n), repeat=size):
        if len(set(T)) != size or len(generated_indices(acts[t] for t in T)) != n:
            continue
        if independent is not None:
            others = [generated_indices(acts[t] for t in T[:i] + T[i + 1:])
                      for i in range(size)]
            if all(t not in H for t, H in zip(T, others)) != independent:
                continue
        if T == min(tuple(row[t] for t in T) for row in conj):
            out.append(T)
    return out


@pytest.mark.parametrize("name, size", [
    ("c6", 2), ("d8", 2), ("s4", 2), ("a5", 2), ("f20", 2),
    ("c6", 3), ("d8", 3), ("f20", 3),
    ("c2^3", 3), ("d6", 3), ("s4", 3),
])
def test_generating_tuples_are_the_class_minima(name, size):
    G = dict(rank3_group_list() + rank4_group_list())[name]
    conj = _conjugates_by_products(G)
    counts = {}
    for independent in (True, None, False):
        expected = _reference_tuples(G, size, independent, conj)
        counts[independent] = len(expected)
        for limit in (None, 6):
            got = [tuple(G.index_of(x) for x in T)
                   for T in generating_tuples(G, size, independent=independent, limit=limit)]
            assert got == expected[:limit]
        classes = [min(tuple(row[t] for t in T) for row in conj) for T in got]
        assert len(set(classes)) == len(got)  # no two yielded tuples are conjugate
    assert counts[None] == counts[True] + counts[False] > 0
