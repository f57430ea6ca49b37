"""C⁺-group machinery and the group-theoretic chirality decision.

A C⁺-system is a group together with an ordered generating set
R = (α_1, ..., α_{r-1}); with α_0 = 1 the derived generators are
α_{ij} = α_i^{-1} α_j and the parabolic of J is ⟨α_{ij} : i, j ∈ J⟩.
The verdict procedure evaluates the four conditions of the double-coset
chirality criterion in the reference order (ii), (i), (iii), (iv) with
short-circuiting, so failure codes are comparable with existing
computer-algebra outputs (1 ↔ (i), 2 ↔ (ii), 3 ↔ (iii), 4 ↔ (iv)).  The
criterion is stated for C⁺-groups, so once (ii), (i) and (iii) hold the
intersection property IC⁺ is checked before the verdict: a system without
it is not a hypertope, with code 5.  IC⁺ comes after the three conditions,
not first, so that their codes stay those of the reference semantics.

After the one closure of G the decision is index arithmetic: an element is
its position in the sorted order (``G.index_of``), no permutation is
multiplied, and the witness is the one element it builds (``G.element``).
The actions of R are built once per system, by ``build_cplus``, and the
system holds them (``CPlusSystem.actions``).  From them it derives the
actions of the α_{ij}: α_{i0} = α_i^{-1} is an inverse array, and
α_{ij} = α_{i0} α_j a composition of arrays.  Nothing is searched for that
the closure or the maximal parabolics already prove:

- R generates G without a search when G was closed from R, as in the CLI:
  G's generators are then among R;
- every parabolic is an index set, the subgroup generated by the actions
  of its α_{ij} (``parabolic_indices``);
- (ii), the corank-1 stabilizers B and IC⁺ are intersections of index
  sets, IC⁺ only against the maximal parabolics (``check_ic_plus``);
- the cosets G_j h, h ∈ G_a, of (i) and (iii) are the ``coset_orbit`` of
  G_j under right multiplication by the generators of G_a, each kept as a
  bitmask over the positions of G (``_cosets_meeting``);
- independence is one membership test per α_i: the subgroup generated by
  the others is the maximal parabolic G_i;
- (iv) fails at once when every α_i is an involution, since the identity
  then inverts R.  Otherwise it is the pair search over (x, φ(x)) with both
  sides indices: φ(x α_i) = φ(x) α_i^{-1} is a lookup in the action of
  α_{i0};
- once (ii) holds, the two chamber-orbit classes are the two type-k cosets
  kept by (iii), and the witness is the least element of the second.

The decision never builds the coset geometry: (i) counts the chambers
through the base type-a coset and (iii) keeps the type-k cosets meeting
every G_j.  Each part is derived once per system and kept on it (see
``CPlusSystem``): one index set per parabolic, the type order by |G_j|,
one B per k and one family of cosets G_j h, h ∈ G_a, per pair (j, a).  So
(i) and (iii) for every k read the same families: on the rank-r simplex
with ``check_all_k`` they are 2(r - 1) families, not r(r - 1).

The oracle builds its incidence graph from the same maximal parabolic
index sets and the same arrays of R.  Only ``associated_geometry`` closes
the maximal parabolics as ``PermGroup``s, with ``generate_group`` over the
same generators; that geometry serves the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cosetgeo import CosetGeometry
from .permcore import (
    PermGroup,
    Permutation,
    compose_actions,
    coset_orbit,
    extends_on_indices,
    generate_group,
    generated_indices,
    inverse_action,
    product_set,  # noqa: F401 -- perfbench/test_perfbench.py reaches it as cplus.product_set
)

CHIRAL = "chiral-hypertope"
REGULAR = "regular-hypertope"
NOT_HYPERTOPE = "not-hypertope"


class CPlusSystem:
    """A group with an ordered generating set, and each part of the
    decision derived from it once.

    R must generate the group; ``build_cplus`` checks that and hands the
    system the actions of R (``actions``, in the order of R).  What the
    decision derives is kept on the system, not on the group, which other
    systems may share:

    - the actions of the α_{ij}, 0 < i ≠ j (``alpha_action``), which hold
      those of the α_i^{-1} = α_{i0}; those of the α_{0j} = α_j are
      ``actions``;
    - one index set per parabolic (``parabolic_indices``);
    - the maximal parabolic index sets G_i (``maximal_indices``) and
      ``type_order``, the types by ascending |G_i| with ties by type index,
      both made with the system;
    - B = ∩_{j != k} G_j per k;
    - the cosets G_j h, h ∈ G_a, as bitmasks per pair (j, a), which (i)
      and (iii) share across every k (``_cosets_meeting``);
    - IC⁺, each k's result of (i) and its type-k cosets of (iii); the
      decomposition of the two chamber orbits reuses the latter.

    The associated coset geometry, over ``PermGroup`` closures of the
    maximal parabolics, is built only on request.
    """

    def __init__(self, group: PermGroup, R: Sequence[Permutation],
                 actions: Sequence[tuple[int, ...]]):
        self.group = group
        self.R = tuple(R)
        self.actions = tuple(actions)
        self.rank = len(self.R) + 1
        self._alpha_actions: dict[tuple[int, int], tuple[int, ...]] = {}
        self._indices: dict[tuple[int, ...], set[int]] = {}
        self._maximal = [self.parabolic_indices(j for j in self.type_set if j != i)
                         for i in self.type_set]
        self.type_order = tuple(sorted(self.type_set, key=lambda i: len(self._maximal[i])))
        self._stabilizers: dict[int, set[int]] = {}
        self._families: dict[tuple[int, int], list[int]] = {}
        self._geometry: Optional[CosetGeometry] = None
        self._ic_plus: Optional[bool] = None
        self._condition_i: dict[int, bool] = {}
        self._incident_cosets: dict[int, tuple[int, ...]] = {}

    @property
    def type_set(self) -> tuple[int, ...]:
        return tuple(range(self.rank))

    def alpha_action(self, i: int, j: int) -> tuple[int, ...]:
        """The action of alpha_{ij} on the positions of G, for i != j: x -> x alpha_i^-1
        alpha_j.  Since alpha_0 = 1, alpha_{0j} = alpha_j and alpha_{i0} = alpha_i^-1.
        Its entry at 0 is the index of alpha_{ij}."""
        if i == 0:
            return self.actions[j - 1]
        if (i, j) not in self._alpha_actions:
            if j == 0:
                act = inverse_action(self.actions[i - 1])
            else:
                act = compose_actions(self.alpha_action(i, 0), self.actions[j - 1])
            self._alpha_actions[i, j] = act
        return self._alpha_actions[i, j]

    def parabolic_generators(self, J: Iterable[int]) -> list[tuple[int, ...]]:
        """The actions of alpha_{mj}, m = min(J) < j ∈ J.  They generate the
        parabolic of J, because alpha_{ij} = alpha_{mi}^-1 alpha_{mj}."""
        key = sorted(set(J))
        return [self.alpha_action(key[0], j) for j in key[1:]]

    def parabolic_indices(self, J: Iterable[int]) -> set[int]:
        """⟨alpha_{ij} : i, j ∈ J⟩ as a set of positions of G, kept on the
        system: callers must not change it.  It is {0} when |J| <= 1, since
        alpha_{ii} = 1.

        For the full type set it is the whole group: alpha_{0j} = alpha_j,
        so the generators include R, which generates the group.
        """
        key = tuple(sorted(set(J)))
        if key not in self._indices:
            if key == self.type_set:
                self._indices[key] = set(range(self.group.order))
            else:
                self._indices[key] = generated_indices(self.parabolic_generators(key))
        return self._indices[key]

    def maximal_indices(self, i: int) -> set[int]:
        """The type-i maximal parabolic G_i as an index set."""
        return self._maximal[i]


def build_cplus(G: PermGroup, R: Sequence[Permutation]) -> CPlusSystem:
    """Build the system, with the actions of R, its maximal parabolics as
    index sets and its type order.

    R must generate G.  When G's generators are among R, as when G was
    closed from R, ⟨R⟩ holds ⟨G.generators⟩ = G and nothing is searched.
    Otherwise the actions of R, built here once and handed to the system,
    are checked to reach every position.  Rank 2 is accepted for
    construction but the chirality decision requires rank >= 3.
    """
    actions = G.actions(R)  # ValueError for an element outside G
    if not set(G.generators) <= set(R) and len(generated_indices(actions)) != G.order:
        raise ValueError("R does not generate G")
    return CPlusSystem(G, R, actions)


def is_independent_generating_set(S: CPlusSystem) -> bool:
    """No generator lies in the subgroup generated by the others.

    For i >= 1, I ∖ {i} holds 0 and α_{0j} = α_j, so that subgroup is the
    maximal parabolic G_i, which the system holds; α_i's index is its
    action's entry at the identity."""
    return all(act[0] not in S.maximal_indices(i) for i, act in enumerate(S.actions, 1))


def check_ic_plus(S: CPlusSystem) -> bool:
    """Intersection condition: G_J ∩ G_K = G_{J ∩ K} for all |J|, |K| >= 2,
    with G_J the parabolic of J; computed once per system and kept.

    Only the maximal parabolics are met: |G_J ∩ G_{I∖{i}}| = |G_{J∖{i}}|
    for every J with 2 <= |J| <= r - 1 and every i ∈ J, each pair of
    maximal parabolics once.  These are the cases K = I ∖ {i}, and they
    imply the rest: for i ∈ J ∖ K, K ⊆ I ∖ {i}, so G_J ∩ G_K ⊆
    G_J ∩ G_{I∖{i}} = G_{J∖{i}}, and removing each i ∈ J ∖ K in turn leaves
    G_{J∩K} (J ⊆ K, or a J of one type, holds at once).  So about
    r 2^(r-1) intersections are made, not 4^r / 2.  Comparing orders
    suffices because G_{J∖{i}} always sits inside the intersection.  Each
    subset's index set is closed once, when a test first needs it, and kept
    on the system.
    """
    if S._ic_plus is None:
        I, M, P = S.type_set, S.maximal_indices, S.parabolic_indices
        # (G_J, G_{I∖{i}}, J ∖ {i}): each pair of maximal parabolics, then
        # each smaller J against the maximal parabolic of each i ∈ J
        maximal_pairs = ((M(j), M(i), tuple(t for t in I if t not in (i, j)))
                         for i, j in itertools.combinations(I, 2))
        smaller = ((P(J), M(i), tuple(t for t in J if t != i)) for size in range(2, S.rank - 1)
                   for J in itertools.combinations(I, size) for i in J)
        S._ic_plus = all(len(GJ & Gi) == len(P(rest))
                         for GJ, Gi, rest in itertools.chain(maximal_pairs, smaller))
    return S._ic_plus


def associated_geometry(S: CPlusSystem) -> CosetGeometry:
    """The coset incidence system over the maximal parabolics, in type order,
    built once per system.  Each G_i is closed by ``generate_group`` from
    the alpha_{mj} of ``parabolic_generators``."""
    if S._geometry is None:
        G = S.group
        S._geometry = CosetGeometry(G, [
            generate_group(G.degree, [G.element(act[0]) for act in
                                      S.parabolic_generators(j for j in S.type_set if j != i)])
            for i in S.type_set])
    return S._geometry


def condition_i(S: CPlusSystem, k: int) -> bool:
    """Transitivity on the chambers of the truncation dropping type k.

    G is transitive on the type-a cosets, and G_a meets the base chamber's
    stabilizer in B = ∩_{j != k} G_j, so the truncation is chamber-transitive
    iff exactly |G_a : B| chambers pass through the base coset G_a (a ≠ k,
    G_a smallest).  They are counted as the pairwise meeting tuples of the
    cosets G_j h, h ∈ G_a, held as bitmasks over the positions of G.
    """
    if k not in S._condition_i:
        J = [j for j in S.type_set if j != k]
        if len(J) <= 2:  # rank <= 2 truncations are chamber-transitive
            S._condition_i[k] = True
        else:
            a = next(j for j in S.type_order if j != k)
            target = len(S.maximal_indices(a)) // len(_corank_stabilizer(S, k))
            candidates = sorted((_cosets_meeting(S, j, a) for j in J if j != a), key=len)
            S._condition_i[k] = _count_meeting_tuples(candidates, target + 1) == target
    return S._condition_i[k]


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _least(mask: int) -> int:
    """The least position in a nonzero bitmask."""
    return (mask & -mask).bit_length() - 1


def _cosets_meeting(S: CPlusSystem, j: int, a: int) -> list[int]:
    """The right cosets G_j h with h ∈ G_a, i.e. those meeting G_a, each once
    and as bitmasks over the positions of G, G_j first; built once per
    system and kept.

    They are the ``coset_orbit`` of G_j under right multiplication by the
    generators of G_a: (G_j h) alpha = G_j (h alpha), one array lookup per
    element.
    """
    if (j, a) not in S._families:
        actions = S.parabolic_generators(t for t in S.type_set if t != a)
        S._families[j, a] = [_mask(c) for c in coset_orbit(S.maximal_indices(j), actions)]
    return S._families[j, a]


def _count_meeting_tuples(candidates: list[list[int]], stop: int,
                          chosen: tuple[int, ...] = ()) -> int:
    """The number of extensions of ``chosen`` by one mask from each remaining
    list that pairwise meet; counting stops at ``stop``."""
    if len(chosen) == len(candidates):
        return 1
    count = 0
    for c in candidates[len(chosen)]:
        if all(c & m for m in chosen):
            count += _count_meeting_tuples(candidates, stop - count, chosen + (c,))
            if count >= stop:
                break
    return count


def _corank_stabilizer(S: CPlusSystem, k: int) -> set[int]:
    """B = ∩_{j != k} G_j as an index set, from the smallest G_j; kept per k."""
    if k not in S._stabilizers:
        meet, *others = (S.maximal_indices(j) for j in S.type_order if j != k)
        S._stabilizers[k] = meet.intersection(*others)
    return S._stabilizers[k]


def condition_ii(S: CPlusSystem) -> bool:
    """Every corank-1 intersection of maximal parabolics is trivial."""
    return all(len(_corank_stabilizer(S, k)) == 1 for k in S.type_set)


def _incident_type_k_cosets(S: CPlusSystem, k: int) -> tuple[int, ...]:
    """The type-k cosets that meet every G_j, j ≠ k, as bitmasks over the
    positions of G.

    They all meet G_{j0} for the smallest G_{j0}, so only the cosets G_k h,
    h ∈ G_{j0}, are tested against the other G_j.  Each G_j is the first
    coset of its family G_j h, h ∈ G_{j0}, which condition (i) for k reads.
    """
    if k not in S._incident_cosets:
        j0, *rest = (j for j in S.type_order if j != k)
        others = [_cosets_meeting(S, j, j0)[0] for j in rest]
        S._incident_cosets[k] = tuple(
            c for c in _cosets_meeting(S, k, j0) if all(c & Gj for Gj in others))
    return S._incident_cosets[k]


def condition_iii(S: CPlusSystem, k: int) -> bool:
    """|∩_{j != k} (G_k G_j)| = 2 |G_k|.

    The intersection is the union of the type-k cosets meeting every G_j
    (j ≠ k), so (iii) holds iff exactly two of them do.
    """
    return len(_incident_type_k_cosets(S, k)) == 2


def condition_iv(S: CPlusSystem) -> bool:
    """No automorphism of the group inverts every generator in R.

    When every α_i is an involution the identity inverts R, so (iv) fails
    with no search: act[act[0]] is the index of α_i², 0 iff α_i² = 1.
    Otherwise the pair search decides: when r -> r^-1 extends to a
    homomorphism, its image contains every r^-1 and hence generates G, so
    the extension is an automorphism.
    """
    if all(act[act[0]] == 0 for act in S.actions):
        return False
    inverses = [S.alpha_action(i, 0) for i in range(1, S.rank)]
    return not extends_on_indices(S.actions, inverses)


@dataclass
class TwoOrbitResult:
    witness: Optional[Permutation]
    class_count: int
    class_sizes: tuple[int, ...]


def two_orbit_decomposition(S: CPlusSystem, k: int) -> TwoOrbitResult:
    """Double-coset decomposition G_k \\ ∩_{j != k}(G_k G_j) / B with B = ∩_{j != k} G_j.

    Requires condition (i) for k and a trivial B, as condition (ii) gives.
    With B trivial the double cosets are the type-k cosets kept by condition
    (iii), ordered by least member.  The witness is the least element of the
    second class when there are exactly two classes; with more or fewer
    classes only the count and sizes are reported.
    """
    if not condition_i(S, k):
        raise ValueError("chamber transitivity of the truncation fails for this k")
    if len(_corank_stabilizer(S, k)) != 1:
        raise ValueError("the corank-1 intersection for this k is not trivial")
    classes = sorted(_incident_type_k_cosets(S, k), key=_least)
    witness = None
    if len(classes) == 2:
        witness = S.group.element(_least(classes[1]))
    return TwoOrbitResult(witness, len(classes), tuple(c.bit_count() for c in classes))


@dataclass
class ChiralityReport:
    """Outcome of the chirality decision with per-condition detail.

    ``failing_condition`` carries the code of the first failed check in the
    evaluation order (ii), (i), (iii), IC⁺, (iv); ``per_condition`` records
    the conditions that were actually evaluated, except that IC⁺ (code 5)
    appears only when it fails.
    """

    verdict: str
    failing_condition: Optional[int]
    per_condition: dict[int, bool]
    k_used: int
    witness: Optional[Permutation] = None
    orbit_sizes: Optional[tuple[int, int]] = None
    cross_k_disagreement: Optional[dict[int, dict[int, bool]]] = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_condition": self.failing_condition,
            "per_condition": {str(k): v for k, v in sorted(self.per_condition.items())},
            "k_used": self.k_used,
            "witness": list(self.witness.images) if self.witness else None,
            "orbit_sizes": list(self.orbit_sizes) if self.orbit_sizes else None,
            "cross_k_disagreement": self.cross_k_disagreement,
        }


def is_chiral_hypertope(S: CPlusSystem, k: int = 0,
                        check_all_k: bool = False) -> ChiralityReport:
    """Decide chiral / regular / neither from the four group-theoretic conditions.

    Evaluation order and failure codes follow the reference semantics:
    (ii) -> 2, (i) -> 1, (iii) -> 3, (iv) -> 4, short-circuiting on the first
    failure.  Between (iii) and (iv) the system must be a C⁺-group: IC⁺
    false is not a hypertope with code 5.  All true is chiral; (i)-(iii)
    and IC⁺ true with (iv) false means the system is a regular hypertope
    (reported, not further verified).

    With ``check_all_k`` the k-dependent conditions (i) and (iii) are
    evaluated for every k and must agree unanimously; any disagreement is
    recorded rather than adjudicated.
    """
    if S.rank < 3:
        raise ValueError("chirality decision requires rank >= 3")
    if not 0 <= k < S.rank:
        raise ValueError(f"k must be a type index in 0..{S.rank - 1}")

    per: dict[int, bool] = {}
    disagreement: Optional[dict[int, dict[int, bool]]] = None

    def evaluate(code: int) -> bool:
        nonlocal disagreement
        if code == 2:
            value = condition_ii(S)
        elif code == 4:
            value = condition_iv(S)
        else:
            fn = condition_i if code == 1 else condition_iii
            if check_all_k:
                by_k = {kk: fn(S, kk) for kk in S.type_set}
                value = all(by_k.values())
                if len(set(by_k.values())) > 1:
                    disagreement = disagreement or {}
                    disagreement[code] = by_k
            else:
                value = fn(S, k)
        per[code] = value
        return value

    for code in (2, 1, 3):
        if not evaluate(code):
            return ChiralityReport(NOT_HYPERTOPE, code, per, k,
                                   cross_k_disagreement=disagreement)
    if not check_ic_plus(S):
        per[5] = False
        return ChiralityReport(NOT_HYPERTOPE, 5, per, k,
                               cross_k_disagreement=disagreement)

    # (iii) held for k, so there are two classes; the chamber stabilizers are
    # trivial, so each orbit is in bijection with the group
    decomposition = two_orbit_decomposition(S, k)
    orbit_sizes = (S.group.order, S.group.order)

    if not evaluate(4):
        return ChiralityReport(REGULAR, 4, per, k, witness=decomposition.witness,
                               orbit_sizes=orbit_sizes,
                               cross_k_disagreement=disagreement)
    return ChiralityReport(CHIRAL, None, per, k, witness=decomposition.witness,
                           orbit_sizes=orbit_sizes,
                           cross_k_disagreement=disagreement)
