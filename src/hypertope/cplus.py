"""C⁺-group machinery and the group-theoretic chirality decision.

A C⁺-system is a group together with an ordered generating set
R = (α_1, ..., α_{r-1}); with α_0 = 1 the derived generators are
α_{ij} = α_i^{-1} α_j and the parabolic of J is ⟨α_{ij} : i, j ∈ J⟩.
The verdict procedure evaluates the four conditions of the double-coset
chirality criterion in the reference order (ii), (i), (iii), (iv) with
short-circuiting, so failure codes are comparable with existing
computer-algebra outputs (1 ↔ (i), 2 ↔ (ii), 3 ↔ (iii), 4 ↔ (iv)).

The decision never builds the coset geometry: (i) counts the chambers
through the base type-a coset and (iii) keeps the type-k cosets meeting
every G_j, both from cosets of the parabolics held as element indices of G.
The geometry (``associated_geometry``) serves the oracle and the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cosetgeo import CosetGeometry
from .permcore import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    Permutation,
    double_coset_decomposition,
    generate_group,
    generated_indices,
    inverting_automorphism_exists,
    product_set,  # noqa: F401 -- perfbench/test_perfbench.py reaches it as cplus.product_set
    subgroup_intersection,
)

CHIRAL = "chiral-hypertope"
REGULAR = "regular-hypertope"
NOT_HYPERTOPE = "not-hypertope"


class CPlusSystem:
    """A group with an ordered generating set and its derived parabolics.

    R must generate the group; ``build_cplus`` checks that.  Each k's result
    of condition (i) and its type-k cosets of condition (iii) are computed
    once and kept; the decomposition of the two chamber orbits reuses the
    latter.  The associated coset geometry is built only on request.
    """

    def __init__(self, group: PermGroup, R: Sequence[Permutation],
                 cap: int = DEFAULT_ELEMENT_CAP):
        self.group = group
        self.R = tuple(R)
        self.rank = len(self.R) + 1
        self.cap = cap
        self._alphas = (group.identity,) + self.R  # alpha_0 = identity
        self._parabolic_cache: dict[tuple[int, ...], PermGroup] = {}
        self._geometry: Optional[CosetGeometry] = None
        self._condition_i: dict[int, bool] = {}
        self._incident_cosets: dict[int, tuple[list[int], ...]] = {}

    @property
    def type_set(self) -> tuple[int, ...]:
        return tuple(range(self.rank))

    def alpha(self, i: int, j: int) -> Permutation:
        """alpha_{ij} = alpha_i^-1 alpha_j; note alpha_{ji} = alpha_{ij}^-1."""
        return self._alphas[i].inverse() * self._alphas[j]

    def parabolic(self, J: Sequence[int]) -> PermGroup:
        """⟨alpha_{ij} : i, j ∈ J⟩; trivial when |J| <= 1 since alpha_{ii} = 1.

        For the full type set it is the group itself: alpha_{0j} = alpha_j,
        so the generators include R, which generates the group.
        """
        key = tuple(sorted(set(J)))
        if key not in self._parabolic_cache:
            if len(key) <= 1:
                group = PermGroup.trivial(self.group.degree)
            elif key == self.type_set:
                group = self.group
            else:
                gens = [self.alpha(i, j) for i in key for j in key if i != j]
                group = generate_group(self.group.degree, gens, cap=self.cap)
            self._parabolic_cache[key] = group
        return self._parabolic_cache[key]

    def maximal_parabolic(self, i: int) -> PermGroup:
        """The type-i subgroup of the associated coset system."""
        return self.parabolic(tuple(j for j in self.type_set if j != i))

    def maximal_parabolics(self) -> list[PermGroup]:
        return [self.maximal_parabolic(i) for i in self.type_set]


def build_cplus(G: PermGroup, R: Sequence[Permutation],
                cap: int = DEFAULT_ELEMENT_CAP) -> CPlusSystem:
    """Build the system and materialize its maximal parabolics.

    R must generate G; rank 2 is accepted for construction but the chirality
    decision requires rank >= 3.
    """
    R = tuple(R)
    for r in R:
        if r not in G:
            raise ValueError("generator not in G")
    if len(generated_indices(G.action(r) for r in R)) != G.order:
        raise ValueError("R does not generate G")
    system = CPlusSystem(G, R, cap=cap)
    system.maximal_parabolics()
    return system


def is_independent_generating_set(S: CPlusSystem) -> bool:
    """No generator lies in the subgroup generated by the others."""
    G = S.group
    for i, r in enumerate(S.R):
        others = generated_indices(G.action(x) for j, x in enumerate(S.R) if j != i)
        if G.index[r] in others:
            return False
    return True


def check_ic_plus(S: CPlusSystem) -> bool:
    """Intersection condition: parabolic(J) ∩ parabolic(K) = parabolic(J ∩ K)
    for all |J|, |K| >= 2.  Symmetric pairs are deduplicated; order comparison
    suffices because parabolic(J ∩ K) always sits inside the intersection.
    """
    I = S.type_set
    subsets = [J for k in range(2, S.rank + 1)
               for J in itertools.combinations(I, k)]
    for a, J in enumerate(subsets):
        for K in subsets[a:]:
            meet = subgroup_intersection(S.parabolic(J), S.parabolic(K))
            if meet.order != S.parabolic(tuple(set(J) & set(K))).order:
                return False
    return True


def associated_geometry(S: CPlusSystem) -> CosetGeometry:
    """The coset incidence system over the maximal parabolics, in type order,
    built once per system."""
    if S._geometry is None:
        S._geometry = CosetGeometry(S.group, S.maximal_parabolics())
    return S._geometry


def condition_i(S: CPlusSystem, k: int) -> bool:
    """Transitivity on the chambers of the truncation dropping type k.

    G is transitive on the type-a cosets, and G_a meets the base chamber's
    stabilizer in B = ∩_{j != k} G_j, so the truncation is chamber-transitive
    iff exactly |G_a : B| chambers pass through the base coset G_a (a ≠ k,
    G_a smallest).  They are counted as the pairwise meeting tuples of the
    cosets G_j h, h ∈ G_a, held as bitmasks over ``G.index``.
    """
    if k not in S._condition_i:
        J = [j for j in S.type_set if j != k]
        if len(J) <= 2:  # rank <= 2 truncations are chamber-transitive
            S._condition_i[k] = True
        else:
            a = min(J, key=lambda j: S.maximal_parabolic(j).order)
            Ga = S.maximal_parabolic(a)
            target = Ga.order // _corank_stabilizer(S, k).order
            candidates = sorted(
                ([_mask(c) for c in _cosets_meeting(S.group, S.maximal_parabolic(j), Ga)]
                 for j in J if j != a), key=len)
            S._condition_i[k] = _count_meeting_tuples(candidates, target + 1) == target
    return S._condition_i[k]


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _cosets_meeting(G: PermGroup, H: PermGroup, K: PermGroup) -> list[list[int]]:
    """The right cosets H h with h ∈ K, i.e. those meeting K, each once and
    as the ``G.index`` of its elements; ascending by least h."""
    index = G.index
    seen: set[int] = set()
    cosets = []
    for h in K.elements:
        if index[h] not in seen:
            coset = [index[x * h] for x in H.elements]
            seen.update(coset)
            cosets.append(coset)
    return cosets


def _count_meeting_tuples(candidates: list[list[int]], stop: int) -> int:
    """The number of tuples, one mask from each list, that pairwise meet;
    counting stops at ``stop``."""
    count = 0

    def extend(level: int, chosen: tuple[int, ...]) -> None:
        nonlocal count
        if level == len(candidates):
            count += 1
            return
        for c in candidates[level]:
            if all(c & m for m in chosen):
                extend(level + 1, chosen + (c,))
                if count >= stop:
                    return

    extend(0, ())
    return count


def condition_ii(S: CPlusSystem) -> bool:
    """Every corank-1 intersection of maximal parabolics is trivial."""
    for T in itertools.combinations(S.type_set, S.rank - 1):
        meet = S.maximal_parabolic(T[0])
        for t in T[1:]:
            meet = subgroup_intersection(meet, S.maximal_parabolic(t))
        if not meet.is_trivial():
            return False
    return True


def _incident_type_k_cosets(S: CPlusSystem, k: int) -> tuple[list[int], ...]:
    """The type-k cosets that meet every G_j, j ≠ k, as ``G.index`` lists.

    They all meet G_{j0} for the smallest G_{j0}, so only the cosets G_k h,
    h ∈ G_{j0}, are tested against the other G_j.
    """
    if k not in S._incident_cosets:
        G = S.group
        others = sorted((S.maximal_parabolic(j) for j in S.type_set if j != k),
                        key=lambda H: H.order)
        rest = [{G.index[x] for x in Gj} for Gj in others[1:]]
        S._incident_cosets[k] = tuple(
            c for c in _cosets_meeting(G, S.maximal_parabolic(k), others[0])
            if not any(Gj.isdisjoint(c) for Gj in rest))
    return S._incident_cosets[k]


def _incident_type_k_elements(S: CPlusSystem, k: int) -> frozenset[Permutation]:
    """∩_{j != k} (G_k G_j): the union of the type-k cosets incident to the base flag."""
    elements = S.group.elements
    return frozenset(elements[i] for c in _incident_type_k_cosets(S, k) for i in c)


def condition_iii(S: CPlusSystem, k: int) -> bool:
    """|∩_{j != k} (G_k G_j)| = 2 |G_k|.

    The intersection is the union of the type-k cosets meeting every G_j
    (j ≠ k), so (iii) holds iff exactly two of them do.
    """
    return len(_incident_type_k_cosets(S, k)) == 2


def condition_iv(S: CPlusSystem) -> bool:
    """No automorphism of the group inverts every generator in R."""
    return not inverting_automorphism_exists(S.group, S.R)


@dataclass
class TwoOrbitResult:
    witness: Optional[Permutation]
    class_count: int
    class_sizes: tuple[int, ...]


def two_orbit_decomposition(S: CPlusSystem, k: int) -> TwoOrbitResult:
    """Double-coset decomposition G_k \\ ∩_{j != k}(G_k G_j) / B with B = ∩_{j != k} G_j.

    Requires condition (i) for k.  The witness is the canonical (minimal)
    element of the second class when there are exactly two classes; with more
    or fewer classes only the count and sizes are reported.
    """
    if not condition_i(S, k):
        raise ValueError("chamber transitivity of the truncation fails for this k")
    Gk = S.maximal_parabolic(k)
    B = _corank_stabilizer(S, k)
    classes = double_coset_decomposition(Gk, _incident_type_k_elements(S, k), B)
    witness = None
    if len(classes) == 2:
        witness = min(classes[1])
    return TwoOrbitResult(witness, len(classes), tuple(len(c) for c in classes))


def _corank_stabilizer(S: CPlusSystem, k: int) -> PermGroup:
    B = None
    for j in S.type_set:
        if j == k:
            continue
        Gj = S.maximal_parabolic(j)
        B = Gj if B is None else subgroup_intersection(B, Gj)
    assert B is not None
    return B


@dataclass
class ChiralityReport:
    """Outcome of the chirality decision with per-condition detail.

    ``failing_condition`` carries the code of the first failed check in the
    evaluation order (ii), (i), (iii), (iv); ``per_condition`` records only
    the conditions that were actually evaluated.
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
    failure.  All four true is chiral; (i)-(iii) true with (iv) false means
    the system is a regular hypertope (reported, not further verified).

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

    decomposition = two_orbit_decomposition(S, k)
    orbit_sizes = None
    if decomposition.class_count == 2:
        # trivial chamber stabilizers: each orbit is in bijection with the group
        orbit_sizes = (S.group.order, S.group.order)

    if not evaluate(4):
        return ChiralityReport(REGULAR, 4, per, k, witness=decomposition.witness,
                               orbit_sizes=orbit_sizes,
                               cross_k_disagreement=disagreement)
    return ChiralityReport(CHIRAL, None, per, k, witness=decomposition.witness,
                           orbit_sizes=orbit_sizes,
                           cross_k_disagreement=disagreement)
