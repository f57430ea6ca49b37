"""Built-in instance catalog.

Each entry is a degree plus an ordered generator tuple, stored as image
arrays so the CLI needs no group construction beyond ``generate_group``.
The failure-code fixtures were found by scripted search (see
scripts/find_fixtures.py) and are frozen here.
"""

from __future__ import annotations

from .corpus import regular_representation, torus_rotation_group


def _torus_regular() -> tuple[int, list[list[int]]]:
    G, (s, t) = torus_rotation_group()
    degree, gens = regular_representation(G, (s, s * t))
    return degree, [list(g.images) for g in gens]


def _entries() -> dict[str, dict]:
    torus_degree, torus_gens = _torus_regular()
    return {
        # the order-20 torus-map rotation group in its right-regular action;
        # R is the distinguished pair (sigma1, sigma1*sigma2)
        "torus-4-4-1-2": {
            "degree": torus_degree,
            "generators": torus_gens,
            "comment": "rotation group of the {4,4}_(1,2) torus map; chiral",
        },
        # rotation group of the tetrahedron with two 3-cycles sharing an edge
        "a4-rot-tetrahedron": {
            "degree": 4,
            "generators": ["(0 1 2)", "(1 2 3)"],
            "comment": "regular hypertope; inverting automorphism exists (code 4)",
        },
        "d5-pentagon": {
            "degree": 5,
            "generators": ["(0 1 2 3 4)", "(1 4)(2 3)"],
            "comment": "dihedral instance",
        },
        "c6-squarefree-pair": {
            "degree": 6,
            "generators": ["(0 2 4)(1 3 5)", "(0 3)(1 4)(2 5)"],
            "comment": "abelian edge case: C6 = C3 x C2",
        },
        # failure-code fixtures, one per code ------------------------------
        "fix-code1-s5": {
            "degree": 5,
            "generators": ["(3 4)", "(1 2 3)", "(0 1 3)"],
            "options": {"k": 2},
            "comment": "S5 rank-4: corank-1 intersections trivial but the "
                       "truncation dropping type 2 has two chamber orbits",
        },
        "fix-code2-c4": {
            "degree": 4,
            "generators": ["(0 1 2 3)", "(0 2)(1 3)"],
            "comment": "R = (g, g^2) in C4: corank-1 intersections nontrivial",
        },
        "fix-code3-c3xc3": {
            "degree": 6,
            "generators": ["(0 1 2)", "(3 4 5)"],
            "comment": "C3 x C3: conditions (ii),(i) hold but the incident "
                       "type-k element set has 9 elements, not 2*3",
        },
        "fix-code4-a4": {
            "degree": 4,
            "generators": ["(0 1 2)", "(1 2 3)"],
            "comment": "same as a4-rot-tetrahedron; fails only condition (iv)",
        },
    }


def catalog_names() -> list[str]:
    return sorted(_entries())


def catalog_entry(name: str) -> dict:
    entries = _entries()
    if name not in entries:
        raise ValueError(f"unknown catalog instance {name!r}; "
                         f"known: {', '.join(sorted(entries))}")
    entry = dict(entries[name])
    entry["name"] = name
    return entry
