"""Built-in instance catalog.

Each entry is a frozen instance document, as the CLI reads one: a degree
and an ordered generator tuple written as cycle strings, with optional
options.  The failure-code fixtures were found by scripted search (see
scripts/find_fixtures.py) and are frozen here.
"""

_ENTRIES = {
    # the order-20 torus-map rotation group in its right-regular action;
    # R is the distinguished pair (sigma1, sigma1*sigma2)
    "torus-4-4-1-2": {
        "degree": 20,
        "generators": ["(0 1 3 2)(4 8 16 12)(5 11 19 13)(6 9 18 15)(7 10 17 14)",
                       "(0 4)(1 7)(2 6)(3 5)(8 17)(9 16)(10 19)(11 18)(12 13)(14 15)"],
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
    "s5-rank4-chiral": {
        "degree": 5,
        "generators": ["(3 4)", "(1 2 3)", "(0 4)(2 3)"],
        "comment": "S5 rank-4: chiral for every k",
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
    "fix-code5-s5": {
        "degree": 5,
        "generators": ["(0 1)", "(0 1)(2 4)", "(0 4 3 1)"],
        "comment": "S5 rank-4: (ii), (i) and (iii) hold for every k, "
                   "but the system is not C+ (IC+ fails)",
    },
}


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def catalog_entry(name: str) -> dict:
    if name not in _ENTRIES:
        raise ValueError(f"unknown catalog instance {name!r}; "
                         f"known: {', '.join(catalog_names())}")
    # the values are immutable or flat lists and dicts, so this is a deep copy
    entry = {key: value.copy() if isinstance(value, (list, dict)) else value
             for key, value in _ENTRIES[name].items()}
    entry["name"] = name
    return entry
