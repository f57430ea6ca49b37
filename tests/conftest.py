"""Groups, systems, transforms and sweeps shared by the test modules; the
metamorphic smoke of scripts/smoke.py imports the transforms too."""

import pytest

from hypertope.catalog import catalog_entry
from hypertope.cli import spec_from_mapping
from hypertope.corpus import (
    affine_torus,
    elementary_abelian_2cubed,
    generating_tuples,
    psl2,
    simplex,
    symmetric,
    torus_rotation_group,
)
from hypertope.cosetgeo import build
from hypertope.cplus import build_cplus, is_chiral_hypertope
from hypertope.permcore import Permutation, generate_group


@pytest.fixture(scope="session")
def psl27():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity),
    generated by x -> x + 1 and x -> -1/x; order 168."""
    return generate_group(*psl2(7))


@pytest.fixture(scope="session")
def rank4_classes(psl27):
    """Every independent rank-4 class of S5 and of PSL(2,7), one generating
    triple per simultaneous-conjugacy class, each with its fast verdict
    over all k: {name: (G, [(R, report)])}."""
    out = {}
    for name, G in (("s5", symmetric(5)), ("psl27", psl27)):
        out[name] = (G, [(R, is_chiral_hypertope(build_cplus(G, R), check_all_k=True))
                         for R in generating_tuples(G, 3, independent=True)])
    return out


def hexagon():
    """S3 over the subgroups of two reflections: the incidence graph is a 6-cycle."""
    G = symmetric(3)
    H1 = generate_group(3, [Permutation([1, 0, 2])])
    H2 = generate_group(3, [Permutation([0, 2, 1])])
    return build(G, [H1, H2])


def disconnected_c4():
    """C4 with both parabolics <g^2>: two components {H, Hg} x 2 types."""
    H = generate_group(4, [Permutation([2, 3, 0, 1])])
    return build(generate_group(4, [Permutation([1, 2, 3, 0])]), [H, H])


def non_geometry_rank4():
    """A connected rank-4 system over C2^3 with a flag in no chamber, the
    one ``scripts/find_fixtures.py nongeometry`` finds."""
    parabolics = [generate_group(6, [Permutation(images)]) for images in (
        [0, 1, 2, 3, 5, 4],   # (4 5)
        [0, 1, 3, 2, 4, 5],   # (2 3)
        [0, 1, 3, 2, 5, 4],   # (2 3)(4 5)
        [1, 0, 2, 3, 4, 5])]  # (0 1)
    return build(elementary_abelian_2cubed(), parabolics)


def c3xc3_cplus():
    """C3 x C3 on two triangles, R its two generators: a residually
    connected geometry that is not thin (code 3)."""
    return catalog_cplus("fix-code3-c3xc3")


def torus_cplus():
    """The {4,4}_(1,2) torus map: the order-20 ``torus_rotation_group``
    with R = (s, s t)."""
    G, (s, t) = torus_rotation_group()
    return build_cplus(G, (s, s * t))


def catalog_cplus(name):
    """The system of the catalog entry ``name``."""
    spec = spec_from_mapping(catalog_entry(name))
    return build_cplus(generate_group(spec.degree, spec.generators), spec.generators)


def simplex_cplus(rank):
    """The regular (rank-1)-simplex: alpha_i = (0 1)(i i+1) in A_{rank+1}."""
    n, R = simplex(rank)
    return build_cplus(generate_group(n, R), R)


def torus_p_cplus(p):
    """Ladder A: G = {x -> ax + b mod p} with a^2 = -1, R = (s, s t); |G| = 4p."""
    degree, R = affine_torus(p)
    return build_cplus(generate_group(degree, R), R)


def relabelled(R, pi):
    """R conjugated by the point map pi: the image of pi[x] is pi[r(x)]."""
    out = []
    for r in R:
        images = [0] * len(pi)
        for x, y in enumerate(r.images):
            images[pi[x]] = pi[y]
        out.append(Permutation(images))
    return out


def type_reordered(R, order):
    """R' = (alpha_{m0 m1}, ..., alpha_{m0 m_{r-1}}) for the type order
    m = ``order``; the alpha_{ij} of R' are the alpha_{m_i m_j} of R."""
    alphas = [Permutation.identity(R[0].degree)] + list(R)
    first = alphas[order[0]].inverse()
    return [first * alphas[m] for m in order[1:]]


def conjugated(R, g):
    """R^g = (g^-1 r g for r in R)."""
    g_inv = g.inverse()
    return [g_inv * r * g for r in R]
