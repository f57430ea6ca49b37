"""Groups and sweeps shared by the oracle tests and the kernel cross-check."""

import pytest

from hypertope.corpus import generating_tuples, symmetric
from hypertope.cplus import build_cplus, is_chiral_hypertope
from hypertope.permcore import Permutation, generate_group


@pytest.fixture(scope="session")
def psl27():
    """PSL(2,7) on the projective line over F_7 (point 7 is infinity),
    generated by x -> x + 1 and x -> -1/x; order 168."""
    t = Permutation([(x + 1) % 7 for x in range(7)] + [7])
    s = Permutation([7] + [-pow(x, 5, 7) % 7 for x in range(1, 7)] + [0])
    return generate_group(8, [t, s])


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
