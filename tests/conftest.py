"""Fixtures shared by more than one test module."""
from fractions import Fraction

import pytest

from quadlie import CATALOG, CocycleCoeffs
from quadlie.randgen import random_coeffs


@pytest.fixture(scope="session")
def construction_coeffs():
    """The catalog's trivectors, a seeded corpus of densities 1/4..3/4 on
    n = 3..9, and zero coefficients on n = 0, 3, 4, 6."""
    return (tuple(CocycleCoeffs(e.n, e.trivector.terms) for e in CATALOG)
            + tuple(random_coeffs(3 + seed % 7, seed=seed,
                                  density=Fraction(1 + seed % 3, 4))
                    for seed in range(40))
            + tuple(CocycleCoeffs(n) for n in (0, 3, 4, 6)))
