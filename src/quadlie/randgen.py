"""Deterministic random generation built on SplitMix64.

Every generator takes an explicit integer seed and produces identical
output on every platform and run; nothing reads global RNG state.
"""
from __future__ import annotations

from fractions import Fraction

from .alternating import AltCoeffs
from .doubleext import derivation_space
from .errors import QuadlieError
from .forms import QuadraticStructure
from .linalg import Mat, rank

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splittable generator; the update and output mixing constants
    are the standard published ones."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform on [lo, hi] by rejection sampling; the range may hold at
        most 2**64 values, the outputs of one draw."""
        if hi < lo:
            raise QuadlieError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > 1 << 64:
            raise QuadlieError(f"range [{lo}, {hi}] holds more than 2**64 "
                               f"values")
        limit = ((1 << 64) // span) * span
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def nonzero_entry(self, bound: int = 3) -> Fraction:
        v = self.randint(1, 2 * bound)
        return Fraction(v - 2 * bound - 1 if v > bound else v)


def random_coeffs(n: int, seed: int, density: Fraction = Fraction(1, 2),
                  nonzero: bool = False) -> AltCoeffs:
    """Random alternating coefficients with entries in -3..3; each triple
    is filled with probability `density`. With nonzero=True an all-zero
    draw gets one forced entry, still seed-deterministic."""
    if n < 3:
        raise QuadlieError("need dimension at least 3")
    if not 0 <= density <= 1:
        raise QuadlieError("density must be between 0 and 1")
    rng = SplitMix64(seed)
    triples = [(i, j, k) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    num, den = density.numerator, density.denominator
    vals = {}
    for t in triples:
        if rng.randint(1, den) <= num:
            vals[t] = rng.nonzero_entry()
    if nonzero and not vals:
        vals[triples[rng.randint(0, len(triples) - 1)]] = rng.nonzero_entry()
    return AltCoeffs(n, vals)


def random_matrix(n: int, seed: int, bound: int = 3) -> Mat:
    rng = SplitMix64(seed)
    return Mat([[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                for _ in range(n)])


def random_invertible(n: int, seed: int, bound: int = 3) -> Mat:
    """First invertible matrix along the seeded stream."""
    rng = SplitMix64(seed)
    while True:
        m = Mat([[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                 for _ in range(n)])
        if rank(m) == n:
            return m


def random_skew_derivation(aq: QuadraticStructure, seed: int,
                           bound: int = 3) -> Mat:
    """Random element of the space of form-skew derivations."""
    space = derivation_space(aq)
    rng = SplitMix64(seed)
    n = aq.dim
    cs = [rng.randint(-bound, bound) for _ in range(space.dim)]
    out: list[dict[int, Fraction]] = [{} for _ in range(n)]
    # the vectorized sum is keyed r * n + s, so each row fills in order
    for rs, e in space.basis._vecmat(enumerate(cs)).items():
        r, s = divmod(rs, n)
        out[r][s] = e
    return Mat._of(out, n)
