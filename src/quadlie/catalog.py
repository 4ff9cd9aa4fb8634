"""The embedded catalog of reduced quadratic 2-step algebras up to dim 16.

Entries are stored as trivector coefficient data only; multiplication
tables are always re-derived, so a transcription slip shows up as a test
failure instead of silently propagating. Labels follow the L{n},{k}
pattern, with n the trivector dimension (the algebra has dimension 2n).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .alternating import parse_coeffs
from .errors import QuadlieError, ValidationError
from .linalg import scalar
from .trivector import Trivector, trivector_rank


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    n: int
    trivector: Trivector
    expected_dim: int


_RAW: tuple[tuple[str, int, str], ...] = (
    ("L3,1", 3, "123"),
    ("L5,1", 5, "123+145"),
    ("L6,1", 6, "123+456"),
    ("L6,2", 6, "124+135+236"),
    ("L7,1", 7, "123+145+167"),
    ("L7,2", 7, "127+134+256"),
    ("L7,3", 7, "125+136+147+234"),
    ("L7,4", 7, "125+137+247+346"),
    ("L7,5", 7, "123+147+257+367+456"),
    ("L8,1", 8, "156+178+234"),
    ("L8,2", 8, "127+138+145+236"),
    ("L8,3", 8, "125+137+248+346"),
    ("L8,4", 8, "137+168+236+245"),
    ("L8,5", 8, "134+178+256+278"),
    ("L8,6", 8, "128+135+147+237+246"),
    ("L8,7", 8, "127+138+156+246+345"),
    ("L8,8", 8, "136+158+247+258+345"),
    ("L8,9", 8, "145+167+238+246+357"),
    ("L8,10", 8, "128+167+236+247+345"),
    ("L8,11", 8, "128+136+157+247+256+345"),
    ("L8,12", 8, "126+158+238+257+347+456"),
    ("L8,13", 8, "123+178+257+368+456+478"),
)

CATALOG: tuple[CatalogEntry, ...] = tuple(
    CatalogEntry(label, n, parse_coeffs(compact, n), 2 * n)
    for label, n, compact in _RAW)

_BY_LABEL = {e.label: e for e in CATALOG}

_LABEL_RE = re.compile(r"^L?(\d+)[,._-](\d+)$")


def normalize_label(label: str) -> str:
    m = _LABEL_RE.match(label.strip().upper().replace(" ", ""))
    if not m:
        raise QuadlieError(f"malformed catalog label: {label!r}")
    return f"L{m.group(1)},{m.group(2)}"


def catalog(label: str) -> CatalogEntry:
    key = normalize_label(label)
    if key not in _BY_LABEL:
        raise QuadlieError(f"unknown catalog label: {label!r}")
    return _BY_LABEL[key]


def catalog_counts() -> dict[int, int]:
    """Entries per algebra dimension, including the empty dimension 8."""
    counts = {2 * n: 0 for n in range(3, 9)}
    for e in CATALOG:
        counts[e.expected_dim] += 1
    return counts


def lambda_trivector(lam) -> Trivector:
    """One-parameter trivector at n=9 whose algebra is 18-dimensional:
    lam*(123+456+789) + 147 + 158 with lam nonzero."""
    lam = scalar(lam)
    if not lam:
        raise ValidationError("parameter must be nonzero", law="nonzero")
    return Trivector(9, {
        (1, 2, 3): lam, (4, 5, 6): lam, (7, 8, 9): lam,
        (1, 4, 7): 1, (1, 5, 8): 1,
    })


def _check_ranks():
    # Full-rank trivectors give reduced algebras; verified at import so a
    # bad transcription cannot be consumed.
    for e in CATALOG:
        if trivector_rank(e.trivector) != e.n:
            raise RuntimeError(f"catalog entry {e.label} has rank "
                               f"{trivector_rank(e.trivector)} != {e.n}")


_check_ranks()
