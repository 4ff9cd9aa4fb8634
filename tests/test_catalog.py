"""The catalog of reduced 2-step algebras in dimensions 6 through 16."""
from fractions import Fraction

import pytest

from quadlie import (CATALOG, QuadlieError, ValidationError,
                     algebra_from_trivector, catalog, catalog_counts,
                     from_bracket_table, lambda_trivector, trivector_rank)
from quadlie.catalog import normalize_label
from reference import _dense_basis_brackets

# Expected multiplication tables, written out longhand as an independent
# transcription: keys (i,j) with i < j, values {k: c} meaning
# [e_i, e_j] = sum of c * e_k^*.  Each catalog entry stores only its
# trivector, so any slip in either encoding shows up as a mismatch here.
TABLES = {
    "L3,1": {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}},
    "L5,1": {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 4): {5: 1}, (1, 5): {4: -1},
             (2, 3): {1: 1}, (4, 5): {1: 1}},
    "L6,1": {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}, (4, 5): {6: 1},
             (4, 6): {5: -1}, (5, 6): {4: 1}},
    "L6,2": {(1, 2): {4: 1}, (1, 3): {5: 1}, (1, 4): {2: -1}, (1, 5): {3: -1},
             (2, 3): {6: 1}, (2, 4): {1: 1}, (2, 6): {3: -1}, (3, 5): {1: 1},
             (3, 6): {2: 1}},
    "L7,1": {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 4): {5: 1}, (1, 5): {4: -1},
             (1, 6): {7: 1}, (1, 7): {6: -1}, (2, 3): {1: 1}, (4, 5): {1: 1},
             (6, 7): {1: 1}},
    "L7,2": {(1, 2): {7: 1}, (1, 3): {4: 1}, (1, 4): {3: -1}, (1, 7): {2: -1},
             (2, 5): {6: 1}, (2, 6): {5: -1}, (2, 7): {1: 1}, (3, 4): {1: 1},
             (5, 6): {2: 1}},
    "L7,3": {(1, 2): {5: 1}, (1, 3): {6: 1}, (1, 4): {7: 1}, (1, 5): {2: -1},
             (1, 6): {3: -1}, (1, 7): {4: -1}, (2, 3): {4: 1}, (2, 4): {3: -1},
             (2, 5): {1: 1}, (3, 4): {2: 1}, (3, 6): {1: 1}, (4, 7): {1: 1}},
    "L7,4": {(1, 2): {5: 1}, (1, 3): {7: 1}, (1, 5): {2: -1}, (1, 7): {3: -1},
             (2, 4): {7: 1}, (2, 5): {1: 1}, (2, 7): {4: -1}, (3, 4): {6: 1},
             (3, 6): {4: -1}, (3, 7): {1: 1}, (4, 6): {3: 1}, (4, 7): {2: 1}},
    "L7,5": {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 4): {7: 1}, (1, 7): {4: -1},
             (2, 3): {1: 1}, (2, 5): {7: 1}, (2, 7): {5: -1}, (3, 6): {7: 1},
             (3, 7): {6: -1}, (4, 5): {6: 1}, (4, 6): {5: -1}, (4, 7): {1: 1},
             (5, 6): {4: 1}, (5, 7): {2: 1}, (6, 7): {3: 1}},
    "L8,1": {(1, 5): {6: 1}, (1, 6): {5: -1}, (1, 7): {8: 1}, (1, 8): {7: -1},
             (2, 3): {4: 1}, (2, 4): {3: -1}, (3, 4): {2: 1}, (5, 6): {1: 1},
             (7, 8): {1: 1}},
    "L8,2": {(1, 2): {7: 1}, (1, 3): {8: 1}, (1, 4): {5: 1}, (1, 5): {4: -1},
             (1, 7): {2: -1}, (1, 8): {3: -1}, (2, 3): {6: 1}, (2, 6): {3: -1},
             (2, 7): {1: 1}, (3, 6): {2: 1}, (3, 8): {1: 1}, (4, 5): {1: 1}},
    "L8,3": {(1, 2): {5: 1}, (1, 3): {7: 1}, (1, 5): {2: -1}, (1, 7): {3: -1},
             (2, 4): {8: 1}, (2, 5): {1: 1}, (2, 8): {4: -1}, (3, 4): {6: 1},
             (3, 6): {4: -1}, (3, 7): {1: 1}, (4, 6): {3: 1}, (4, 8): {2: 1}},
    "L8,4": {(1, 3): {7: 1}, (1, 6): {8: 1}, (1, 7): {3: -1}, (1, 8): {6: -1},
             (2, 3): {6: 1}, (2, 4): {5: 1}, (2, 5): {4: -1}, (2, 6): {3: -1},
             (3, 6): {2: 1}, (3, 7): {1: 1}, (4, 5): {2: 1}, (6, 8): {1: 1}},
    "L8,5": {(1, 3): {4: 1}, (1, 4): {3: -1}, (1, 7): {8: 1}, (1, 8): {7: -1},
             (2, 5): {6: 1}, (2, 6): {5: -1}, (2, 7): {8: 1}, (2, 8): {7: -1},
             (3, 4): {1: 1}, (5, 6): {2: 1}, (7, 8): {1: 1, 2: 1}},
    "L8,6": {(1, 2): {8: 1}, (1, 3): {5: 1}, (1, 4): {7: 1}, (1, 5): {3: -1},
             (1, 7): {4: -1}, (1, 8): {2: -1}, (2, 3): {7: 1}, (2, 4): {6: 1},
             (2, 6): {4: -1}, (2, 7): {3: -1}, (2, 8): {1: 1}, (3, 5): {1: 1},
             (3, 7): {2: 1}, (4, 6): {2: 1}, (4, 7): {1: 1}},
    "L8,7": {(1, 2): {7: 1}, (1, 3): {8: 1}, (1, 5): {6: 1}, (1, 6): {5: -1},
             (1, 7): {2: -1}, (1, 8): {3: -1}, (2, 4): {6: 1}, (2, 6): {4: -1},
             (2, 7): {1: 1}, (3, 4): {5: 1}, (3, 5): {4: -1}, (3, 8): {1: 1},
             (4, 5): {3: 1}, (4, 6): {2: 1}, (5, 6): {1: 1}},
    "L8,8": {(1, 3): {6: 1}, (1, 5): {8: 1}, (1, 6): {3: -1}, (1, 8): {5: -1},
             (2, 4): {7: 1}, (2, 5): {8: 1}, (2, 7): {4: -1}, (2, 8): {5: -1},
             (3, 4): {5: 1}, (3, 5): {4: -1}, (3, 6): {1: 1}, (4, 5): {3: 1},
             (4, 7): {2: 1}, (5, 8): {1: 1, 2: 1}},
    "L8,9": {(1, 4): {5: 1}, (1, 5): {4: -1}, (1, 6): {7: 1}, (1, 7): {6: -1},
             (2, 3): {8: 1}, (2, 4): {6: 1}, (2, 6): {4: -1}, (2, 8): {3: -1},
             (3, 5): {7: 1}, (3, 7): {5: -1}, (3, 8): {2: 1}, (4, 5): {1: 1},
             (4, 6): {2: 1}, (5, 7): {3: 1}, (6, 7): {1: 1}},
    "L8,10": {(1, 2): {8: 1}, (1, 6): {7: 1}, (1, 7): {6: -1}, (1, 8): {2: -1},
              (2, 3): {6: 1}, (2, 4): {7: 1}, (2, 6): {3: -1}, (2, 7): {4: -1},
              (2, 8): {1: 1}, (3, 4): {5: 1}, (3, 5): {4: -1}, (3, 6): {2: 1},
              (4, 5): {3: 1}, (4, 7): {2: 1}, (6, 7): {1: 1}},
    "L8,11": {(1, 2): {8: 1}, (1, 3): {6: 1}, (1, 5): {7: 1}, (1, 6): {3: -1},
              (1, 7): {5: -1}, (1, 8): {2: -1}, (2, 4): {7: 1}, (2, 5): {6: 1},
              (2, 6): {5: -1}, (2, 7): {4: -1}, (2, 8): {1: 1}, (3, 4): {5: 1},
              (3, 5): {4: -1}, (3, 6): {1: 1}, (4, 5): {3: 1}, (4, 7): {2: 1},
              (5, 6): {2: 1}, (5, 7): {1: 1}},
    "L8,12": {(1, 2): {6: 1}, (1, 5): {8: 1}, (1, 6): {2: -1}, (1, 8): {5: -1},
              (2, 3): {8: 1}, (2, 5): {7: 1}, (2, 6): {1: 1}, (2, 7): {5: -1},
              (2, 8): {3: -1}, (3, 4): {7: 1}, (3, 7): {4: -1}, (3, 8): {2: 1},
              (4, 5): {6: 1}, (4, 6): {5: -1}, (4, 7): {3: 1}, (5, 6): {4: 1},
              (5, 7): {2: 1}, (5, 8): {1: 1}},
    "L8,13": {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 7): {8: 1}, (1, 8): {7: -1},
              (2, 3): {1: 1}, (2, 5): {7: 1}, (2, 7): {5: -1}, (3, 6): {8: 1},
              (3, 8): {6: -1}, (4, 5): {6: 1}, (4, 6): {5: -1}, (4, 7): {8: 1},
              (4, 8): {7: -1}, (5, 6): {4: 1}, (5, 7): {2: 1}, (6, 8): {3: 1},
              (7, 8): {1: 1, 4: 1}},
}


def test_every_entry_matches_its_table():
    assert set(TABLES) == {e.label for e in CATALOG}
    for entry in CATALOG:
        n = entry.n
        built = algebra_from_trivector(entry.trivector).alg
        shifted = {ij: {n + k: c for k, c in terms.items()}
                   for ij, terms in TABLES[entry.label].items()}
        assert built == from_bracket_table(2 * n, shifted), entry.label


def test_catalog_counts():
    counts = catalog_counts()
    assert counts == {6: 1, 8: 0, 10: 1, 12: 2, 14: 5, 16: 13}
    assert sum(counts.values()) == 22
    assert len(CATALOG) == 22


def test_entry_fields():
    e = catalog("L6,2")
    assert e.n == 6
    assert e.expected_dim == 12
    assert e.trivector.n == 6
    assert trivector_rank(e.trivector) == 6


def test_labels_are_ordered_and_unique():
    labels = [e.label for e in CATALOG]
    assert labels[0] == "L3,1" and labels[-1] == "L8,13"
    assert len(set(labels)) == 22
    dims = [e.expected_dim for e in CATALOG]
    assert dims == sorted(dims)


def test_normalize_label_variants():
    for text in ("L5,1", "l5,1", "5,1", "L5.1", "L5_1", "l5-1"):
        assert normalize_label(text) == "L5,1"
    with pytest.raises(QuadlieError):
        normalize_label("five-one")
    with pytest.raises(QuadlieError):
        normalize_label("L5")


def test_catalog_lookup():
    assert catalog("l3_1") is catalog("L3,1")
    with pytest.raises(QuadlieError):
        catalog("L9,1")


def test_lambda_trivector_shape():
    t = lambda_trivector(1)
    assert t.n == 9
    assert t.value(1, 2, 3) == 1
    assert t.value(1, 4, 7) == 1
    assert t.value(1, 5, 8) == 1
    half = lambda_trivector("3/2")
    assert half.value(4, 5, 6) == Fraction(3, 2)
    assert half.value(1, 4, 7) == 1
    with pytest.raises(ValidationError):
        lambda_trivector(0)


def test_lambda_trivector_algebra():
    for lam in (1, Fraction(3, 2)):
        q = algebra_from_trivector(lambda_trivector(lam))
        assert q.dim == 18
        assert q.alg.nilindex() == 2
        assert q.alg.is_reduced()
        assert tuple(q.alg.algebra_type()) == (9, 9)
        assert trivector_rank(lambda_trivector(lam)) == 9


def test_lambda_trivector_18dim_table_lines():
    # spot rows of the 18-dim table for a generic parameter value
    lam = Fraction(3, 2)
    bb = _dense_basis_brackets(
        algebra_from_trivector(lambda_trivector(lam)).alg)
    star = lambda k: 9 + k
    assert bb(5, 6)[star(4) - 1] == lam
    assert bb(1, 4)[star(7) - 1] == 1
    assert bb(7, 8)[star(9) - 1] == lam
    assert bb(1, 7)[star(4) - 1] == -1
