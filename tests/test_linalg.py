import random
from fractions import Fraction

import pytest

from freejordan import linalg


def test_rref_identity():
    rows, pivots = linalg.rref([[1, 0], [0, 1]])
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, pivots = linalg.rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert len(rows) == 2
    # reduced form: pivot columns are unit vectors
    for r, c in zip(rows, pivots):
        assert r[c] == 1
        for r2 in rows:
            if r2 is not r:
                assert r2[c] == 0


def test_rank_random_products():
    # rank(A) <= min dims; outer products have rank 1
    rng = random.Random(5)
    for _ in range(20):
        u = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        m = [[a * b for b in v] for a in u]
        expected = 1 if any(u) and any(v) else 0
        assert linalg.rank(m) == expected


def test_quotient_rejects_row_mixing_parities():
    with pytest.raises(AssertionError, match="mixes parities"):
        linalg.quotient({((0, Fraction(1)), (2, Fraction(1))): None}, (0, 0, 1))


def test_quotient_worked_case():
    # x0 - x1 = 0 on two even coordinates and one odd: x1 and x2 survive,
    # and x0 maps to the class of x1.
    kept, projection = linalg.quotient([((0, Fraction(1)), (1, Fraction(-1)))], (0, 0, 1))
    assert kept == [1, 2]
    assert projection == [(1, 0), (1, 0), (0, 1)]
