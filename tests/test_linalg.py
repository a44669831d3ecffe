import random
from fractions import Fraction

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

