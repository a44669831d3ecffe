import random
from fractions import Fraction

import pytest

from freejordan import linalg


def sparse(dense):
    return [tuple((k, Fraction(c)) for k, c in enumerate(row) if c) for row in dense]


def densify(row, ncols):
    out = [Fraction(0)] * ncols
    for k, c in row:
        out[k] = c
    return out


def test_rref_identity():
    rows, pivots = linalg.rref(sparse([[1, 0], [0, 1]]))
    assert [densify(r, 2) for r in rows] == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, pivots = linalg.rref(sparse([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    assert pivots == [0, 1]
    assert len(rows) == 2
    rows = [densify(r, 3) for r in rows]
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
        assert linalg.rank(sparse(m)) == expected


def random_sparse_rows(rng, nrows, ncols, density):
    """Random integer rows with some exact duplicates and combinations."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(rng.choice(rows))
        elif len(rows) > 1 and pick < 0.35:
            a, b = rng.sample(rows, 2)
            fa, fb = rng.randint(-3, 3), rng.randint(-3, 3)
            acc = {}
            for row, f in ((a, fa), (b, fb)):
                for k, c in row:
                    acc[k] = acc.get(k, 0) + f * c
            rows.append(tuple((k, c) for k, c in sorted(acc.items()) if c))
        else:
            rows.append(tuple(
                (k, rng.choice([-3, -2, -1, 1, 2, 5]))
                for k in range(ncols) if rng.random() < density
            ))
    return rows


SHAPES = [(seed, nrows, ncols, density)
          for seed, (nrows, ncols, density) in enumerate(
              [(6, 4, 0.5), (12, 10, 0.3), (25, 18, 0.2), (40, 30, 0.1), (30, 12, 0.4)] * 4)]


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES)
def test_rref_is_reduced_echelon_form(seed, nrows, ncols, density):
    rows = random_sparse_rows(random.Random(seed), nrows, ncols, density)
    reduced, pivots = linalg.rref(rows)
    assert pivots == sorted(set(pivots)) and len(reduced) == len(pivots)
    for row, p in zip(reduced, pivots):
        cols = [k for k, _ in row]
        assert cols == sorted(cols) and all(c for _, c in row)
        assert cols[0] == p and row[0][1] == 1  # leading entry is a unit pivot
        assert not set(cols[1:]) & set(pivots)  # zero in the other pivot columns
    # Each input row is the combination of the pivot rows read off its pivots.
    for row in rows:
        dense = densify(row, ncols)
        combo = [Fraction(0)] * ncols
        for r, p in zip(reduced, pivots):
            for k, c in r:
                combo[k] += dense[p] * c
        assert combo == dense


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES[:10])
def test_rref_and_quotient_ignore_row_order(seed, nrows, ncols, density):
    rng = random.Random(seed)
    rows = random_sparse_rows(rng, nrows, ncols, density)
    parity = (0,) * ncols
    expected_rref, expected_quotient = linalg.rref(rows), linalg.quotient(rows, parity)
    for _ in range(3):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert linalg.rref(shuffled) == expected_rref
        assert linalg.quotient(shuffled, parity) == expected_quotient


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES[:10])
def test_quotient_kills_relations_and_keeps_a_basis(seed, nrows, ncols, density):
    rng = random.Random(seed)
    n_even = ncols // 2
    parity = (0,) * n_even + (1,) * (ncols - n_even)
    # Rows inside one parity block each, as the callers build them.
    rows = [tuple((k + lo, c) for k, c in row)
            for lo, hi in ((0, n_even), (n_even, ncols))
            for row in random_sparse_rows(rng, nrows // 2, hi - lo, density)]
    kept, projection = linalg.quotient(rows, parity)
    assert len(kept) == ncols - linalg.rank(rows)
    for row in rows:
        image = [Fraction(0)] * len(kept)
        for k, c in row:
            for q, p in projection[k]:
                image[q] += c * p
        assert not any(image)
    for vec in projection:
        assert [q for q, _ in vec] == sorted({q for q, _ in vec}) and all(c for _, c in vec)
    for q, k in enumerate(kept):
        assert projection[k] == ((q, 1),)


def test_quotient_rejects_row_mixing_parities():
    with pytest.raises(AssertionError, match="mixes parities"):
        linalg.quotient({((0, Fraction(1)), (2, Fraction(1))): None}, (0, 0, 1))


def test_quotient_worked_case():
    # x0 - x1 = 0 on two even coordinates and one odd: x1 and x2 survive,
    # and x0 maps to the class of x1.
    kept, projection = linalg.quotient([((0, Fraction(1)), (1, Fraction(-1)))], (0, 0, 1))
    assert kept == [1, 2]
    assert projection == [((0, 1),), ((0, 1),), ((1, 1),)]
