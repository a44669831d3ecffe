import math
import random
from fractions import Fraction

import pytest

from freejordan import cli, linalg
from freejordan.jordan import build_free_jordan
from freejordan.tag import build_tag
from reference import fraction_quotient, fraction_rref


def sparse(dense):
    return [tuple((k, c) for k, c in enumerate(row) if c) for row in dense]


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


def test_int_rows_with_explicit_zeros():
    # Explicit zeros are dropped before the elimination.
    rows = [((0, 0), (2, 0)), ((0, 2), (1, 0), (2, 4)), ((0, 3), (2, 6))]
    assert linalg.rank(rows) == 1
    assert linalg.rref(rows) == fraction_rref(rows) == ([((0, 1), (2, 2))], [0])


def test_rank_random_products():
    # rank(A) <= min dims; outer products have rank 1
    rng = random.Random(5)
    for _ in range(20):
        u = [rng.randint(-4, 4) for _ in range(4)]
        v = [rng.randint(-4, 4) for _ in range(5)]
        m = [[a * b for b in v] for a in u]
        expected = 1 if any(u) and any(v) else 0
        assert linalg.rank(sparse(m)) == expected


@pytest.mark.parametrize(
    "scale", [1, -3, Fraction(2, 3), Fraction(1)], ids=["one", "int", "fraction", "fraction-one"]
)
def test_accumulate_matches_reference(scale):
    # Int and Fraction coefficients on overlapping keys; the last row
    # cancels key 1, which sparse_row must drop.
    rows = [
        ((0, 2), (1, Fraction(1, 2))),
        ((1, Fraction(3, 2)), (2, -1), (4, Fraction(-5, 7))),
        ((1, -2), (3, 7)),
    ]
    acc = {5: Fraction(1, 3)}
    expect = {5: Fraction(1, 3)}
    for row in rows:
        linalg.accumulate(acc, row, scale)
        for k, c in row:
            expect[k] = expect.get(k, 0) + scale * c
    assert acc == expect
    assert linalg.sparse_row(acc) == tuple(sorted((k, c) for k, c in expect.items() if c))
    assert 1 not in dict(linalg.sparse_row(acc))


def random_coefficient(rng):
    """Mostly a small int; else a Fraction with denominator 2-7 or an int above 2**64."""
    pick = rng.random()
    if pick < 0.2:
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(2, 7))
    if pick < 0.3:
        return rng.choice([-1, 1]) * (2**64 + rng.randint(1, 2**70))
    return rng.choice([-3, -2, -1, 1, 2, 5])


def random_sparse_rows(rng, nrows, ncols, density):
    """Random int rows with some exact duplicates, negations, combinations and zero rows.

    The coefficients mix small ints and ints above 2**64; a fresh row drawn
    with Fractions of denominators 2-7 is scaled to ints by the lcm of its
    denominators, as the callers of ``linalg`` scale their tables.  Negated
    copies give rows with a negative leading entry, and a zero row is
    either empty or made of explicit zeros.
    """
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(rng.choice(rows))
        elif rows and pick < 0.22:
            rows.append(tuple((k, -c) for k, c in rng.choice(rows)))
        elif pick < 0.27:
            rows.append(rng.choice([(), ((0, 0), (ncols - 1, 0))]))
        elif len(rows) > 1 and pick < 0.4:
            a, b = rng.sample(rows, 2)
            fa, fb = rng.randint(-3, 3), rng.randint(-3, 3)
            acc = {}
            for row, f in ((a, fa), (b, fb)):
                for k, c in row:
                    acc[k] = acc.get(k, 0) + f * c
            rows.append(tuple((k, c) for k, c in sorted(acc.items()) if c))
        else:
            row = tuple(
                (k, random_coefficient(rng))
                for k in range(ncols) if rng.random() < density
            )
            den = math.lcm(*(Fraction(c).denominator for _, c in row))
            rows.append(tuple((k, int(c * den)) for k, c in row))
    return rows


SHAPES = [(seed, nrows, ncols, density)
          for seed, (nrows, ncols, density) in enumerate(
              [(6, 4, 0.5), (12, 10, 0.3), (25, 18, 0.2), (40, 30, 0.1), (30, 12, 0.4)] * 4)]


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES)
def test_rref_is_reduced_echelon_form(seed, nrows, ncols, density):
    rows = random_sparse_rows(random.Random(seed), nrows, ncols, density)
    reduced, pivots = linalg.rref(rows)
    # Each int row over its pivot entry is what rational elimination gives.
    assert ([tuple((k, Fraction(c, row[0][1])) for k, c in row) for row in reduced], pivots) \
        == fraction_rref(rows)
    assert all(type(c) is int for row in reduced for _, c in row)
    assert pivots == sorted(set(pivots)) and len(reduced) == len(pivots)
    for row, p in zip(reduced, pivots):
        cols = [k for k, _ in row]
        assert cols == sorted(cols) and all(c for _, c in row)
        assert cols[0] == p and row[0][1] > 0  # leading entry is a positive pivot
        assert math.gcd(*(c for _, c in row)) == 1  # primitive
        assert not set(cols[1:]) & set(pivots)  # zero in the other pivot columns
    # Each input row is the combination of the pivot rows read off its
    # pivots, each over its pivot entry.
    for row in rows:
        dense = densify(row, ncols)
        combo = [Fraction(0)] * ncols
        for r, p in zip(reduced, pivots):
            for k, c in r:
                combo[k] += dense[p] * Fraction(c, r[0][1])
        assert combo == dense


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES)
def test_rank_is_the_rref_pivot_count(seed, nrows, ncols, density):
    # rank skips the rational output rows; it must count the same pivots.
    rows = random_sparse_rows(random.Random(seed), nrows, ncols, density)
    assert linalg.rank(rows) == len(linalg.rref(rows)[1])


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES[:10])
def test_rref_and_quotient_ignore_row_order(seed, nrows, ncols, density):
    # Neither the order of the rows nor a nonzero int multiple of each
    # moves the output: the primitive reduced basis is unique.
    rng = random.Random(seed)
    rows = random_sparse_rows(rng, nrows, ncols, density)
    parity = (0,) * ncols
    expected_rref, expected_quotient = linalg.rref(rows), linalg.quotient(rows, parity)
    for _ in range(3):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert linalg.rref(shuffled) == expected_rref
        assert linalg.quotient(shuffled, parity) == expected_quotient
        multiples = [tuple((k, f * c) for k, c in row)
                     for row, f in zip(shuffled, (rng.choice([-1, 1]) * rng.randint(1, 50)
                                                  for _ in shuffled))]
        assert linalg.rref(multiples) == expected_rref
        assert linalg.quotient(multiples, parity) == expected_quotient


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES)
def test_quotient_is_the_rational_quotient_over_its_scale(seed, nrows, ncols, density):
    rows = random_sparse_rows(random.Random(seed), nrows, ncols, density)
    parity = (0,) * ncols
    kept, projection, scale = linalg.quotient(rows, parity)
    expected_kept, expected_projection = fraction_quotient(rows, parity)
    assert kept == expected_kept
    assert [tuple((q, Fraction(c, scale)) for q, c in vec) for vec in projection] \
        == expected_projection
    # scale is the least common denominator of the rational projection.
    assert scale == math.lcm(*(c.denominator for vec in expected_projection for _, c in vec))


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES[:10])
def test_quotient_kills_relations_and_keeps_a_basis(seed, nrows, ncols, density):
    rng = random.Random(seed)
    n_even = ncols // 2
    parity = (0,) * n_even + (1,) * (ncols - n_even)
    # Rows inside one parity block each, as the callers build them.
    rows = [tuple((k + lo, c) for k, c in row)
            for lo, hi in ((0, n_even), (n_even, ncols))
            for row in random_sparse_rows(rng, nrows // 2, hi - lo, density)]
    kept, projection, scale = linalg.quotient(rows, parity)
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
        assert projection[k] == ((q, scale),)


def test_quotient_rejects_row_mixing_parities():
    with pytest.raises(AssertionError, match="mixes parities"):
        linalg.quotient({((0, 1), (2, 1)): None}, (0, 0, 1))


def test_quotient_worked_case():
    # x0 - x1 = 0 on two even coordinates and one odd: x1 and x2 survive,
    # and x0 maps to the class of x1.
    kept, projection, scale = linalg.quotient([((0, 1), (1, -1))], (0, 0, 1))
    assert kept == [1, 2]
    assert projection == [((0, 1),), ((0, 1),), ((1, 1),)] and scale == 1
    # 4 x0 = 6 x1: x0 maps to 3/2 x1, so the projection is held at scale 2.
    kept, projection, scale = linalg.quotient([((0, 4), (1, -6))], (0, 0, 1))
    assert kept == [1, 2]
    assert projection == [((0, 3),), ((0, 2),), ((1, 2),)] and scale == 2


def test_elimination_takes_ints(monkeypatch, capsys):
    # Every caller scales its rows to ints; a Fraction is refused, not scaled.
    with pytest.raises(TypeError):
        linalg.rank([((0, Fraction(1, 2)), (1, 1))])
    reduce = linalg._reduce

    def int_rows_only(rows):
        assert all(type(c) is int for row in rows for _, c in row)
        return reduce(rows)

    monkeypatch.setattr(linalg, "_reduce", int_rows_only)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    for argv in (
        ["verify", "--d1", "2", "--d2", "0", "--max-degree", "6"],
        ["homology", "--d1", "1", "--d2", "1", "--rmax", "4", "--dmax", "4"],
        ["oracle", "--d1", "0", "--d2", "2", "--max-degree", "5"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("d1,d2,n", [(2, 0, 6), (1, 2, 5)])
def test_elimination_returns_ints(monkeypatch, d1, d2, n):
    # No Fraction leaves the engine: every coefficient rref and quotient
    # return, every table entry and every Bs projection entry is an int.
    returned = {"rref": [], "quotient": []}

    def record(name):
        original = getattr(linalg, name)

        def wrapper(*args):
            returned[name].append(original(*args))
            return returned[name][-1]

        monkeypatch.setattr(linalg, name, wrapper)

    record("rref")
    record("quotient")
    alg = build_free_jordan(d1, d2, n)
    tag = build_tag(alg, n)
    assert all(type(scale) is int for _, _, scale in returned["quotient"])
    assert all(type(comp.scale) is int for comp in tag.bs.values())
    for name, vecs in [
        ("rref", [row for rows, _ in returned["rref"] for row in rows]),
        ("quotient", [vec for _, projection, _ in returned["quotient"] for vec in projection]),
        ("table", [vec for tab in alg.tables.values() for row in tab for vec in row]),
        ("bs", [vec for comp in tag.bs.values() for vec in comp.projection]),
    ]:
        assert any(vecs), name
        assert all(type(c) is int for vec in vecs for _, c in vec), name


@pytest.mark.parametrize("seed,nrows,ncols,density", SHAPES)
def test_rank_mod_p_on_random_rows(seed, nrows, ncols, density):
    # Rows with repeats, negations, zero rows and entries above 2**64.
    rows = random_sparse_rows(random.Random(seed), nrows, ncols, density)
    assert len(linalg.pivots_mod_p(rows)) <= linalg.rank(rows)


def test_rank_mod_p_never_exceeds_rank_over_q():
    # Each matrix gets a planted minor divisible by p: a row that is an
    # int combination of the others plus p times a random row (rank mod p
    # may drop by one), and a row of a fresh matrix times p**2 (dividing
    # by the row's gcd keeps it).  The engine may fall short of Q, never
    # above it.
    rng = random.Random(13)
    p = linalg.PRIME
    short = 0
    for _ in range(200):
        ncols = rng.randint(3, 12)
        rows = [tuple((k, rng.randint(-20, 20)) for k in range(ncols)) for _ in range(rng.randint(1, ncols - 1))]
        coeffs = [rng.randint(-3, 3) for _ in rows]
        combo = [sum(f * row[k][1] for f, row in zip(coeffs, rows)) for k in range(ncols)]
        rows.append(tuple((k, c + p * rng.randint(-2, 2)) for k, c in enumerate(combo)))
        rows.append(tuple((k, p * p * rng.randint(-5, 5)) for k in range(ncols)))
        rows = [tuple((k, c) for k, c in row if c) for row in rows]
        q, mod_p = linalg.rank(rows), len(linalg.pivots_mod_p(rows))
        assert mod_p <= q
        short += mod_p < q
    assert short > 100  # the planted minors do bite (141 of 200)


def test_rank_mod_p_worked_case():
    # 13 divides the determinant of [[2, 3], [1, 8]] = 13, so the rank mod
    # 13 is 1; a row 26 * (1, 2) is divided by its gcd first, so it counts.
    assert linalg.rank([((0, 2), (1, 3)), ((0, 1), (1, 8))]) == 2
    assert len(linalg.pivots_mod_p([((0, 2), (1, 3)), ((0, 1), (1, 8))])) == 1
    assert len(linalg.pivots_mod_p([((0, 26), (1, 52))])) == 1
    assert len(linalg.pivots_mod_p([(), ((2, 0),)])) == 0


def test_pivots_mod_p_are_top_columns_in_input_order():
    # a = x0 + x2 and b = x0 + x1 are pivots at their top columns 2 and 1;
    # c = x1 + x2 reduces by a to x1 - x0, by b to -2 x0, a pivot at 0.
    a, b, c = ((0, 1), (2, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1))
    assert linalg.pivots_mod_p([a, b, c]) == [2, 1, 0]
    # Another order lists the same set in its own order.
    assert linalg.pivots_mod_p([b, c, a]) == [1, 2, 0]
    # A row in the span of the rows ahead of it gives no pivot.
    assert linalg.pivots_mod_p([a, b, ((0, 2), (1, 1), (2, 1))]) == [2, 1]
    # The top column, not the lowest: x1 + x3 and x1 + 2 x2 give 3 and 2.
    assert linalg.pivots_mod_p([((1, 1), (3, 1)), ((1, 1), (2, 2))]) == [3, 2]
