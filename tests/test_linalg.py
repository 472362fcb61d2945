"""Exact linear algebra: echelon forms, kernels, incremental bases, and the
Fraction inverse that the tests keep as an oracle."""

import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

import oracles
from weylmod.errors import ArgumentError
from weylmod.linalg import RowBasis, kernel, rref


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def test_rref_simple():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert reduced == [[1, 2]]
    assert pivots == [0]


def test_kernel_matches_fraction_nullspace():
    # the integer kernel of the augmented rows (column i | e_i) spans the
    # Fraction nullspace: equal reduced echelon forms, columns - rank rows
    rng = random.Random(81)
    for trial in range(200):
        height, width = rng.randint(0, 5), rng.randint(1, 6)
        m = random_matrix(rng, height, width, lo=-3, hi=3)
        if height and rng.random() < 0.3:
            # a dependent column, so kernels of every size occur
            j, k = rng.sample(range(width), 2) if width > 1 else (0, 0)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for row in m:
                row[j] = row[k] * f
        columns = [
            [(i, m[i][j]) for i in range(height) if m[i][j]] for j in range(width)
        ]
        got = kernel(columns, height)
        want = oracles.nullspace(m, width)
        assert got.dim == width - len(rref(m)[0]) == len(want), trial
        assert got.rows == rref(want)[0], trial
        # a valid integer basis: primitive rows, positive pivots, reduced
        for row, p in zip(got._rows, got.pivots):
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1 and row[p] > 0
            assert all(row[q] == 0 for q in got.pivots if q != p)
        for vec in got.rows:
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in m)


def test_invert_round_trip():
    rng = random.Random(83)
    done = 0
    while done < 10:
        m = random_matrix(rng, 3, 3)
        if len(rref(m)[0]) < 3:
            continue
        inv = oracles.invert(m)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        done += 1
    with pytest.raises(ArgumentError):
        oracles.invert([[1, 2], [2, 4]])


def test_vandermonde_inverts():
    # the oracle inverse that tensorop.interpolation_matrix is tested against
    nodes = [-1, 0, 1, 2, 3]
    v = [[Fraction(m) ** k for k in range(5)] for m in nodes]
    inv = oracles.invert(v)
    assert [[sum(map(mul, row, col)) for col in zip(*inv)] for row in v] == [
        [int(i == j) for j in range(5)] for i in range(5)
    ]


def test_row_basis_insert_and_reduce():
    basis = RowBasis(3)
    assert basis.insert([1, 2, 0])
    assert basis.insert([0, 1, 1])
    assert not basis.insert([1, 3, 1])  # dependent
    assert basis.dim == 2
    assert basis.contains([2, 5, 1])
    assert not basis.contains([0, 0, 1])
    residual = basis.reduce([0, 0, 5])
    assert residual[2] != 0


def test_row_basis_is_rref():
    rng = random.Random(87)
    for _ in range(20):
        basis = RowBasis(5)
        rows = random_matrix(rng, 4, 5)
        for row in rows:
            basis.insert(row)
        reduced, pivots = rref(rows)
        assert basis.rows == reduced
        assert basis.pivots == pivots


def random_rational_rows(rng, count, cols):
    """Sparse rational rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.3:
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            row = [sum(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * r[c]
                       for r in picks) for c in range(cols)]
        else:
            row = [
                Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 12)))
                if rng.random() < 0.6 else 0
                for _ in range(cols)
            ]
        rows.append(row)
    return rows


def test_row_basis_matches_fraction_oracle():
    # random rational matrices in random insertion orders: the integer basis
    # must keep the span, echelon form and membership of the Fraction basis
    rng = random.Random(89)
    for trial in range(300):
        cols = rng.randint(1, 9)
        rows = random_rational_rows(rng, rng.randint(1, 10), cols)
        rng.shuffle(rows)
        basis = RowBasis(cols)
        oracle = oracles.RowBasis(cols)
        for row in rows:
            assert basis.insert(row) == oracle.insert(row)
        reduced, pivots = rref(rows)
        assert basis.rows == oracle.rows == reduced, trial
        assert basis.pivots == oracle.pivots == pivots
        assert basis.dim == oracle.dim == len(reduced)
        # stored rows: primitive integers, positive pivot, zero at other pivots
        for row, p in zip(basis._rows, basis.pivots):
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1 and row[p] > 0
            assert all(row[q] == 0 for q in basis.pivots if q != p)
        probes = random_rational_rows(rng, 4, cols) + rows[:2]
        probes.append([x * 7 for x in rows[-1]])
        for vec in probes:
            assert basis.contains(vec) == oracle.contains(vec)
            got = basis.reduce(vec)
            want = oracle.reduce(vec)
            if not any(want):
                assert not any(got)
                continue
            lead = next(c for c, x in enumerate(want) if x)
            scale = Fraction(got[lead]) / want[lead]
            assert scale != 0
            assert got == [scale * x for x in want]


def test_row_basis_reduce_stays_integral():
    basis = RowBasis(3)
    basis.insert([Fraction(1, 2), Fraction(1, 3), 0])
    basis.insert([0, 2, 4])
    residual = basis.reduce([3, 1, 1])
    assert all(type(x) is int for x in residual) and any(residual)
    assert basis.rows == [[1, 0, Fraction(-4, 3)], [0, 1, 2]]



def test_one_row_contains_is_membership():
    # a one-row basis answers contains by the 2x2 minors through its pivot,
    # with no residual: the answer is reduce's, on int and Fraction vectors,
    # the zero vector, multiples of the row, and vectors that are zero at
    # the pivot
    rng = random.Random(61)
    for trial in range(300):
        ncols = rng.randint(1, 6)
        row = [rng.randint(-3, 3) for _ in range(ncols)]
        if not any(row):
            continue
        basis = RowBasis(ncols)
        basis.insert(row)
        (p,) = basis.pivots
        scale = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        vectors = [
            [0] * ncols,
            row,
            [scale * x for x in row],
            [rng.randint(-3, 3) for _ in range(ncols)],
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)],
        ]
        off = [rng.randint(-3, 3) for _ in range(ncols)]
        off[p] = 0
        vectors.append(off)
        nudged = list(row)
        nudged[rng.randrange(ncols)] += 1
        vectors.append(nudged)
        for vec in vectors:
            assert basis.contains(vec) == (not any(basis.reduce(vec))), (row, vec)
        assert basis.contains([0] * ncols) and basis.contains(row)
        assert basis.contains(off) == (not any(off))
