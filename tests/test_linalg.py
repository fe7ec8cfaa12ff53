from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ttlab import linalg
from ttlab.rng import CounterRandom


# -- reference: plain Fraction Gaussian elimination -------------------------


def _ref_echelon(rows, ncols):
    """Reduce rows in place to row echelon form, returning pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = Fraction(rows[i][c]) / rows[r][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def ref_rank(matrix):
    if not matrix:
        return 0
    return len(_ref_echelon([list(row) for row in matrix], len(matrix[0])))


def ref_nullspace(matrix, ncols=None):
    if not matrix:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(matrix[0])
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = _ref_echelon(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum(rows[r][j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc] = -s / rows[r][pc]
        basis.append(vec)
    return basis


def random_matrix(rng, rows, cols):
    """Sparse int and Fraction entries, with a zero row or column at times
    and, when possible, a row that is a combination of two others."""

    def entry():
        kind = rng.randint(0, 9)
        if kind < 4:
            return 0
        if kind < 7:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.randint(0, 3) == 0:
        m[rng.randint(0, rows - 1)] = [0] * cols
    if cols and rng.randint(0, 3) == 0:
        zero = rng.randint(0, cols - 1)
        for row in m:
            row[zero] = 0
    if rows >= 2 and rng.randint(0, 2) == 0:
        m.append([2 * a - Fraction(b, 3) for a, b in zip(m[0], m[1])])
    return m


def test_rank_and_nullspace_match_reference():
    rng = CounterRandom(11, "reference")
    for _ in range(300):
        m = random_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        assert linalg.rank(m) == ref_rank(m), m
        ncols = len(m[0]) if m else rng.randint(0, 4)
        got = linalg.nullspace(m, ncols)
        assert got == ref_nullspace(m, ncols), m
        assert all(type(x) is Fraction for vec in got for x in vec)
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.nullspace([[], []]) == []
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]


def test_echelon_add_rejects_exactly_the_dependent_vectors():
    rng = CounterRandom(12, "echelon")
    for _ in range(150):
        cols = rng.randint(0, 6)
        echelon = linalg.Echelon()
        kept = []
        for vec in random_matrix(rng, rng.randint(0, 9), cols):
            independent = ref_rank(kept + [vec]) > ref_rank(kept)
            assert echelon.add(vec) == independent, (kept, vec)
            if independent:
                kept.append(vec)
        assert echelon.rank == len(kept)
        # stored rows: primitive integers, positive leading entry in the
        # pivot column
        for c, row in echelon.rows.items():
            assert all(x == 0 for x in row[:c]) and row[c] > 0
            assert math.gcd(*row) == 1


def test_solve_square_round_trip():
    rng = CounterRandom(13, "solve")
    solved = 0
    for _ in range(200):
        n = rng.randint(0, 5)
        m = random_matrix(rng, n, n)[:n]
        cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)]
        if ref_rank(m) < n:
            with pytest.raises(ValueError):
                linalg.solve_square(m, cols)
            continue
        for col, x in zip(cols, linalg.solve_square(m, cols)):
            assert [sum(a * b for a, b in zip(row, x)) for row in m] == col
        solved += 1
    assert solved > 20


def test_rank_hand_cases():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_nullspace_annihilates():
    rng = CounterRandom(7, "nullspace")
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace(m)
        assert len(basis) == cols - linalg.rank(m)
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_square_rejects_singular():
    with pytest.raises(ValueError):
        linalg.solve_square([[1, 2], [2, 4]], [[1, 0]])


def test_span_dimension_mod():
    v = [[1, 0, 0], [0, 1, 0]]
    rel = [[1, 1, 0]]
    assert linalg.span_dimension_mod(v, rel) == 1
    assert linalg.span_dimension_mod(v, []) == 2
    assert linalg.span_dimension_mod([], v) == 0


def test_rank_gf2_matches_rational_rank_on_01_matrices():
    # over GF(2) rank can drop below the rational rank, never exceed it
    rng = CounterRandom(9, "gf2")
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert linalg.rank_gf2(m) <= linalg.rank(m)
    assert linalg.rank_gf2([[1, 1], [1, 1]]) == 1
    assert linalg.rank_gf2([[1, 0], [1, 1]]) == 2
    assert linalg.rank_gf2([[2, 4], [6, 8]]) == 0
