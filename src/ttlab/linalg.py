"""Exact linear algebra over the rationals.

Matrices are lists of lists of ints or Fractions.  One elimination
engine, `Echelon`, serves every rank, span, kernel and solve question:
an incremental row-echelon basis kept as primitive integer rows, so
reduction is fraction-free (in the spirit of Bareiss, Math. Comp. 1968)
and only back-substitution touches Fractions.  `feasible_nonneg` (a
simplex) and `rank_gf2` (bitmask rows) are separate.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


class Echelon:
    """Row space of a growing set of rational vectors, in echelon form.

    `rows` maps each pivot column to one primitive integer row whose
    leading (pivot) entry is positive and sits in that column.
    """

    def __init__(self, vectors=()):
        self.rows = {}
        self.pivots = []  # the keys of rows, ascending
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec):
        """Reduce vec against the stored rows and keep a nonzero remainder.

        Returns True exactly when vec is independent of the rows so far.
        """
        den = lcm(*(x.denominator for x in vec))
        row = [x.numerator * (den // x.denominator) for x in vec]
        for c in self.pivots:
            b = row[c]
            if b:
                pivot_row = self.rows[c]
                a = pivot_row[c]
                g = gcd(a, b)
                a, b = a // g, b // g
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                if a != 1:
                    g = gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return False
        g = gcd(*row) if row[lead] > 0 else -gcd(*row)
        self.rows[lead] = [x // g for x in row]
        insort(self.pivots, lead)
        return True

    def back_substitute(self, x, rhs=None):
        """Set the pivot entries of x so that each stored row r satisfies
        r[:len(x)] . x == r[len(x) + rhs], or 0 when rhs is None.

        The other entries of x are kept; pivots must lie below len(x).
        """
        width = len(x)
        for pc in reversed(self.pivots):
            row = self.rows[pc]
            s = row[width + rhs] if rhs is not None else 0
            for j in range(pc + 1, width):
                if x[j] and row[j]:
                    s -= row[j] * x[j]
            x[pc] = Fraction(s) / row[pc]
        return x


def rank(matrix):
    """Rank of a matrix (list of rows) over the rationals."""
    return Echelon(matrix).rank


def nullspace(matrix, ncols=None):
    """Basis of the right kernel, as a list of length-ncols vectors.

    Vector k has a 1 in the k-th free (non-pivot) column and 0 in the
    other free columns.  `ncols` must be given when `matrix` has no rows.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(matrix[0])
    echelon = Echelon(matrix)
    basis = []
    for fc in range(ncols):
        if fc not in echelon.rows:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            basis.append(echelon.back_substitute(vec))
    return basis


def rank_of_stack(*blocks):
    """Rank of the matrix whose columns are the concatenated column lists.

    Each block is a list of column vectors (all the same length).  Handy
    for span computations: rank_of_stack(A) and rank_of_stack(A, B)
    """
    return rank([col for block in blocks for col in block])


def span_dimension_mod(vectors, relations):
    """Dimension of span(vectors) inside V / span(relations).

    Both arguments are lists of coordinate vectors of equal length.
    """
    echelon = Echelon(relations)
    return sum(echelon.add(vec) for vec in vectors)


def solve_square(matrix, rhs_columns):
    """Solve M X = B for an invertible square M; returns X's columns.

    `rhs_columns` is a list of right-hand-side column vectors.
    Raises ValueError if M is singular.
    """
    n = len(matrix)
    echelon = Echelon(
        list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)
    )
    if echelon.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [echelon.back_substitute([Fraction(0)] * n, c)
            for c in range(len(rhs_columns))]


def feasible_nonneg(matrix, rhs, ncols=None):
    """A nonnegative solution x of A x = b, or None when none exists.

    Phase-one simplex with Bland's rule throughout, so it terminates on
    every input and, being exact, never misjudges feasibility by
    rounding.  `ncols` is only needed when the system has no rows.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [Fraction(0)] * ncols
    n = len(matrix[0])
    m = len(matrix)
    # tableau columns: the n unknowns, m artificials, right-hand side
    tab = []
    basis = []
    for i in range(m):
        row = [Fraction(x) for x in matrix[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-x for x in row]
            b = -b
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tab.append(row)
        basis.append(n + i)
    # reduced-cost row for minimizing the artificial sum; the last entry
    # tracks the negated objective value
    obj = [Fraction(0)] * (n + m + 1)
    for row in tab:
        for j, v in enumerate(row):
            obj[j] -= v
    for i in range(m):
        obj[n + i] = Fraction(0)
    while True:
        enter = None
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        assert leave is not None, "phase-one objective is bounded below"
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        pivot_row = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_row)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, pivot_row)]
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
        else:
            assert tab[i][-1] == 0, "artificial stuck at a nonzero value"
    return x


def rank_gf2(matrix):
    """Rank over GF(2) of an integer matrix given as a list of rows."""
    if not matrix:
        return 0
    ncols = len(matrix[0])
    rows = []
    for row in matrix:
        packed = 0
        for x in row:
            packed = (packed << 1) | (x & 1)
        rows.append(packed)
    rank_ = 0
    for bit in range(ncols):
        mask = 1 << (ncols - 1 - bit)
        pivot = None
        for i in range(rank_, len(rows)):
            if rows[i] & mask:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and rows[i] & mask:
                rows[i] ^= rows[rank_]
        rank_ += 1
    return rank_
