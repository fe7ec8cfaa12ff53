"""Exact linear algebra over the rationals.

Matrices are lists of lists of ints or Fractions.  One elimination
engine, `Echelon`, serves every rank, span and kernel question: an
incremental row-echelon basis kept as primitive integer rows, so
reduction is fraction-free (in the spirit of Bareiss, Math. Comp. 1968)
and only back-substitution touches Fractions.  Mod-2 questions live
with the quadratic forms that ask them, in `spin`.
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

    def back_substitute(self, x):
        """Set the pivot entries of x so that each stored row r satisfies
        r . x == 0; the other entries of x are kept.
        """
        width = len(x)
        for pc in reversed(self.pivots):
            row = self.rows[pc]
            s = 0
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
