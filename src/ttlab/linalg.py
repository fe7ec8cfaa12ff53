"""Exact linear algebra over the rationals.

Matrices are lists of lists of ints or Fractions.  One elimination
engine, `Echelon`, serves every rank, span and kernel question: an
incremental row-echelon basis kept as primitive integer rows, so
reduction is fraction-free (in the spirit of Bareiss, Math. Comp. 1968)
and only back-substitution touches Fractions.  `feasible_nonneg`, a
phase-one simplex, is separate; it is fraction-free too, its tableau
rows integer numerators over one denominator per row, and only its
answer is made of Fractions.  Mod-2 questions live with the quadratic
forms that ask them, in `spin`.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from .errors import CrossCheckFailed


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


def feasible_nonneg(matrix, rhs, ncols=None):
    """A nonnegative solution x of A x = b, or None when none exists.

    Phase-one simplex with Bland's rule throughout, so it terminates on
    every input and, being exact, never misjudges feasibility by
    rounding.  `ncols` is only needed when the system has no rows.

    The tableau is fraction-free: each row is a list of integer
    numerators over one positive row denominator, reduced by their gcd
    after every pivot.  Every entry equals the rational a Fraction
    tableau would hold, so Bland's rule makes the same choices; ratios
    are compared by cross-multiplying.
    """
    if not matrix:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [Fraction(0)] * ncols
    n = len(matrix[0])
    m = len(matrix)
    # tableau columns: the n unknowns, m artificials, right-hand side
    tab = []
    den = []
    basis = []
    for i in range(m):
        values = list(matrix[i]) + [rhs[i]]
        d = lcm(*(x.denominator for x in values))
        row = [x.numerator * (d // x.denominator) for x in values]
        if row[-1] < 0:
            row = [-x for x in row]
        b = row.pop()
        row.extend(d if j == i else 0 for j in range(m))
        row.append(b)
        tab.append(row)
        den.append(d)
        basis.append(n + i)
    # reduced-cost row for minimizing the artificial sum; the last entry
    # tracks the negated objective value
    obj_den = lcm(*den)
    obj = [0] * (n + m + 1)
    for row, d in zip(tab, den):
        f = obj_den // d
        obj = [a - f * x for a, x in zip(obj, row)]
    for i in range(m):
        obj[n + i] = 0
    while True:
        enter = None
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        # a row's denominator cancels from its ratio rhs / entry
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][-1]
                if leave is None:
                    leave, best_b, best_a = i, b, a
                    continue
                lhs, rhs_ = b * best_a, best_b * a
                if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave is None:
            raise CrossCheckFailed("phase-one objective is unbounded below")
        # the pivot row over its (positive) pivot entry
        pivot_row = tab[leave]
        g = gcd(*pivot_row)
        pivot_row = [x // g for x in pivot_row]
        pivot_den = pivot_row[enter]
        tab[leave] = pivot_row
        den[leave] = pivot_den
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                tab[i], den[i] = _eliminate(tab[i], den[i], pivot_row,
                                            pivot_den, enter)
        obj, obj_den = _eliminate(obj, obj_den, pivot_row, pivot_den, enter)
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][-1], den[i])
        elif tab[i][-1] != 0:
            raise CrossCheckFailed("artificial stuck at a nonzero value")
    return x


def _eliminate(row, d, pivot_row, pivot_den, col):
    """row/d minus (row[col]/d) times pivot_row/pivot_den, as reduced
    integer numerators over a positive denominator."""
    f = row[col]
    new = [a * pivot_den - f * b for a, b in zip(row, pivot_row)]
    d *= pivot_den
    g = gcd(d, *new)
    return [x // g for x in new], d // g
