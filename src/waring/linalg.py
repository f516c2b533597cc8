"""Exact linear algebra: rational matrices, matrices over Q(eps), Vandermonde.

Every matrix over Q is eliminated fraction-free on Python ints, in one
routine (``_int_rref``, after Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968): each row is
scaled to integers, every Gauss-Jordan update is divided exactly by the
previous pivot, and the pivot is divided out only when a caller needs the
Fractions (``rat_rank`` builds none, ``rat_solve`` one per pivot unknown).
Matrices over Q(eps) keep plain Gauss-Jordan over the field (``eps_rref``):
on the Q(eps) matrices of the shipped families, fraction-free elimination
over Q[eps] took about twice as long.  Vandermonde systems are solved
through the Lagrange basis in O(n^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .epsilon import EpsScalar
from .errors import PoleAtZero, SingularMatrixError


def _int_rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free Gauss-Jordan on a matrix of ints and Fractions.

    Returns (m, pivots, d): the integer matrix m is d times the reduced row
    echelon form, d is the last pivot (1 at rank 0), and pivots are the
    pivot columns.  Each row is first scaled by the lcm of its denominators,
    which changes neither the row space nor the echelon form.  A step with
    pivot a replaces every other row r by (a*r - c*pivot_row) // prev, with
    c the entry of r in the pivot column and prev the previous pivot; every
    entry is then a minor of the scaled matrix (Sylvester's identity), so
    the division is exact, and every pivot entry equals the current pivot.
    Raises ValueError on rows of unequal length and TypeError on an entry
    that is not an int or a Fraction.
    """
    ncols = len(rows[0]) if rows else 0
    m: List[List[int]] = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("matrix rows have unequal lengths")
        for x in r:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} is not rational")
        den = lcm(*(x.denominator for x in r))
        m.append([x.numerator * (den // x.denominator) for x in r])
    nrows = len(m)
    pivots: List[int] = []
    prev = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        for k in range(row, nrows):
            if m[k][col]:
                break
        else:
            continue
        m[row], m[k] = m[k], m[row]
        prow = m[row]
        a = prow[col]
        for i, mi in enumerate(m):
            if i != row:
                c = mi[col]
                m[i] = [(a * x - c * y) // prev for x, y in zip(mi, prow)]
        pivots.append(col)
        prev = a
    return m, pivots, prev


def rat_rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot column indices).

    Entries are ints or Fractions; every returned entry is a Fraction.
    """
    m, pivots, d = _int_rref(rows)
    return [[Fraction(x, d) for x in r] for r in m], pivots


def rat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_int_rref(rows)[1])


def rat_nullspace(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d = _int_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(v)
    return basis


def rat_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> List[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    The solution returned is the one read off the reduced echelon form of
    [A | b]: every free unknown (a column of A without a pivot) is 0.  It is
    the unique solution when A has full column rank.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d = _int_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][ncols], d)
    return x


def rat_inverse(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots, d = _int_rref(
        [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular over Q")
    return [[Fraction(x, d) for x in r[n:]] for r in m]


def eps_rref(rows: Sequence[Sequence[EpsScalar]]) -> Tuple[List[List[EpsScalar]], List[int]]:
    """Reduced row echelon form over Q(eps) by Gauss-Jordan over the field.

    Returns (rref, pivot column indices), like ``rat_rref``.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def solve_vandermonde(nodes: Sequence[Fraction], rhs: Sequence[Fraction]) -> List[Fraction]:
    """Solve sum_j c_j * nodes[j]**s = rhs[s] for s = 0..n-1, exactly.

    Uses the Lagrange basis: c_j = sum_s lambda_{j,s} rhs[s] / L_j where
    prod_{k != j} (x - t_k) = sum_s lambda_{j,s} x**s and
    L_j = prod_{k != j} (t_j - t_k).  The master polynomial
    P(x) = prod_k (x - t_k) is built once in O(n^2); each node's numerator
    is P deflated by (x - t_j) through synthetic division, and L_j is that
    quotient evaluated at t_j, both in O(n).  O(n^2) in all.  Duplicate
    nodes are rejected before any division.
    """
    n = len(nodes)
    if len(rhs) != n:
        raise ValueError("rhs length must match node count")
    if len(set(nodes)) != n:
        raise ValueError("duplicate interpolation nodes")
    # integral nodes as plain ints, so that integer nodes build no Fraction
    nodes = [t.numerator if t.denominator == 1 else t for t in nodes]
    terms = [(s, b) for s, b in enumerate(rhs) if b]
    # master polynomial, low-to-high coefficients; master[n] = 1
    master = [1]
    for t in nodes:
        new = [0] + master
        for s, c in enumerate(master):
            new[s] -= t * c
        master = new
    out: List[Fraction] = []
    for tj in nodes:
        # quotient P(x) / (x - tj), high to low: q_{s-1} = p_s + tj * q_s
        q = [0] * n
        acc = master[n]
        for s in range(n - 1, -1, -1):
            q[s] = acc
            acc = master[s] + tj * acc
        denom = 0
        for c in reversed(q):
            denom = denom * tj + c
        num = sum(q[s] * Fraction(b) for s, b in terms)
        out.append(Fraction(num) / denom)
    return out


class EpsMatrix:
    """Square matrix over Q(eps)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[object]]):
        n = len(rows)
        clean = []
        for r in rows:
            if len(r) != n:
                raise ValueError("EpsMatrix must be square")
            clean.append(tuple(self._lift(x) for x in r))
        self.rows = tuple(clean)

    @staticmethod
    def _lift(x) -> EpsScalar:
        if isinstance(x, EpsScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsScalar.from_rational(x)
        raise TypeError(f"bad matrix entry {x!r}")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def inverse(self) -> "EpsMatrix":
        """Gauss-Jordan over the field Q(eps) on [M | I]."""
        n = self.dim
        zero, one = EpsScalar.zero(), EpsScalar.one()
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        rref, pivots = eps_rref(aug)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular over Q(eps)")
        return EpsMatrix([row[n:] for row in rref])

    def at_zero(self) -> List[List[Fraction]]:
        """Entrywise limit at eps = 0; raises PoleAtZero on a pole."""
        out = []
        for i, row in enumerate(self.rows):
            orow = []
            for j, x in enumerate(row):
                try:
                    orow.append(x.limit())
                except PoleAtZero as exc:
                    raise PoleAtZero(f"matrix entry ({i},{j}) has a pole", witness=(i, j)) from exc
            out.append(orow)
        return out

    def __repr__(self) -> str:
        return "EpsMatrix([" + ", ".join(repr(list(r)) for r in self.rows) + "])"

