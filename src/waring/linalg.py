"""Exact linear algebra: rational matrices, matrices over Q(eps), Vandermonde.

Every matrix over Q is eliminated fraction-free on Python ints, in one
forward pass (``_int_echelon``, after Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968): each
row is scaled to integers, and each step updates only the rows below the
pivot and the columns right of it, dividing exactly by the previous pivot.
``rat_rank`` reads the pivot count; ``rat_solve``, ``rat_nullspace`` and
``rat_inverse`` back-substitute on integers (``_back_substitute``), d times
the solution, d the last pivot, so only the Fractions returned are built.
``EpsMatrix.inverse`` runs the Gauss-Jordan form of Bareiss over Z[eps],
on dense integer lists of eps-coefficients: each row is cleared to Z[eps]
over its own denominator (``poly._int_eps_row``), and exact division by the
previous pivot keeps every entry a polynomial (a minor).  Over the field Q(eps)
instead, every update would reduce an EpsScalar by a gcd.  Vandermonde
systems are solved through the Lagrange basis in O(n^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .epsilon import EpsPoly, EpsScalar
from .errors import PoleAtZero, SingularMatrixError
from .poly import _eps_of, _int_eps_row


def _int_echelon(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], List[int], int]:
    """Forward fraction-free elimination of a matrix of ints and Fractions.

    Returns (m, pivots, d): pivots are the pivot columns, d is the last
    pivot (1 at rank 0), and row k of the integer matrix m is the k-th
    echelon row from column pivots[k] on; entries left of that are stale.
    Each row is first scaled by the lcm of its denominators, which changes
    neither the row space nor the pivots.  A step with pivot a replaces each
    row r below it by (a*r - c*pivot_row) // prev, right of the pivot
    column, with c the entry of r in that column and prev the previous
    pivot; every entry is then a minor of the scaled matrix (Sylvester's
    identity), so the division is exact.  Pivot columns and row swaps are
    those of Gauss-Jordan.  Raises ValueError on rows of unequal length and
    TypeError on an entry that is not an int or a Fraction.
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
        a, live = m[row][col], m[row][col + 1:]
        for mi in m[row + 1:]:
            c = mi[col]
            mi[col + 1:] = [(a * x - c * y) // prev for x, y in zip(mi[col + 1:], live)]
        pivots.append(col)
        prev = a
    return m, pivots, prev


def _back_substitute(m: List[List[int]], pivots: List[int], d: int, col: int) -> Dict[int, int]:
    """d times the solution of the echelon system whose right-hand side is
    column col of m, with every free unknown 0, keyed by pivot column.

    X_pc = (d*b_r - sum_j a_rj*X_j) / a_r,pc over the later pivot columns
    j; by Cramer's rule every X is an integer, so each division is exact.
    """
    X: Dict[int, int] = {}
    for r in range(len(pivots) - 1, -1, -1):
        row = m[r]
        t = d * row[col]
        for j in pivots[r + 1:]:
            t -= row[j] * X[j]
        X[pivots[r]] = t // row[pivots[r]]
    return X


def rat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_int_echelon(rows)[1])


def rat_nullspace(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the right kernel, one vector per free column: the free
    unknown 1, the other free unknowns 0."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d = _int_echelon(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for pc, x in _back_substitute(m, pivots, d, fc).items():
                v[pc] = Fraction(-x, d)
            basis.append(v)
    return basis


def rat_solve(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> List[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    The solution returned has every free unknown (a column of A without a
    pivot) 0; it is the unique solution when A has full column rank.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots, d = _int_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    X = _back_substitute(m, pivots, d, ncols)
    return [Fraction(X.get(j, 0), d) for j in range(ncols)]


def rat_inverse(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots, d = _int_echelon(
        [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular over Q")
    cols = [_back_substitute(m, pivots, d, n + j) for j in range(n)]
    return [[Fraction(X[i], d) for X in cols] for i in range(n)]


def _ff_update(a: List[int], x: List[int], c: List[int], y: List[int],
               prev: List[int]) -> List[int]:
    """(a*x - c*y) / prev on dense integer eps-lists, where the division is
    known to be exact; the result has no trailing zeros ([] for 0)."""
    if len(prev) == len(a) == 1 and len(c) < 2 and len(x) < 2 and len(y) < 2:
        t = a[0] * (x[0] if x else 0) - (c[0] * y[0] if c and y else 0)
        return [t // prev[0]] if t else []
    out = [0] * (max(len(a) + len(x), len(c) + len(y)) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(x):
            out[i + j] += u * v
    for i, u in enumerate(c):
        for j, v in enumerate(y):
            out[i + j] -= u * v
    while out and not out[-1]:
        out.pop()
    if len(prev) == 1:
        return [t // prev[0] for t in out]
    # long division from the top; every quotient coefficient is an integer
    dl, lc = len(prev) - 1, prev[-1]
    q = [0] * max(len(out) - dl, 0)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = out[k + dl] // lc
        if t:
            for j, v in enumerate(prev):
                out[k + j] -= t * v
    return q


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
        """Fraction-free Gauss-Jordan on [G | I] over Z[eps].

        Row i is multiplied by a polynomial s_i that clears its entries to
        Z[eps] (the lcm of their denominators times an integer), so the
        identity block becomes diag(s_i), and the reduced form of [S G | S]
        is still [I | G^-1].  Each step divides exactly by the previous
        pivot, as in ``_int_echelon``, so the matrix ends as d times that
        reduced form, d the last pivot.  When d is a constant every entry of
        G^-1 is a polynomial and is built canonical as it stands; otherwise
        the EpsScalar constructor reduces it.
        """
        n = self.dim
        m = []
        for i, row in enumerate(self.rows):
            ints, s = _int_eps_row(row)
            m.append(ints + [s if j == i else [] for j in range(n)])
        prev = [1]
        for col in range(n):
            for k in range(col, n):
                if m[k][col]:
                    break
            else:
                raise SingularMatrixError("matrix is singular over Q(eps)")
            m[col], m[k] = m[k], m[col]
            prow = m[col]
            a = prow[col]
            for i, mi in enumerate(m):
                if i != col:
                    c = mi[col]
                    m[i] = [_ff_update(a, x, c, y, prev) for x, y in zip(mi, prow)]
            prev = a
        if len(prev) == 1:
            return EpsMatrix([[_eps_of(x, prev[0]) for x in r[n:]] for r in m])
        den = EpsPoly(dict(enumerate(prev)))
        return EpsMatrix([[EpsScalar(EpsPoly(dict(enumerate(x))), den) for x in r[n:]]
                          for r in m])

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

