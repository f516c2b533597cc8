"""Perturbed diagonalization of border decompositions.

Given a normalized border certificate, an echelon pass over the valuation
ring of Q(eps) (rational functions regular at eps = 0) selects pivot summands
of minimal reduced valuation.  Inverting the matrix whose rows are the
rescaled reduced pivots yields one change of variables A, a unit at eps = 0,
after which the transformed summands have a staircase shape:

* pivot row k (0-based) equals eps**q_k * x_k plus terms in x_j (j < k) whose
  eps-orders lie in [q_j, q_k); nothing sits above eps**q_k;
* non-pivot rows use pivot variables only, with the x_j coefficient of
  valuation >= q_j;
* 0 = q_0 <= q_1 <= ... and the limit matrix A(0) is invertible.

The staircase is asserted coefficient by coefficient, A is checked to be a
unit at eps = 0, and a local input is checked to stay based at x0.  The
transformed certificate is not re-expanded: A is regular at eps = 0, so the
transformed expansion is the input one composed with A and its limit is
f(A(0) x) by construction (the tests assert it on every corpus).

The reduction loop needs one non-obvious ingredient to terminate: a candidate
lying in the ring-span of the pivots can have its tail chased forever (reduce
x against (1-eps)x and the valuation climbs one step at a time).  Once a
candidate's reduced valuation exceeds every pivot valuation, membership in
the Q(eps)-span of the pivots certifies membership in the ring-span (in the
pivot basis all its coordinates then have positive valuation), so it is
declared zero.  That check is exact linear algebra over Q(eps) against a
fraction-free echelon form of the pivot vectors over Z[eps], kept as pivots
are found: a check reduces only the candidate, by Bareiss steps
(``linalg._ff_update``), and each new pivot is folded in as it is added.

The search runs on integers, on the rows the certificate holds: a
normalized form is dense integer eps-lists over one positive integer.
Valuations and leads are read off the lists (``epsilon._lowest``), and the
lead solve is one fraction-free elimination of the integer leads with
integer back substitution.  G is the pivots' lists over the lcm of their
integer denominators, completed when short by the standard vectors that one
echelon of the leads picks (``linalg._basis_completion``), and its inverse A
stays a matrix of integer eps-lists over one denominator
(``linalg.EpsMatrix``).

The pivot search stops once it has nvars pivots.  One more pivot could not
be framed into an nvars x nvars basis, so a further reduction step could
only certify the remaining candidates zero; skipping it saves a reduction
per candidate, and ``staircase_check`` still asserts every non-pivot row in
the new coordinates.  Each summand, weight and form, is one cleared row
and moves to the new coordinates as a row: ``poly._substitute_row``
multiplies its form by A's lists; its weight is carried unchanged.
``staircase_check`` and ``derivative_decomposition`` read those rows; the
one scalar arithmetic left here is the derivative certificate's weight,
w * (d)_order * c**order, cleared into its row; the families benchmark
counts its scalars.

When G is S times the identity, every reduced pivot, shifted by its
valuation and rescaled, is already a standard vector and the padding is the
rest of them in order, so A = A(0) = I.  Nothing then moves: no inverse is
taken, the rows are the normalized ones in pivot order, the limit is f and
the local check reuses the input's grouping.  The staircase is still
asserted.  Tangent and osculating certificates take this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .decomp import BorderDecomposition, _group_by_base, normalize_border
from .epsilon import _eps_of, _int_eps_row, _lowest
from .errors import (
    InvariantError,
    NoPivotError,
    PoleAtZero,
    SingularMatrixError,
    ZeroDerivativeError,
)
from .linalg import EpsMatrix, _back_substitute, _basis_completion, _ff_update, _int_echelon
from .linalg import rat_inverse
from .poly import HomoPoly, _substitute_row, falling_factorial

_REDUCE_CAP = 10_000


@dataclass(frozen=True)
class Pivot:
    """One selected pivot: which summand, at which valuation, reduced to
    lists / den (dense integer eps-lists over one positive integer)."""

    original_index: int
    valuation: int
    lists: List[List[int]]
    den: int

    @cached_property
    def lead(self) -> List[int]:
        """den times the eps**valuation coefficients of the reduced vector,
        computed on the first read and kept."""
        return _lowest(self.lists)[1]


@dataclass(frozen=True)
class DiagonalizedDecomposition:
    """A border decomposition in staircase coordinates.

    ``decomposition`` holds the transformed, permuted summands; ``transform``
    is the change of variables A over Q(eps) applied to every form;
    ``base_change``/``base_change_inv`` are its exact value and inverse at
    eps = 0; ``pivots`` lists (variable index, valuation) pairs; ``perm``
    maps new summand positions to original indices; ``limit`` is the target
    in the new coordinates, f(A(0) x).
    """

    decomposition: BorderDecomposition
    transform: EpsMatrix
    base_change: Tuple[Tuple[Fraction, ...], ...]
    base_change_inv: Tuple[Tuple[Fraction, ...], ...]
    pivots: Tuple[Tuple[int, int], ...]
    perm: Tuple[int, ...]
    limit: HomoPoly

    @property
    def p(self) -> int:
        return len(self.pivots)


class _Pivots(list):
    """Pivots in selection order, with their rows in echelon form over Z[eps].

    ``_rows`` is a fraction-free row echelon form of the pivots' lists:
    each row is a pivot's lists reduced through the rows before it by
    Bareiss steps, with the column of its first nonzero entry.  ``append``
    folds each pivot in as it is added.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        super().__init__()
        self._rows: List[Tuple[int, List[List[int]]]] = []

    def append(self, pv: Pivot) -> None:
        super().append(pv)
        r = self._residual(pv.lists)
        col = next((j for j, x in enumerate(r) if x), None)
        if col is not None:
            self._rows.append((col, r))

    def _residual(self, v: List[List[int]]) -> List[List[int]]:
        # one Bareiss step per row: exact, as v is one more row of the matrix
        prev = [1]
        for col, row in self._rows:
            a = row[col]
            v = [_ff_update(a, x, v[col], y, prev) for x, y in zip(v, row)]
            prev = a
        return v

    def spans(self, v: List[List[int]]) -> bool:
        """rank(pivot lists + [v]) == number of pivots, over Q(eps)."""
        return len(self._rows) + any(self._residual(v)) == len(self)


def _reduce_vector(
    row: Tuple[List[List[int]], int], pivots: _Pivots
) -> Optional[Tuple[int, List[List[int]], int]]:
    """Reduce against the pivots; None means certified zero in the ring-span.

    row is (lists, den), the vector lists / den over Q[eps].  Returns
    (valuation, lists, den) of the reduced vector, the row itself when no
    reduction step was taken.  Only full leading-coefficient cancellations
    are performed (partial in-span components of a lead are left in place);
    this is exactly what makes the final change of variables produce a
    clean staircase with nothing above the pivot order.  The lead solve
    runs on the integer leads: with X / d its solution, v / den becomes
    (d*v - sum_p X_p eps**(val - q_p) v_p) / (d*den), over the pivots' own
    lists v_p.
    """
    v, den = row
    qmax = max((pv.valuation for pv in pivots), default=None)
    in_span: Optional[bool] = None
    for _ in range(_REDUCE_CAP):
        if not any(v):
            return None
        val, lead = _lowest(v)
        if qmax is not None and val > qmax:
            if in_span is None:
                # v - row lies in the span of the pivots
                in_span = pivots.spans(row[0])
            if in_span:
                return None
        eligible = [pv for pv in pivots if pv.valuation <= val]
        if not eligible:
            return val, v, den
        k = len(eligible)
        leads = [pv.lead for pv in eligible]
        m, cols, d = _int_echelon([[pl[i] for pl in leads] + [c] for i, c in enumerate(lead)])
        if k in cols:
            return val, v, den
        X = _back_substitute(m, cols, d, k)
        if d < 0:
            d, X = -d, {j: -x for j, x in X.items()}
        a = [d]
        for j, x in X.items():
            if x:
                pv = eligible[j]
                c = [0] * (val - pv.valuation) + [x]
                v = [_ff_update(a, vi, c, y, [1]) for vi, y in zip(v, pv.lists)]
                a = [1]
        den *= d
        g = gcd(den, *(c for x in v for c in x))
        if g > 1:
            den //= g
            v = [[c // g for c in x] for x in v]
    raise InvariantError("echelon reduction did not terminate")


def _select_pivot(
    rows: Sequence[Tuple[List[List[int]], int]], pivots: _Pivots
) -> Tuple[int, int, List[List[int]], int]:
    """Reduce every row and select the next pivot.

    Returns (index into rows, valuation, lists, den) of the reduced row,
    choosing the minimal reduced valuation and breaking ties by smallest
    index.  Raises NoPivotError when every row reduces to zero.
    """
    best: Optional[Tuple[int, int, List[List[int]], int]] = None
    for idx, row in enumerate(rows):
        res = _reduce_vector(row, pivots)
        if res is not None and (best is None or res[0] < best[1]):
            best = (idx,) + res
    if best is None:
        raise NoPivotError("all candidates reduce to zero")
    return best


def diagonalize(B: BorderDecomposition, f: HomoPoly) -> DiagonalizedDecomposition:
    """Echelon-reduce and change variables into the staircase shape.

    The input is normalized first (idempotent), so callers may pass any
    certificate that verifies against f.  A frame G = S*I is the identity
    change of variables, returned without inverting G or A(0), moving a row
    or substituting f.  All structural postconditions are asserted; a
    failure raises InvariantError rather than returning a malformed object.
    """
    if B.rank() == 0:
        raise ValueError("cannot diagonalize an empty decomposition")
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    Bn = normalize_border(B)
    n = Bn.nvars
    groups = _group_by_base(Bn)
    local = len(groups) == 1

    # normalized rows are over a positive integer: (lists, den[0])
    rows = [(lists, den[0]) for _, _, lists, den in Bn.cleared]
    pivots = _Pivots()
    remaining = list(range(len(rows)))
    while remaining and len(pivots) < n:
        try:
            j, val, lists, den = _select_pivot([rows[i] for i in remaining], pivots)
        except NoPivotError:
            break
        pivots.append(Pivot(remaining.pop(j), val, lists, den))
    if not pivots:
        raise NoPivotError("no pivot found; decomposition expands to zero")

    # rows of G: rescaled reduced pivots over the lcm S of their dens, padded
    # with the standard vectors that complete the leads to a basis at eps = 0
    S = lcm(*(pv.den for pv in pivots))
    grows = [[[c * (S // pv.den) for c in x[pv.valuation:]] for x in pv.lists] for pv in pivots]
    if len(grows) < n:
        try:
            pad = _basis_completion([pv.lead for pv in pivots], n)
        except ValueError as exc:
            raise InvariantError("could not complete the pivot frame to a basis") from exc
        grows += [[[S] if i == j else [] for i in range(n)] for j in pad]

    G = [x for r in grows for x in r]
    order = [pv.original_index for pv in pivots] + remaining
    moved = G != [[S] if i == j else [] for i in range(n) for j in range(n)]
    if moved:
        A = EpsMatrix(G, [S]).inverse()
        try:
            A0 = A.at_zero()
            A0_inv = rat_inverse(A0)
        except (PoleAtZero, SingularMatrixError) as exc:
            raise InvariantError("change of variables is not a unit at eps = 0") from exc
        summands = [(*Bn.cleared[i][:2], *_substitute_row(*Bn.cleared[i][2:], A.lists, A.den))
                    for i in order]
        limit = f.substitute_linear(A0)
    else:
        # G = S*I, so A = A(0) = I: the normalized rows are the staircase
        A, A0 = EpsMatrix(G, [S]), [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        A0_inv, summands, limit = A0, [Bn.cleared[i] for i in order], f
    D = DiagonalizedDecomposition(
        decomposition=BorderDecomposition._of_rows(n, Bn.degree, summands),
        transform=A,
        base_change=tuple(tuple(r) for r in A0),
        base_change_inv=tuple(tuple(r) for r in A0_inv),
        pivots=tuple((k, pv.valuation) for k, pv in enumerate(pivots)),
        perm=tuple(order),
        limit=limit,
    )
    staircase_check(D)
    if local and list(_group_by_base(D.decomposition) if moved else groups) != [
            (1,) + (0,) * (n - 1)]:
        raise InvariantError("local input did not stay based at x0")
    return D


def staircase_check(D: DiagonalizedDecomposition) -> None:
    """Assert the full staircase structure; raises InvariantError on failure."""
    p = D.p
    qs = [q for _, q in D.pivots]
    if p == 0:
        raise InvariantError("no pivots")
    if qs[0] != 0:
        raise InvariantError(f"first pivot valuation is {qs[0]}, expected 0")
    if any(a > b for a, b in zip(qs, qs[1:])):
        raise InvariantError(f"pivot valuations not monotone: {qs}")
    if [k for k, _ in D.pivots] != list(range(p)):
        raise InvariantError("pivot variables are not the leading coordinates")
    for row, (_, _, lists, den) in enumerate(D.decomposition.cleared):
        if row < p:
            # a row over Q[eps] is cleared over a constant: den == [c]
            q = qs[row]
            if len(den) > 1:
                raise InvariantError(f"pivot row {row} is not in Q[eps]")
            for j, x in enumerate(lists):
                if j > row:
                    if x:
                        raise InvariantError(
                            f"pivot row {row} uses variable {j} beyond its pivot"
                        )
                elif j == row:
                    if x != [0] * q + den:
                        raise InvariantError(
                            f"pivot row {row} has x_{row} coefficient {_eps_of(x, den)!r}, "
                            f"expected eps^{q}"
                        )
                else:
                    for e, a in enumerate(x):
                        if a and not qs[j] <= e < q:
                            raise InvariantError(
                                f"pivot row {row}: x_{j} appears at eps-order {e}, "
                                f"outside [{qs[j]}, {q})"
                            )
        else:
            vden = _lowest([den])[0]
            for j, x in enumerate(lists):
                if not x:
                    continue
                if j >= p:
                    raise InvariantError(f"non-pivot row {row} uses non-pivot variable {j}")
                v = _lowest([x])[0] - vden
                if v < qs[j]:
                    raise InvariantError(
                        f"non-pivot row {row}: x_{j} coefficient has valuation "
                        f"{v} < {qs[j]}"
                    )


def derivative_decomposition(
    D: DiagonalizedDecomposition, var: int, order: int
) -> BorderDecomposition:
    """Certificate for the order-th partial of the limit in a pivot variable.

    Differentiating each summand w * L**d gives w * (d)_order * c**order *
    L**(d-order) with c the x_var coefficient of L, so the new weights carry
    the falling factorial and the limit of the result is exactly
    d^order f / d x_var^order.  Summands with c = 0 drop out; by the
    staircase that excludes every pivot row before var, so at most
    rank - var summands remain.  Summands whose whole contribution has
    valuation >= 1 are pruned; they cannot reach the limit.
    """
    d = D.decomposition.degree
    if not 1 <= order <= d - 1:
        raise ValueError("derivative order must be between 1 and degree-1")
    if not 0 <= var < D.decomposition.nvars:
        raise ValueError(f"variable index {var} out of range")
    if all(m[var] < order for m, _ in D.limit.items()):
        # the derivative vanishes, as at every non-pivot variable: the limit involves pivots only
        raise ZeroDerivativeError(f"d^{order}/dx_{var}^{order} of the limit vanishes")
    if var >= D.p:
        raise InvariantError("nonzero derivative in a non-pivot variable")
    scale = falling_factorial(d, order)
    kept = []
    for wl, wden, lists, den in D.decomposition.cleared:
        x = lists[var]
        if not x:
            continue
        w2 = _eps_of(wl, wden) * scale * _eps_of(x, den) ** order
        # valuation of the whole contribution w2 * form**(d-order): the
        # expansion of a linear-form power has one product per monomial, so
        # its minimal valuation is (d-order) * min coefficient valuation
        contrib = w2.valuation() + (d - order) * (_lowest(lists)[0] - _lowest([den])[0])
        if contrib >= 1:
            continue
        (wl2,), wden2 = _int_eps_row((w2,))
        kept.append((wl2, wden2, lists, den))
    r = D.decomposition.rank()
    if len(kept) > r - var:
        raise InvariantError(
            f"derivative certificate has {len(kept)} summands, expected <= {r - var}"
        )
    return BorderDecomposition._of_rows(D.decomposition.nvars, d - order, kept)


__all__ = [
    "DiagonalizedDecomposition",
    "Pivot",
    "diagonalize",
    "staircase_check",
    "derivative_decomposition",
]
