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
declared zero.  That check is exact linear algebra over Q(eps) against an
echelon form of the pivot vectors, kept as pivots are found: a check
reduces only the candidate, and each new pivot is folded in once.

The pivot search stops once it has nvars pivots.  One more pivot could not
be framed into an nvars x nvars basis, so a further reduction step could
only certify the remaining candidates zero; skipping it saves a reduction
per candidate, and ``staircase_check`` still asserts every non-pivot row in
the new coordinates.  The summands move to the new coordinates in one call
of ``poly.substitute_forms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .decomp import (
    BorderDecomposition,
    base_of_form,
    is_local,
    normalize_border,
    restrict_vars_zero,
)
from .epsilon import EpsPoly, EpsScalar
from .errors import (
    InvariantError,
    NoPivotError,
    PoleAtZero,
    SingularMatrixError,
    ZeroDerivativeError,
)
from .linalg import EpsMatrix, rat_inverse, rat_rank, rat_solve
from .poly import HomoPoly, LinearForm, falling_factorial, substitute_forms

_REDUCE_CAP = 10_000


@dataclass(frozen=True)
class Pivot:
    """One selected pivot: which summand, at which valuation, reduced to what."""

    original_index: int
    valuation: int
    vector: Tuple[EpsScalar, ...]
    lead: Tuple[Fraction, ...]


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


def _vec_is_zero(v: Sequence[EpsScalar]) -> bool:
    return all(c.is_zero for c in v)


def _vec_valuation(v: Sequence[EpsScalar]) -> int:
    return min(c.valuation() for c in v if not c.is_zero)


def _vec_lead(v: Sequence[EpsScalar], val: int) -> Tuple[Fraction, ...]:
    out = []
    for c in v:
        if c.is_zero:
            out.append(Fraction(0))
        else:
            if not c.is_polynomial:
                raise InvariantError("reduction vector left Q[eps]")
            out.append(c.num.coeff(val))
    return tuple(out)


class _Pivots(list):
    """Pivots in selection order, with a row echelon form over Q(eps) of
    their vectors.

    Each echelon row is 1 at its pivot column and 0 at the pivot columns of
    the rows before it, so one pass over the rows in order reduces a
    vector.  ``spans`` first folds in the pivots appended since it last ran.
    """

    __slots__ = ("_rows", "_folded")

    def __init__(self, pivots: Sequence[Pivot] = ()):
        super().__init__(pivots)
        self._rows: List[Tuple[int, List[EpsScalar]]] = []
        self._folded = 0

    def _residual(self, v: Sequence[EpsScalar]) -> List[EpsScalar]:
        v = list(v)
        for col, row in self._rows:
            c = v[col]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return v

    def spans(self, v: Sequence[EpsScalar]) -> bool:
        """rank(pivot vectors + [v]) == number of pivots, over Q(eps)."""
        for pv in self[self._folded:]:
            r = self._residual(pv.vector)
            col = next((j for j, c in enumerate(r) if c), None)
            if col is not None:
                inv = 1 / r[col]
                self._rows.append((col, [c * inv if c else c for c in r]))
        self._folded = len(self)
        return len(self._rows) + any(self._residual(v)) == len(self)


def _reduce_vector(
    vec: Tuple[EpsScalar, ...], pivots: _Pivots
) -> Optional[Tuple[int, Tuple[EpsScalar, ...]]]:
    """Reduce against the pivots; None means certified zero in the ring-span.

    Only full leading-coefficient cancellations are performed (partial in-span
    components of a lead are left in place); this is exactly what makes the
    final change of variables produce a clean staircase with nothing above the
    pivot order.
    """
    v = list(vec)
    qmax = max((p.valuation for p in pivots), default=None)
    in_span: Optional[bool] = None
    for _ in range(_REDUCE_CAP):
        if _vec_is_zero(v):
            return None
        val = _vec_valuation(v)
        if qmax is not None and val > qmax:
            if in_span is None:
                in_span = pivots.spans(v)
            if in_span:
                return None
        lead = _vec_lead(v, val)
        eligible = [p for p in pivots if p.valuation <= val]
        if not eligible:
            return val, tuple(v)
        cols = [[p.lead[i] for p in eligible] for i in range(len(v))]
        sol = rat_solve(cols, list(lead))
        if sol is None:
            return val, tuple(v)
        for c, p in zip(sol, eligible):
            if c != 0:
                mult = EpsScalar.from_poly(EpsPoly({val - p.valuation: c}))
                v = [a - mult * b for a, b in zip(v, p.vector)]
    raise InvariantError("echelon reduction did not terminate")


def dvr_reduce_step(
    candidates: Sequence[LinearForm], pivots: Sequence[Pivot]
) -> Tuple[int, int, LinearForm]:
    """Reduce every candidate and select the next pivot.

    Returns (index into candidates, valuation, reduced form), choosing the
    minimal reduced valuation and breaking ties by smallest index.  Raises
    NoPivotError when every candidate reduces to zero.  ``diagonalize``
    passes the one ``_Pivots`` it appends to, so the echelon form of the
    pivot vectors is kept from call to call; any other sequence gets its own.
    """
    if not isinstance(pivots, _Pivots):
        pivots = _Pivots(pivots)
    best: Optional[Tuple[int, int, Tuple[EpsScalar, ...]]] = None
    for idx, form in enumerate(candidates):
        res = _reduce_vector(tuple(form.coefs), pivots)
        if res is None:
            continue
        val, red = res
        if best is None or val < best[1]:
            best = (idx, val, red)
    if best is None:
        raise NoPivotError("all candidates reduce to zero")
    return best[0], best[1], LinearForm(best[2])


def diagonalize(B: BorderDecomposition, f: HomoPoly) -> DiagonalizedDecomposition:
    """Echelon-reduce and change variables into the staircase shape.

    The input is normalized first (idempotent), so callers may pass any
    certificate that verifies against f.  All structural postconditions are
    asserted; a failure raises InvariantError rather than returning a
    malformed object.
    """
    if B.rank() == 0:
        raise ValueError("cannot diagonalize an empty decomposition")
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    Bn = normalize_border(B)
    n = Bn.nvars
    local_base = is_local(Bn)

    pivots = _Pivots()
    remaining = list(range(len(Bn.summands)))
    while remaining and len(pivots) < n:
        try:
            j, val, red = dvr_reduce_step([Bn.summands[i][1] for i in remaining], pivots)
        except NoPivotError:
            break
        pivots.append(Pivot(remaining.pop(j), val, red.coefs, _vec_lead(red, val)))
    if not pivots:
        raise NoPivotError("no pivot found; decomposition expands to zero")

    p = len(pivots)
    # rows of G: rescaled reduced pivots, padded with standard vectors whose
    # eps=0 rows stay independent of the pivot leads
    grows: List[List[EpsScalar]] = []
    for pv in pivots:
        down = EpsScalar.eps(-pv.valuation)
        grows.append([c * down for c in pv.vector])
    leads = [list(pv.lead) for pv in pivots]
    for j in range(n):
        if len(grows) == n:
            break
        e = [Fraction(1 if i == j else 0) for i in range(n)]
        if rat_rank(leads + [e]) > len(leads):
            leads.append(e)
            grows.append([EpsScalar.from_rational(x) for x in e])
    if len(grows) != n:
        raise InvariantError("could not complete the pivot frame to a basis")

    G = EpsMatrix(grows)
    A = G.inverse()
    try:
        A0 = A.at_zero()
        A0_inv = rat_inverse(A0)
    except (PoleAtZero, SingularMatrixError) as exc:
        raise InvariantError("change of variables is not a unit at eps = 0") from exc

    order = [pv.original_index for pv in pivots] + remaining
    forms = substitute_forms([Bn.summands[i][1] for i in order], A.rows)
    summands = tuple((Bn.summands[i][0], g) for i, g in zip(order, forms))
    D = DiagonalizedDecomposition(
        decomposition=BorderDecomposition(n, Bn.degree, summands),
        transform=A,
        base_change=tuple(tuple(r) for r in A0),
        base_change_inv=tuple(tuple(r) for r in A0_inv),
        pivots=tuple((k, pv.valuation) for k, pv in enumerate(pivots)),
        perm=tuple(order),
        limit=f.substitute_linear(A0),
    )
    staircase_check(D)
    if local_base is not None:
        e0 = LinearForm.variable(n, 0)
        for _, form in D.decomposition.summands:
            if base_of_form(form) != e0:
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
    summands = D.decomposition.summands
    n = D.decomposition.nvars
    for row, (_, form) in enumerate(summands):
        coefs = form.coefs
        if row < p:
            q = qs[row]
            for j in range(n):
                c = coefs[j]
                if j > row:
                    if not c.is_zero:
                        raise InvariantError(
                            f"pivot row {row} uses variable {j} beyond its pivot"
                        )
                elif j == row:
                    if c != EpsScalar.eps(q):
                        raise InvariantError(
                            f"pivot row {row} has x_{row} coefficient {c!r}, expected eps^{q}"
                        )
                else:
                    if c.is_zero:
                        continue
                    if not c.is_polynomial:
                        raise InvariantError(f"pivot row {row} entry {j} not in Q[eps]")
                    for e, _coef in c.num.pairs():
                        if not qs[j] <= e < q:
                            raise InvariantError(
                                f"pivot row {row}: x_{j} appears at eps-order {e}, "
                                f"outside [{qs[j]}, {q})"
                            )
        else:
            for j in range(n):
                c = coefs[j]
                if c.is_zero:
                    continue
                if j >= p:
                    raise InvariantError(f"non-pivot row {row} uses non-pivot variable {j}")
                if c.valuation() < qs[j]:
                    raise InvariantError(
                        f"non-pivot row {row}: x_{j} coefficient has valuation "
                        f"{c.valuation()} < {qs[j]}"
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
    target = D.limit.differentiate(var, order)
    if target.is_zero:
        # covers every non-pivot variable: the limit involves pivots only
        raise ZeroDerivativeError(f"d^{order}/dx_{var}^{order} of the limit vanishes")
    if var >= D.p:
        raise InvariantError("nonzero derivative in a non-pivot variable")
    scale = falling_factorial(d, order)
    kept = []
    for w, form in D.decomposition.summands:
        c = form.coefs[var]
        if c.is_zero:
            continue
        w2 = w * scale * c**order
        # valuation of the whole contribution w2 * form**(d-order): the
        # expansion of a linear-form power has one product per monomial, so
        # its minimal valuation is (d-order) * min coefficient valuation
        contrib = w2.valuation() + (d - order) * min(
            x.valuation() for x in form.coefs if not x.is_zero
        )
        if contrib >= 1:
            continue
        kept.append((w2, form))
    r = D.decomposition.rank()
    if len(kept) > r - var:
        raise InvariantError(
            f"derivative certificate has {len(kept)} summands, expected <= {r - var}"
        )
    return BorderDecomposition(D.decomposition.nvars, d - order, tuple(kept))


__all__ = [
    "DiagonalizedDecomposition",
    "Pivot",
    "diagonalize",
    "dvr_reduce_step",
    "staircase_check",
    "derivative_decomposition",
    "restrict_vars_zero",
]
