"""Weighted Waring decompositions, border decompositions, and their checks.

A ``WaringDecomposition`` is a finite list of (rational weight, rational
linear form) pairs representing sum w_i * l_i**d; a ``BorderDecomposition``
is the same with weights and form coefficients in Q(eps).  Verification is
always by exact expansion: a border decomposition certifies its limit
polynomial iff every coefficient of the expanded sum has eps-valuation >= 0
and the entrywise limit equals the target.

Both ``expand`` methods call ``poly.power_sum``, the one expansion kernel,
and both ``substitute`` methods call ``poly.substitute_forms``, the one
substitution kernel, once for all their forms.

``normalize_border`` brings a border certificate to the working shape the
diagonalization step expects: per summand, the eps-content of the form is
moved into the weight, denominators are cleared from the form (a unit at 0,
absorbed by the weight), and form tails that provably cannot affect the limit
are cut.  It and ``base_of_form`` read each form as the codec clears it
(``epsilon._int_eps_row``): integer eps-lists over one denominator, with
their lowest-order coefficients from ``epsilon._lowest``.  ``check_border``
reads the residual order off each expanded coefficient's numerator and
denominator, without building the difference.  ``essential_reduce`` rotates
away variables the target polynomial does not genuinely use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .epsilon import EpsScalar, _eps_of, _int_eps_row, _lowest
from .errors import DegenerateDecompositionError, InvariantError
from .linalg import rat_nullspace, rat_rank
from .poly import HomoPoly, LinearForm, Monomial, _int_poly_mul, power_sum, substitute_forms


@dataclass(frozen=True, slots=True)
class WaringDecomposition:
    """sum of weight * form**degree over the summands; exact over Q."""

    nvars: int
    degree: int
    summands: Tuple[Tuple[Fraction, LinearForm], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("decomposition degree must be at least 1")
        clean = []
        for w, form in self.summands:
            if isinstance(w, int):
                w = Fraction(w)
            if not isinstance(w, Fraction) or not form.is_rational:
                raise TypeError("Waring decompositions are rational; use BorderDecomposition")
            if w == 0:
                raise ValueError("zero weight in decomposition")
            if form.nvars != self.nvars:
                raise ValueError("form arity mismatch")
            clean.append((w, form))
        object.__setattr__(self, "summands", tuple(clean))

    def rank(self) -> int:
        return len(self.summands)

    def expand(self) -> HomoPoly:
        return power_sum(self.nvars, self.degree, self.summands)

    def __add__(self, other: "WaringDecomposition") -> "WaringDecomposition":
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("cannot concatenate decompositions of different shape")
        return WaringDecomposition(self.nvars, self.degree, self.summands + other.summands)

    def merged(self) -> "WaringDecomposition":
        """Combine summands with identical forms; drop cancelled ones."""
        acc: dict[LinearForm, Fraction] = {}
        for w, form in self.summands:
            acc[form] = acc.get(form, 0) + w
        kept = tuple((w, form) for form, w in acc.items() if w != 0)
        return WaringDecomposition(self.nvars, self.degree, kept)

    def substitute(self, rows) -> "WaringDecomposition":
        """Apply the change of variables x -> Mx to every form."""
        forms = substitute_forms([f for _, f in self.summands], rows)
        return WaringDecomposition(
            self.nvars, self.degree, tuple(zip([w for w, _ in self.summands], forms))
        )

    def extend_vars(self, nvars: int) -> "WaringDecomposition":
        return WaringDecomposition(
            nvars, self.degree, tuple((w, f.extend_vars(nvars)) for w, f in self.summands)
        )


@dataclass(frozen=True)
class BorderDecomposition:
    """sum of weight * form**degree with scalars in Q(eps)."""

    nvars: int
    degree: int
    summands: Tuple[Tuple[EpsScalar, LinearForm], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("decomposition degree must be at least 1")
        clean = []
        for w, form in self.summands:
            if isinstance(w, (int, Fraction)):
                w = EpsScalar.from_rational(w)
            if w.is_zero:
                raise ValueError("zero weight in border decomposition")
            if form.nvars != self.nvars:
                raise ValueError("form arity mismatch")
            if form.is_rational:
                form = LinearForm(tuple(EpsScalar.from_rational(c) for c in form.coefs))
            clean.append((w, form))
        object.__setattr__(self, "summands", tuple(clean))

    def rank(self) -> int:
        return len(self.summands)

    def expand(self) -> HomoPoly:
        return power_sum(self.nvars, self.degree, self.summands)

    def scale_weights(self, s) -> "BorderDecomposition":
        s = EpsScalar.from_rational(s) if isinstance(s, (int, Fraction)) else s
        if s.is_zero:
            raise ValueError("scaling weights by zero")
        return BorderDecomposition(
            self.nvars, self.degree, tuple((w * s, f) for w, f in self.summands)
        )

    def substitute(self, rows) -> "BorderDecomposition":
        forms = substitute_forms([f for _, f in self.summands], rows)
        return BorderDecomposition(
            self.nvars, self.degree, tuple(zip([w for w, _ in self.summands], forms))
        )

    def extend_vars(self, nvars: int) -> "BorderDecomposition":
        return BorderDecomposition(
            nvars, self.degree, tuple((w, f.extend_vars(nvars)) for w, f in self.summands)
        )

    def take_vars(self, nvars: int) -> "BorderDecomposition":
        return BorderDecomposition(
            nvars, self.degree, tuple((w, f.take_vars(nvars)) for w, f in self.summands)
        )


@dataclass(frozen=True)
class BorderCheck:
    """Outcome of an exact border verification."""

    ok: bool
    q: Optional[int]  # min valuation of (expansion - target); None when exact
    reason: str
    witness: Optional[Monomial]


def check_border(B: BorderDecomposition, f: HomoPoly) -> BorderCheck:
    """Exact verification of a border certificate, with diagnostics.

    ok is True iff the expansion converges at eps = 0 with limit exactly f.
    q is the diagnostic order: the minimal eps-valuation over the
    coefficients of (expansion - f), or None when the expansion equals f
    with no eps dependence at all (and on a pole); on success q >= 1
    whenever it is not None.  On failure, witness is a monomial where the
    pole sits or where the limit differs from f.  An expansion that is
    identically zero against a nonzero f raises
    DegenerateDecompositionError.
    """
    if f.nvars != B.nvars or f.degree != B.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    S = B.expand()
    if S.is_zero:
        if f.is_zero:
            return BorderCheck(True, None, "exact (zero)", None)
        raise DegenerateDecompositionError(
            "expanded sum is identically zero against a nonzero target"
        )
    val, wit = S.min_valuation()
    if val < 0:
        return BorderCheck(False, None, f"pole of order {-val} at eps = 0", wit)
    limit = S.limit_at_zero()
    # q from each coefficient num / den of S: val(num - f_m den) - val(den),
    # and 0 for a monomial of f that S lacks
    q = None
    hits = 0
    for m, c in S.items():
        fm = f.coeff(m)
        hits += fm != 0
        r = c.num - c.den * fm if fm else c.num
        if r:
            v = r.valuation() - c.den.valuation()
            q = v if q is None else min(q, v)
    if hits < len(f):
        q = 0
    if limit == f:
        return BorderCheck(True, q, "ok", None)
    bad = (limit - f)
    wit = bad.monomials()[0]
    return BorderCheck(False, q, "limit differs from target", wit)


def verify_waring(W: WaringDecomposition, f: HomoPoly) -> bool:
    """Exact equality of the expanded weighted sum with f."""
    if f.nvars != W.nvars or f.degree != W.degree:
        raise ValueError("target polynomial shape does not match the decomposition")
    return W.expand() == f


def normalize_border(B: BorderDecomposition) -> BorderDecomposition:
    """Canonical working form: polynomial, content-free forms; tails cut.

    Per summand, the form is cleared once by the codec to lists / den
    (``epsilon._int_eps_row``).  With v the lists' common valuation and c
    den's lowest nonzero entry, form = (eps**v * c / den) * N, where N is
    the lists shifted down by v, over c: a polynomial form with a
    coefficient of valuation 0.  The weight takes the factor's d-th power,
    and N's coefficients are cut above eps**t with
    t = max(0, -val(new weight)).  Every discarded tail contributes
    valuation >= 1 to the expansion, so the limit -- and therefore what the
    certificate proves -- is unchanged, and the valuation-0 coefficient
    stays, so no form vanishes.

    den / (c * eps**val(den)) is the lcm of the coefficients' denominators,
    normalized to 1 at eps = 0; that fixes N, so normalizing twice gives
    the same certificate as normalizing once.
    """
    d = B.degree
    out = []
    for w, form in B.summands:
        lists, den = _int_eps_row(form)
        v, _ = _lowest(lists)
        _, (c,) = _lowest([den])
        if v or len(den) > 1:
            (wl,), wden = _int_eps_row((w,))
            for _ in range(d):
                wden = _int_poly_mul(wden, den)
            cd = c**d
            w = _eps_of([0] * (v * d) + [x * cd for x in wl], wden)
        t = max(0, -w.valuation())
        out.append((w, LinearForm([_eps_of(x[v:v + t + 1], [c]) for x in lists])))
    return BorderDecomposition(B.nvars, d, tuple(out))


def base_of_form(form: LinearForm) -> LinearForm:
    """Lowest eps-order coefficient vector, scaled so its first nonzero entry is 1.

    This is the rational direction the form degenerates to; it is well defined
    for any nonzero form over Q(eps).  Read off the codec's lists: the
    lowest-order coefficients are their leads over one common factor.
    """
    _, leads = _lowest(_int_eps_row(form)[0])
    first = next(x for x in leads if x)
    return LinearForm([Fraction(x, first) for x in leads])


def is_local(B: BorderDecomposition) -> Optional[LinearForm]:
    """The common base if all summands degenerate to one direction, else None."""
    if not B.summands:
        return None
    bases = [base_of_form(form) for _, form in B.summands]
    first = bases[0]
    for b in bases[1:]:
        if b != first:
            return None
    return first


def _partial_coefficient_rows(f: HomoPoly) -> List[List[Fraction]]:
    """Rows = coefficient vectors of the first partials in a fixed monomial basis."""
    partials = [f.differentiate(i) for i in range(f.nvars)]
    basis = sorted({m for p in partials for m, _ in p.items()})
    return [[p.coeff(m) for m in basis] for p in partials]


def essential_rank(f: HomoPoly) -> int:
    """Dimension of the span of the first partial derivatives."""
    if f.is_zero:
        return 0
    return rat_rank(_partial_coefficient_rows(f))


def essential_reduce(
    f: HomoPoly, B: BorderDecomposition
) -> Tuple[HomoPoly, BorderDecomposition, List[List[Fraction]], int]:
    """Rotate coordinates so f uses only its essential variables.

    Returns (f', B', T, N) with f' = f(Tx) supported on the first N variables,
    B' the certificate composed with the same T, and T exactly invertible over
    Q.  N is the rank of the span of first partials of f.  A valid certificate
    always satisfies N <= B.rank(); violation raises InvariantError.
    """
    if f.is_zero:
        raise ValueError("essential_reduce of the zero polynomial")
    n = f.nvars
    rows = _partial_coefficient_rows(f)
    # directions v with sum_i v_i * (d f / d x_i) = 0: kernel of the matrix
    # whose columns are the partials, so f is translation-invariant along v
    cols_matrix = [[rows[i][j] for i in range(n)] for j in range(len(rows[0]))]
    kernel = rat_nullspace(cols_matrix)
    N = n - len(kernel)
    if N > B.rank():
        raise InvariantError(
            f"target has {N} essential variables but the certificate has rank {B.rank()}"
        )
    if N == n:
        T = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return f, B, T, N
    # columns: greedily chosen standard vectors completing the kernel to a basis
    cols: List[List[Fraction]] = []
    for i in range(n):
        e = [Fraction(1 if j == i else 0) for j in range(n)]
        trial = cols + [e] + kernel
        if rat_rank(trial) == len(trial):
            cols.append(e)
        if len(cols) == N:
            break
    cols.extend(kernel)
    T = [[cols[j][i] for j in range(n)] for i in range(n)]  # vectors as columns
    f2 = f.substitute_linear(T)
    if any(any(m[N:]) for m, _ in f2.items()):
        raise InvariantError("essential reduction left a trailing variable in use")
    B2 = B.substitute(T)
    return f2, B2, T, N


def restrict_vars_zero(B: BorderDecomposition, vars_to_zero) -> BorderDecomposition:
    """Set the listed variables to zero in every form; drop vanished summands.

    Exact: the expansion of the result is the expansion of B with those
    variables set to zero, so valuations cannot drop and the limit restricts.
    """
    kill = list(vars_to_zero)
    for i in kill:
        if not 0 <= i < B.nvars:
            raise ValueError(f"variable index {i} out of range")
    out = []
    for w, form in B.summands:
        restricted = form.restrict_zero(kill)
        if restricted is not None:
            out.append((w, restricted))
    return BorderDecomposition(B.nvars, B.degree, tuple(out))
