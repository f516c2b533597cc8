"""Sparse homogeneous polynomials and linear forms.

A monomial is an exponent tuple of length nvars; a ``HomoPoly`` maps monomials
to scalar coefficients (Fraction or EpsScalar, never mixed) and carries an
explicit ``(nvars, degree)`` tag so that zero polynomials of different degrees
stay distinguishable.  The canonical term order used for serialization and
witnesses is graded lexicographic; since every stored polynomial is
homogeneous that is plain descending tuple order on the exponents.

``LinearForm`` is a coefficient vector, as a tuple, with the operations the
decomposition machinery needs: exact powers via multinomial expansion,
composition with a linear change of variables, restriction.

``power_sum`` is the one expansion kernel: every weighted sum of powers of
linear forms, and every single power (a one-summand sum with weight 1), is
expanded there.  It runs on Python ints.  Over Q, each summand is scaled to
an integer form over one denominator; over Q(eps), when every denominator
is a power of eps, each summand is also shifted to an integer form over
Z[eps].  The multinomial expansion is ``_int_power_terms``, and the
contributions are summed per monomial (per monomial and eps-exponent) over
the lcm of the summands' denominators.  Only then is one Fraction or one
canonical EpsScalar built per monomial.  Any other denominator, such as
1/(1+eps), makes the whole sum fall back to multiplying and adding the
scalars term by term.

``HomoPoly.substitute_linear`` uses the same integers when every
coefficient and every row entry is a Fraction: each row is cleared to an
integer vector over its lcm denominator, its powers come from
``_int_power_terms`` once per (row, exponent), the integer products are
summed per monomial over the lcm of the terms' denominators, and one
Fraction is built per output monomial.  Inside the products a monomial is
one integer key (Kronecker substitution).  Rows holding EpsScalars multiply
and add scalars.

``substitute_forms`` is the one substitution kernel for linear forms
(``LinearForm.substitute`` is its one-form case).  It clears the matrix
once per call.  A rational form against rational rows is an integer
product over one denominator, one Fraction per output coefficient; when
every entry on both sides is a Fraction or a polynomial in eps, the
product runs on dense integer eps-lists, one canonical EpsScalar (with
denominator 1) per output coefficient; any other scalar goes term by term.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .epsilon import _EP_ONE, EpsPoly, EpsScalar
from .errors import PoleAtZero

Monomial = Tuple[int, ...]


def _is_scalar(c) -> bool:
    return isinstance(c, (int, Fraction, EpsScalar))


def _as_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


# One shared Fraction per small integer.  Form coefficients are nearly always
# small integers, so a stored decomposition holds references to these rather
# than a Fraction object per coefficient.
_SMALL_INTS = {i: Fraction(i) for i in range(-256, 257)}
_EPS_ZERO = EpsScalar.zero()


def _form_coeff(c):
    c = _as_coeff(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return _SMALL_INTS.get(c.numerator, c)
    return c


def monomial_key(m: Monomial):
    """Sort key putting monomials in graded-lex order (largest first)."""
    return tuple(-e for e in m)


def falling_factorial(d: int, j: int) -> int:
    """d * (d-1) * ... * (d-j+1)."""
    out = 1
    for i in range(j):
        out *= d - i
    return out


class HomoPoly:
    """Homogeneous polynomial, sparse over Fraction or EpsScalar."""

    __slots__ = ("nvars", "degree", "_terms")

    def __init__(self, nvars: int, degree: int, terms: Dict[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.nvars = nvars
        self.degree = degree
        clean: Dict[Monomial, object] = {}
        if terms:
            for m, c in terms.items():
                m = tuple(m)
                if len(m) != nvars or any(e < 0 for e in m):
                    raise ValueError(f"bad monomial {m} for nvars={nvars}")
                if sum(m) != degree:
                    raise ValueError(f"monomial {m} has degree {sum(m)}, expected {degree}")
                c = _as_coeff(c)
                if not _is_scalar(c):
                    raise TypeError(f"bad coefficient {c!r}")
                if c != 0:
                    clean[m] = c
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, degree: int, terms: Dict[Monomial, object]) -> "HomoPoly":
        """Wrap terms that are already well-shaped and nonzero, unchecked."""
        out = cls.__new__(cls)
        out.nvars, out.degree, out._terms = nvars, degree, terms
        return out

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomoPoly":
        return cls(nvars, degree)

    @classmethod
    def monomial(cls, nvars: int, exps: Monomial, coeff=Fraction(1)) -> "HomoPoly":
        return cls(nvars, sum(exps), {tuple(exps): coeff})

    # -- views -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(sorted(self._terms, key=monomial_key))

    def coeff(self, m: Monomial):
        return self._terms.get(tuple(m), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic ------------------------------------------------------

    def _require_same_shape(self, other: "HomoPoly"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError(
                f"shape mismatch: ({self.nvars},{self.degree}) vs ({other.nvars},{other.degree})"
            )

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        self._require_same_shape(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s != 0:
                acc[m] = s
            else:
                acc.pop(m, None)
        return HomoPoly._make(self.nvars, self.degree, acc)

    def __neg__(self) -> "HomoPoly":
        return HomoPoly._make(self.nvars, self.degree, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + (-other)

    def scale(self, s) -> "HomoPoly":
        s = _as_coeff(s)
        if s == 0:
            return HomoPoly.zero(self.nvars, self.degree)
        return HomoPoly._make(self.nvars, self.degree, {m: c * s for m, c in self._terms.items()})

    def __mul__(self, other: "HomoPoly") -> "HomoPoly":
        if not isinstance(other, HomoPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch in product")
        acc: Dict[Monomial, object] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = acc.get(m, Fraction(0)) + c1 * c2
                if s != 0:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return HomoPoly._make(self.nvars, self.degree + other.degree, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self._terms)))

    # -- calculus and substitution ---------------------------------------

    def differentiate(self, var: int, order: int = 1) -> "HomoPoly":
        """order-th partial derivative in variable var.

        The degree tag of the result is clamped at 0 when order exceeds the
        degree (the result is then the zero polynomial of degree 0).
        """
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        if order < 0:
            raise ValueError("negative derivative order")
        if order == 0:
            return self
        if order > self.degree:
            return HomoPoly.zero(self.nvars, 0)
        acc: Dict[Monomial, object] = {}
        for m, c in self._terms.items():
            e = m[var]
            if e < order:
                continue
            scale = falling_factorial(e, order)
            m2 = m[:var] + (e - order,) + m[var + 1 :]
            acc[m2] = acc.get(m2, Fraction(0)) + c * scale
        return HomoPoly(self.nvars, self.degree - order, acc)

    def substitute_linear(self, rows: Sequence[Sequence[object]]) -> "HomoPoly":
        """p(Mx) where variable i is replaced by the linear form rows[i].

        rows must be an nvars x nvars matrix of scalars compatible with the
        coefficient kind.  Exact expansion; no truncation anywhere.  Rational
        input runs on integers (``_rational_substitute``).
        """
        n = self.nvars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        if self.is_zero:
            return self
        forms = [tuple(_as_coeff(c) for c in r) for r in rows]
        if all(isinstance(c, Fraction) for c in self._terms.values()) and all(
            isinstance(c, Fraction) for r in forms for c in r
        ):
            return _rational_substitute(self, forms)
        power_cache: Dict[Tuple[int, int], HomoPoly] = {}

        def var_power(i: int, e: int) -> HomoPoly:
            key = (i, e)
            got = power_cache.get(key)
            if got is None:
                got = _form_power(forms[i], e, n)
                power_cache[key] = got
            return got

        total = HomoPoly.zero(n, self.degree)
        for m, c in self._terms.items():
            piece: HomoPoly | None = None
            for i, e in enumerate(m):
                if e == 0:
                    continue
                p = var_power(i, e)
                piece = p if piece is None else piece * p
            if piece is None:  # degree-0 polynomial
                piece = HomoPoly(n, 0, {(0,) * n: Fraction(1)})
            total = total + piece.scale(c)
        return total

    def limit_at_zero(self) -> "HomoPoly":
        """Entrywise limit at eps = 0; coefficients become Fractions.

        Raises PoleAtZero (with the offending monomial as witness) if any
        coefficient has negative valuation.
        """
        acc: Dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            if isinstance(c, EpsScalar):
                try:
                    v = c.limit()
                except PoleAtZero as exc:
                    raise PoleAtZero(
                        f"coefficient of {m} has a pole at eps = 0", witness=m
                    ) from exc
            else:
                v = c
            if v != 0:
                acc[m] = v
        return HomoPoly(self.nvars, self.degree, acc)

    def lift_to_eps(self) -> "HomoPoly":
        """Reinterpret rational coefficients as EpsScalars."""
        acc = {
            m: (c if isinstance(c, EpsScalar) else EpsScalar.from_rational(c))
            for m, c in self._terms.items()
        }
        return HomoPoly._make(self.nvars, self.degree, acc)

    def min_valuation(self) -> Tuple[int, Monomial]:
        """Minimal eps-valuation over coefficients, with a witness monomial."""
        if self.is_zero:
            raise ValueError("min_valuation of the zero polynomial")
        best = None
        best_m = None
        for m in self.monomials():
            c = self._terms[m]
            v = c.valuation() if isinstance(c, EpsScalar) else 0
            if best is None or v < best:
                best, best_m = v, m
        return best, best_m

    def restrict_zero(self, vars_to_zero: Iterable[int]) -> "HomoPoly":
        """Set the listed variables to zero."""
        kill = set(vars_to_zero)
        acc = {m: c for m, c in self._terms.items() if all(m[i] == 0 for i in kill)}
        return HomoPoly(self.nvars, self.degree, acc)

    def extend_vars(self, nvars: int) -> "HomoPoly":
        """Pad with trailing variables that the polynomial does not use."""
        if nvars < self.nvars:
            raise ValueError("extend_vars cannot shrink")
        pad = (0,) * (nvars - self.nvars)
        return HomoPoly(nvars, self.degree, {m + pad: c for m, c in self._terms.items()})

    def take_vars(self, nvars: int) -> "HomoPoly":
        """Drop trailing variables, which must be unused."""
        if nvars > self.nvars:
            raise ValueError("take_vars cannot grow")
        acc = {}
        for m, c in self._terms.items():
            if any(m[nvars:]):
                raise ValueError(f"monomial {m} uses a dropped variable")
            acc[m[:nvars]] = c
        return HomoPoly(nvars, self.degree, acc)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"0[deg {self.degree}]"
        bits = []
        for m in self.monomials():
            c = self._terms[m]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m) if e
            )
            bits.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        return " + ".join(bits)


def _compositions(total: int, parts: int):
    """All tuples of length parts of nonnegative ints summing to total, in
    ascending lexicographic order; iterative, so any number of parts works."""
    c = [0] * parts
    c[-1] = total
    k = parts - 1 if total else -1  # the last nonzero entry
    while True:
        yield tuple(c)
        if k <= 0:
            return
        s = c[k]
        c[k] = 0
        c[k - 1] += 1
        c[-1] = s - 1
        k = parts - 1 if s > 1 else k - 1


def monomials_of_degree(nvars: int, degree: int) -> Tuple[Monomial, ...]:
    """All exponent tuples of the given degree, in graded-lex order."""
    return tuple(sorted(_compositions(degree, nvars), key=monomial_key))


def _int_poly_mul(a: List[int], b: List[int]) -> List[int]:
    """Product of two dense integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _power_table(base, d: int, one, mul=operator.mul) -> list:
    """[one, base, base**2, ..., base**d]."""
    table = [one, base]
    for _ in range(d - 1):
        table.append(mul(table[-1], base))
    return table


@lru_cache(maxsize=1024)
def _support_terms(d: int, nvars: int, support: Tuple[int, ...]):
    """(monomial, alpha, d! / prod(alpha_i!)) for every composition alpha of
    d spread over the variables in support."""
    fact = [factorial(i) for i in range(d + 1)]
    out = []
    for alpha in _compositions(d, len(support)):
        exps = [0] * nvars
        den = 1
        for i, a in zip(support, alpha):
            exps[i] = a
            den *= fact[a]
        out.append((tuple(exps), alpha, fact[d] // den))
    return tuple(out)


def _int_power_terms(vals, d: int, nvars: int, support, scale=1):
    """scale * (sum_i vals[i] * x_support[i])**d by the multinomial theorem.

    Every value is an integer, or every value (scale included) is a dense
    list of integer coefficients in ascending powers of eps.  Returns
    [(monomial, coefficient)] over all compositions of d on the support,
    with coefficients of the same kind; d >= 1.
    """
    poly = isinstance(scale, list)
    if poly:
        mul, one = _int_poly_mul, [1]
    else:
        mul, one = operator.mul, 1
    tables = [_power_table(v, d, one, mul) for v in vals]
    out = []
    for key, alpha, mult in _support_terms(d, nvars, tuple(support)):
        t = [mult * x for x in scale] if poly else mult * scale
        for a, table in zip(alpha, tables):
            if a:
                t = mul(t, table[a])
        out.append((key, t))
    return out


def _int_eps_list(p: EpsPoly, den: int, shift: int = 0) -> List[int]:
    """Dense integer coefficients of eps**shift * den * p, ascending.

    den must clear every denominator of p, and shift may be negative down
    to -val(p).
    """
    out = [0] * (shift + p.degree() + 1)
    for e, a in p.pairs():
        out[shift + e] = a.numerator * (den // a.denominator)
    return out


def _int_eps_row(row: Sequence[EpsScalar]) -> Tuple[List[List[int]], List[int]]:
    """A row over Q(eps) cleared to Z[eps]: (s*x for x in row, s), as dense
    integer eps-lists, where s is the lcm of the entries' denominators
    times the lcm of the rational denominators left; s is a constant list
    exactly when every entry is a polynomial."""
    s = _EP_ONE
    for x in row:
        if x.den != s:
            s = s * x.den.exact_div(EpsPoly.gcd(s, x.den))
    if s is _EP_ONE:
        polys = [x.num for x in row]
    else:
        polys = [x.num if x.den == s else x.num * s.exact_div(x.den) for x in row]
    scale = lcm(*(c.denominator for p in polys + [s] for _, c in p.pairs()))
    return [_int_eps_list(p, scale) for p in polys], _int_eps_list(s, scale)


def _eps_of(x: List[int], d: int) -> EpsScalar:
    """The polynomial EpsScalar with coefficients x / d, canonical as built."""
    if not x:
        return EpsScalar.zero()
    return EpsScalar._from_laurent({e: Fraction(v, d) for e, v in enumerate(x) if v})


def power_sum(nvars: int, degree: int, summands) -> HomoPoly:
    """sum of w * form**degree over the (w, form) summands, exactly.

    Rational summands, and summands whose weights and form coefficients
    have powers of eps as denominators (every normalized certificate), are
    expanded on integers over one common denominator; any other denominator
    goes through the scalar loop.  Coefficients come out as Fractions for
    rational summands and as canonical EpsScalars otherwise.
    """
    if not summands:
        return HomoPoly._make(nvars, degree, {})
    if isinstance(summands[0][0], Fraction):
        return _rational_power_sum(nvars, degree, summands)
    if all(w.is_laurent and all(c.is_laurent for c in form) for w, form in summands):
        return _laurent_power_sum(nvars, degree, summands)
    return _scalar_power_sum(nvars, degree, summands)


def _rational_power_sum(nvars: int, degree: int, summands) -> HomoPoly:
    """Integer expansion of rational summands.

    A form with coefficients c_i = n_i / den contributes
    w.numerator * multinomial * prod n_i**a_i over w.denominator * den**d;
    contributions are scaled to the lcm L of those denominators and summed
    as ints, and each surviving monomial gets one Fraction(v, L).
    """
    parts = []
    L = 1
    for w, form in summands:
        support = [i for i, c in enumerate(form) if c]
        den = lcm(*(form[i].denominator for i in support))
        ints = [form[i].numerator * (den // form[i].denominator) for i in support]
        D = w.denominator * den**degree
        L = lcm(L, D)
        parts.append((w.numerator, D, support, ints))
    acc: dict = {}
    for wn, D, support, ints in parts:
        for m, t in _int_power_terms(ints, degree, nvars, support, wn * (L // D)):
            acc[m] = acc.get(m, 0) + t
    return HomoPoly._make(
        nvars, degree, {m: Fraction(v, L) for m, v in acc.items() if v}
    )


def _rational_substitute(p: HomoPoly, forms) -> HomoPoly:
    """p(Mx) for rational p and rational rows, on integers.

    Row i is cleared to an integer vector over its lcm denominator den_i,
    and its powers come from ``_int_power_terms``, once per (row, exponent).
    A term c * x**m then contributes c.numerator times the integer product
    of its row powers over c.denominator * prod den_i**m_i; contributions
    are scaled to the lcm L of those denominators and summed as ints, and
    each surviving monomial gets one Fraction(v, L).  Inside the product a
    monomial is the integer sum of e_i * (d + 1)**i (Kronecker), so that
    multiplying two is adding two ints: no exponent exceeds the degree d,
    so no digit carries.  The keys are decoded once, at the end.
    """
    n = p.nvars
    base = p.degree + 1
    rows = []
    for form in forms:
        support = [i for i, c in enumerate(form) if c]
        den = lcm(*(form[i].denominator for i in support))
        ints = [form[i].numerator * (den // form[i].denominator) for i in support]
        rows.append((den, support, ints))
    parts = []
    L = 1
    for m, c in p._terms.items():
        D = c.denominator
        for (den, support, _), e in zip(rows, m):
            if e:
                if not support:  # a zero row kills the term
                    break
                D *= den**e
        else:
            L = lcm(L, D)
            parts.append((m, c.numerator, D))
    weights = [base**i for i in range(n)]
    cache: Dict[Tuple[int, int], list] = {}
    acc: dict = {}
    for m, num, D in parts:
        piece = {0: num * (L // D)}
        for i, e in enumerate(m):
            if e:
                got = cache.get((i, e))
                if got is None:
                    _, support, ints = rows[i]
                    got = cache[i, e] = [
                        (sum(map(operator.mul, k, weights)), v)
                        for k, v in _int_power_terms(ints, e, n, support)]
                prod: dict = {}
                for k1, c1 in piece.items():
                    for k2, c2 in got:
                        k = k1 + k2
                        prod[k] = prod.get(k, 0) + c1 * c2
                piece = prod
        for k, v in piece.items():
            acc[k] = acc.get(k, 0) + v
    out = {}
    for k, v in acc.items():
        if v:
            exps = []
            for _ in range(n):
                k, e = divmod(k, base)
                exps.append(e)
            out[tuple(exps)] = Fraction(v, L)
    return HomoPoly._make(n, p.degree, out)


def _laurent_power_sum(nvars: int, degree: int, summands) -> HomoPoly:
    """Integer expansion of summands whose denominators are powers of eps.

    Each form is eps**v times a form over Z[eps]/den (v its least
    coefficient valuation), and each weight eps**u times a polynomial over
    Z[eps]/wden, so a summand is eps**(u + v*d) times an integer
    expansion over wden * den**d.  Contributions are scaled to the lcm L of
    those denominators and summed per monomial as {eps-exponent: int};
    each surviving monomial gets one canonical EpsScalar.
    """
    parts = []
    L = 1
    for w, form in summands:
        support = [i for i, c in enumerate(form) if c]
        cs = [form[i] for i in support]
        v = min(c.valuation() for c in cs)
        den = lcm(*(a.denominator for c in cs for _, a in c.num.pairs()))
        lists = [_int_eps_list(c.num, den, -c.den.degree() - v) for c in cs]
        u = w.valuation()
        wden = lcm(*(a.denominator for _, a in w.num.pairs()))
        wl = _int_eps_list(w.num, wden, -w.num.valuation())
        D = wden * den**degree
        L = lcm(L, D)
        parts.append((u + v * degree, D, support, lists, wl))
    acc: dict = {}
    for shift, D, support, lists, wl in parts:
        s = L // D
        for m, t in _int_power_terms(lists, degree, nvars, support, [s * x for x in wl]):
            row = acc.get(m)
            if row is None:
                row = acc[m] = {}
            for i, x in enumerate(t, shift):
                if x:
                    row[i] = row.get(i, 0) + x
    out = {}
    for m, row in acc.items():
        terms = {e: Fraction(x, L) for e, x in row.items() if x}
        if terms:
            out[m] = EpsScalar._from_laurent(terms)
    return HomoPoly._make(nvars, degree, out)


def _scalar_power_sum(nvars: int, degree: int, summands) -> HomoPoly:
    """sum of w * form**degree, accumulated scalar by scalar into one dict.

    Each term is the multinomial times one entry of a table of powers per
    support variable, times the weight.
    """
    acc: dict = {}
    for w, form in summands:
        support = [i for i, c in enumerate(form) if c]
        tables = [_power_table(form[i], degree, None) for i in support]
        for m, alpha, mult in _support_terms(degree, nvars, tuple(support)):
            t = Fraction(mult)
            for a, table in zip(alpha, tables):
                if a:
                    t = t * table[a]
            t = t * w
            prev = acc.get(m)
            if prev is not None:
                t = prev + t
                if not t:
                    del acc[m]
                    continue
            acc[m] = t
    return HomoPoly._make(nvars, degree, acc)


def _form_power(coefs: Sequence[object], d: int, nvars: int) -> HomoPoly:
    """(c . x)**d as a one-summand power sum with weight 1.

    The weight is of the coefficients' kind; a row that mixes Fractions and
    EpsScalars takes the scalar loop with weight Fraction(1), so each output
    coefficient keeps the kind of the scalars it multiplies.
    """
    if not any(coefs):
        return HomoPoly.zero(nvars, d)
    if d == 0:
        return HomoPoly(nvars, 0, {(0,) * nvars: Fraction(1)})
    if all(isinstance(c, Fraction) for c in coefs):
        return power_sum(nvars, d, ((Fraction(1), coefs),))
    if all(isinstance(c, EpsScalar) for c in coefs):
        return power_sum(nvars, d, ((EpsScalar.one(), coefs),))
    return _scalar_power_sum(nvars, d, ((Fraction(1), coefs),))


def _den_of(c) -> int:
    """Least integer clearing a Fraction or a polynomial EpsScalar."""
    if isinstance(c, Fraction):
        return c.denominator
    return lcm(*(a.denominator for _, a in c.num.pairs()))


def _eps_ints(c, den: int) -> List[int]:
    """den * c as dense integer eps-coefficients, for c as in ``_den_of``."""
    if isinstance(c, Fraction):
        return [c.numerator * (den // c.denominator)]
    return _int_eps_list(c.num, den)


def substitute_forms(forms: Sequence["LinearForm"], rows) -> Tuple["LinearForm", ...]:
    """Each form composed with x -> Mx (its coefficient vector c becomes
    c . M); the paths are in the module docstring.  A form that becomes
    zero raises ValueError."""
    n = len(rows)
    if any(len(r) != n for r in rows) or any(len(f) != n for f in forms):
        raise ValueError("substitution matrix has wrong shape")
    rows = [[_as_coeff(x) for x in r] for r in rows]
    flat = [x for r in rows for x in r]
    rational = all(isinstance(x, Fraction) for x in flat)
    M = None  # L * rows as integer eps-lists (one int for a Fraction), None for 0
    if all(x.is_polynomial for x in flat if isinstance(x, EpsScalar)):
        L = lcm(*(_den_of(x) for x in flat))
        M = [[_eps_ints(x, L) if x else None for x in r] for r in rows]
    out = []
    for form in forms:
        if rational and form.is_rational:
            den = lcm(*(c.denominator for c in form))
            cs = [c.numerator * (den // c.denominator) for c in form]
            coefs = [Fraction(sum(c * r[j][0] for c, r in zip(cs, M) if c and r[j]), den * L)
                     for j in range(n)]
        elif M and all(isinstance(c, Fraction) or c.is_polynomial for c in form):
            den = lcm(*(_den_of(c) for c in form))
            cs = [_eps_ints(c, den) if c else None for c in form]
            coefs = []
            for j in range(n):
                acc: List[int] = []
                for c, r in zip(cs, M):
                    if c and r[j]:
                        t = _int_poly_mul(c, r[j])
                        acc.extend([0] * (len(t) - len(acc)))
                        for e, x in enumerate(t):
                            acc[e] += x
                terms = {e: Fraction(x, den * L) for e, x in enumerate(acc) if x}
                coefs.append(EpsScalar._from_laurent(terms) if terms else _EPS_ZERO)
        else:
            coefs = _scalar_substitute(form, rows)
        out.append(LinearForm(coefs))
    return tuple(out)


def _scalar_substitute(form, rows) -> list:
    """c . M, multiplying and adding the scalars one at a time."""
    out = [Fraction(0)] * len(rows)
    for c, r in zip(form, rows):
        if c != 0:
            for j, x in enumerate(r):
                if x != 0:
                    out[j] = out[j] + c * x
    return out


class LinearForm(tuple):
    """Nonzero linear form given by its coefficient vector.

    A form is the tuple of its coefficients (``coefs`` is the form itself),
    so equality and hashing are those of the tuple, and a stored
    decomposition holds one object per form rather than a wrapper and a
    tuple.
    """

    __slots__ = ()

    def __new__(cls, coefs: Sequence[object]):
        coefs = tuple(_form_coeff(c) for c in coefs)
        if not coefs:
            raise ValueError("empty coefficient vector")
        if not any(coefs):
            raise ValueError("the zero vector is not a linear form")
        # never mix scalar kinds inside one vector
        if any(isinstance(c, EpsScalar) for c in coefs):
            coefs = tuple(
                c if isinstance(c, EpsScalar) else EpsScalar.from_rational(c)
                for c in coefs
            )
        return super().__new__(cls, coefs)

    @property
    def coefs(self) -> Tuple[object, ...]:
        return self

    @property
    def is_rational(self) -> bool:
        return not isinstance(self.coefs[0], EpsScalar)

    @property
    def nvars(self) -> int:
        return len(self.coefs)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LinearForm":
        return cls(tuple(Fraction(1 if i == index else 0) for i in range(nvars)))

    def power(self, d: int) -> HomoPoly:
        return _form_power(self.coefs, d, self.nvars)

    def scale(self, s) -> "LinearForm":
        s = _as_coeff(s)
        if s == 0:
            raise ValueError("scaling a form by zero")
        return LinearForm(tuple(c * s for c in self.coefs))

    def substitute(self, rows: Sequence[Sequence[object]]) -> "LinearForm":
        """The form x -> self(Mx); coefficient vector becomes c . M."""
        return substitute_forms((self,), rows)[0]

    def restrict_zero(self, vars_to_zero: Iterable[int]) -> "LinearForm | None":
        """Zero out the listed coordinates; None if the form vanishes."""
        kill = set(vars_to_zero)
        out = tuple(Fraction(0) if i in kill else c for i, c in enumerate(self.coefs))
        if all(c == 0 for c in out):
            return None
        return LinearForm(out)

    def extend_vars(self, nvars: int) -> "LinearForm":
        if nvars < self.nvars:
            raise ValueError("extend_vars cannot shrink")
        return LinearForm(self.coefs + (Fraction(0),) * (nvars - self.nvars))

    def take_vars(self, nvars: int) -> "LinearForm":
        if any(c != 0 for c in self.coefs[nvars:]):
            raise ValueError("form uses a dropped variable")
        return LinearForm(self.coefs[:nvars])

    def is_parallel(self, other: "LinearForm") -> bool:
        """True if the two forms are proportional."""
        if self.nvars != other.nvars:
            return False
        ratio = None
        for a, b in zip(self.coefs, other.coefs):
            if a == 0 and b == 0:
                continue
            if a == 0 or b == 0:
                return False
            r = a / b
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
        return True

    def __repr__(self) -> str:
        bits = []
        for i, c in enumerate(self.coefs):
            if c != 0:
                bits.append(f"({c!r})*x{i}")
        return " + ".join(bits)

