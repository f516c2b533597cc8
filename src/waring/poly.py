"""Sparse homogeneous polynomials and linear forms.

A monomial is an exponent tuple of length nvars; a ``HomoPoly`` maps monomials
to scalar coefficients (Fraction or EpsScalar, never mixed) and carries an
explicit ``(nvars, degree)`` tag so that zero polynomials of different degrees
stay distinguishable.  The canonical term order used for serialization and
witnesses is graded lexicographic; since every stored polynomial is
homogeneous that is plain descending tuple order on the exponents.

``LinearForm`` is a coefficient vector, as a tuple; over Q it has an exact
power.

The kernels run on Python ints.  Over Q, ``_row_power_sum`` expands the
rows a Waring decomposition holds (``decomp.WaringDecomposition``): each
summand one flat tuple of ints, its weight and its form cleared to
integers over their denominators.  ``LinearForm.power`` is the one-row
case.  It and ``HomoPoly.substitute_linear`` scale each form or row to an
integer vector over one denominator, sum integer contributions over the
lcm of their denominators, and build one Fraction per output coefficient;
each raises TypeError on anything over Q(eps).

Over Q(eps) the kernels take the rows a border certificate holds
(``decomp.BorderDecomposition``): each summand's weight and form cleared to
dense integer eps-lists over one denominator each.  ``_cleared_power_sum``
expands them on integers over Z[eps] when every denominator is a monomial
c*eps**k, and builds one canonical EpsScalar per monomial; any other
denominator, such as 1 + eps, sends the whole sum to ``_scalar_power_sum``
(which says why that loop stays), the one place weights and forms become
scalars.  It can cut the expansion at an eps-order t: a certificate matters
through its limit, so its checks read a few low orders only.  Terms whose
valuation lies past t are skipped, and power tables and products stop at t;
the scalar path is never cut.  ``_substitute_row`` multiplies a row by a
cleared matrix into a row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial, lcm
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

from .epsilon import _ZERO, EpsScalar, _eps_of, _int_rat_row, _lowest, _reduce_row
from .errors import PoleAtZero

Monomial = Tuple[int, ...]


def _is_scalar(c) -> bool:
    return isinstance(c, (int, Fraction, EpsScalar))


def _as_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
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
        return self._terms.get(m, _ZERO)

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
            s = acc.get(m, _ZERO) + c
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
                s = acc.get(m, _ZERO) + c1 * c2
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
            acc[m2] = acc.get(m2, _ZERO) + c * scale
        return HomoPoly(self.nvars, self.degree - order, acc)

    def substitute_linear(self, rows: Sequence[Sequence[object]]) -> "HomoPoly":
        """p(Mx) where variable i is replaced by the linear form rows[i].

        p and the nvars x nvars matrix M must be rational (ints count);
        anything over Q(eps) raises TypeError.  Exact, on integers
        (``_rational_substitute``).
        """
        n = self.nvars
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        forms = [tuple(_as_coeff(c) for c in r) for r in rows]
        if not all(isinstance(c, Fraction) for r in forms for c in r) or not all(
            isinstance(c, Fraction) for c in self._terms.values()
        ):
            raise TypeError("substitute_linear takes a rational polynomial and rational rows")
        if self.is_zero:
            return self
        return _rational_substitute(self, forms)

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


def _int_poly_mul(a: List[int], b: List[int], n: int | None = None) -> List[int]:
    """Product of two dense integer coefficient lists; only its first n
    coefficients when n is given."""
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size = n
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i], i):
                out[j] += x * y
    return out


@lru_cache(maxsize=1024)
def _support_terms(d: int, nvars: int, support: Tuple[int, ...]):
    """(monomial, pairs, d! / prod(alpha_i!)) for every composition alpha of
    d spread over the variables in support; pairs lists (i, alpha_i) for the
    nonzero alpha_i, i indexing support."""
    fact = [factorial(i) for i in range(d + 1)]
    out = []
    for alpha in _compositions(d, len(support)):
        exps = [0] * nvars
        den = 1
        for i, a in zip(support, alpha):
            exps[i] = a
            den *= fact[a]
        pairs = tuple((i, a) for i, a in enumerate(alpha) if a)
        out.append((tuple(exps), pairs, fact[d] // den))
    return tuple(out)


def _int_power_terms(vals, d: int, nvars: int, support, scale=1):
    """scale * (sum_i vals[i] * x_support[i])**d by the multinomial theorem,
    on ints: [(monomial, coefficient)] over all compositions of d on the
    support; d >= 1."""
    tables = [list(accumulate(repeat(v, d), mul, initial=1)) for v in vals]
    out = []
    for key, pairs, mult in _support_terms(d, nvars, tuple(support)):
        t = mult * scale
        for i, a in pairs:
            t *= tables[i][a]
        out.append((key, t))
    return out


def _row_power_sum(nvars: int, degree: int, rows) -> HomoPoly:
    """sum of (wn / wd) * (c / den)**degree over rational rows, exactly.

    Each row is one flat tuple of ints, (wn, wd, den, c_0, ..., c_(n-1)),
    as ``decomp.WaringDecomposition`` holds its summands.  A row contributes
    wn * multinomial * prod c_i**a_i over wd * den**d, summed as ints over
    the lcm L of those denominators; each monomial gets one Fraction(v, L).
    """
    parts = []
    L = 1
    for row in rows:
        support = [i for i, c in enumerate(row[3:]) if c]
        D = row[1] * row[2]**degree
        L = lcm(L, D)
        parts.append((row[0], D, support, [row[3 + i] for i in support]))
    acc: dict = {}
    for wn, D, support, ints in parts:
        for m, t in _int_power_terms(ints, degree, nvars, support, wn * (L // D)):
            acc[m] = acc.get(m, 0) + t
    if L == 1:
        return HomoPoly._make(nvars, degree, {m: Fraction(v) for m, v in acc.items() if v})
    return HomoPoly._make(nvars, degree, {m: Fraction(v, L) for m, v in acc.items() if v})


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
        ints, den = _int_rat_row(form)
        support = [i for i, c in enumerate(ints) if c]
        rows.append((den, support, [ints[i] for i in support]))
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
                        (sum(map(mul, k, weights)), v)
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


def _cleared_power_sum(nvars: int, degree: int, cleared, through=None) -> HomoPoly:
    """sum of w * (lists / den)**degree over a border certificate's rows,
    exact through eps**through; every order when through is None.

    Each row holds w cleared, wl / wden, and is read as it stands.  A weight
    wl / (c * eps**k) and a form lists / (C * eps**K) make eps**(-k - K*d)
    times the integer expansion weighted by wl, over c * C**d; contributions
    are summed per monomial on one dense eps-list over the lcm of those
    denominators.  A multinomial term's valuation is that shift, plus
    val(wl), plus sum a_i * val(lists_i); a term past the cut is skipped,
    and the power tables and products stop at it, so every coefficient keeps
    its orders up to eps**through and loses the rest.  Any denominator that
    is not a monomial sends the whole sum, uncut, through
    ``_scalar_power_sum``, with each scalar built once.
    """
    parts = []
    L = 1
    for wl, wden, lists, den in cleared:
        if any(wden[:-1]) or any(den[:-1]):
            return _scalar_power_sum(nvars, degree, [
                (_eps_of(wl, wden), [_eps_of(x, den) for x in lists])
                for wl, wden, lists, den in cleared])
        support = [i for i, x in enumerate(lists) if x]
        D = wden[-1] * den[-1] ** degree
        L = lcm(L, D)
        parts.append((1 - len(wden) + (1 - len(den)) * degree, D, support,
                      [lists[i] for i in support], wl))
    if not parts:
        return HomoPoly._make(nvars, degree, {})
    base = min(0, min(p[0] for p in parts))
    width = max(shift - base + len(wl) + degree * (max(map(len, lists)) - 1)
                for shift, _, _, lists, wl in parts)
    if through is not None:
        width = min(width, through - base + 1)
    acc: dict = {}
    for shift, D, support, lists, wl in parts:
        wv = _lowest([wl])[0]
        room = width - (shift - base) - wv  # coefficients left from val(wl) on
        ws = [L // D * x for x in wl[wv:wv + room]]
        vals = [_lowest([x])[0] for x in lists]
        tables = [_power_list(x[v:], v, degree, room) for x, v in zip(lists, vals)]
        for m, pairs, mult in _support_terms(degree, nvars, tuple(support)):
            v = 0
            for i, a in pairs:
                v += a * vals[i]
            n = room - v
            if n <= 0:
                acc.setdefault(m, None)  # first-seen order, as uncut
                continue
            t = [mult * x for x in ws[:n]]
            for i, a in pairs:
                t = _int_poly_mul(t, tables[i][a], n)
            row = acc.get(m)
            if row is None:
                row = acc[m] = [0] * width
            for j, x in enumerate(t, shift - base + wv + v):
                row[j] += x
    den = [0] * -base + [L]
    return HomoPoly._make(nvars, degree, {m: _eps_of(row, den) for m, row in acc.items()
                                          if row is not None and any(row)})


def _power_list(s: List[int], v: int, d: int, room: int) -> List[List[int]]:
    """[1, s, s**2, ...] for the eps-list s of a coefficient of valuation v,
    s shifted down by v: s**a only through its first room - a*v entries,
    and no power past the one whose room runs out."""
    table = [[1]]
    for a in range(1, d + 1):
        n = room - a * v
        if n <= 0:
            break
        table.append(_int_poly_mul(table[-1], s, n))
    return table


def _scalar_power_sum(nvars: int, degree: int, summands) -> HomoPoly:
    """sum of w * form**degree, accumulated scalar by scalar into one dict.

    Each term is the multinomial times one entry of a table of powers per
    support variable, times the weight.  The one path for denominators
    that are not powers of eps.  An integer expansion over their common
    denominator gives the same scalars, but that denominator over-covers
    each monomial's own: it was 7 to 35 times faster on dense certificates
    composed with I + eps/(1+eps) N, yet 2 to 4 times slower on two
    summands carrying 1/(1+eps**k) and 1/(1-eps**k) at degree 16 and 32.
    """
    acc: dict = {}
    for w, form in summands:
        support = [i for i, c in enumerate(form) if c]
        tables = [[None, *accumulate(repeat(form[i], degree), mul)] for i in support]
        for m, pairs, mult in _support_terms(degree, nvars, tuple(support)):
            t = Fraction(mult)
            for i, a in pairs:
                t = t * tables[i][a]
            t = t * w
            prev = acc.get(m)
            if prev is not None:
                t = prev + t
                if not t:
                    del acc[m]
                    continue
            acc[m] = t
    return HomoPoly._make(nvars, degree, acc)


def _substitute_row(cs, den, M, S) -> Tuple[List[List[int]], List[int]]:
    """The form cs / den composed with the n x n matrix M / S (row-major),
    both cleared by the codec: integer eps-list products over den * S,
    returned as the codec clears them (``_reduce_row``).  A form that
    becomes zero raises ValueError."""
    den = _int_poly_mul(den, S)
    n = len(cs)
    out = []
    for j in range(n):
        acc: List[int] = []
        for c, x in zip(cs, M[j::n]):
            if c and x:
                t = _int_poly_mul(c, x)
                acc.extend([0] * (len(t) - len(acc)))
                for e, v in enumerate(t):
                    acc[e] += v
        out.append(acc)
    if not any(any(x) for x in out):
        raise ValueError("the zero vector is not a linear form")
    return _reduce_row(out, den)


class LinearForm(tuple):
    """Nonzero linear form given by its coefficient vector.

    A form is the tuple of its coefficients (``coefs`` is the form itself),
    so equality and hashing are those of the tuple.  Decompositions hold
    their forms as integer rows and build LinearForms only when read.
    """

    __slots__ = ()

    def __new__(cls, coefs: Sequence[object]):
        coefs = tuple(_as_coeff(c) for c in coefs)
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
        """(c . x)**d, a one-row power sum with weight 1; rational only."""
        n = self.nvars
        if d == 0:
            return HomoPoly(n, 0, {(0,) * n: Fraction(1)})
        if not self.is_rational:
            raise TypeError("LinearForm.power takes a rational form")
        ints, den = _int_rat_row(self)
        return _row_power_sum(n, d, ((1, 1, den, *ints),))

    def __repr__(self) -> str:
        bits = []
        for i, c in enumerate(self.coefs):
            if c != 0:
                bits.append(f"({c!r})*x{i}")
        return " + ".join(bits)

