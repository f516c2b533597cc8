"""Exact arithmetic in the deformation parameter eps.

Two scalar types live here:

* ``EpsPoly`` -- a univariate polynomial over Q in the parameter eps, stored
  sparsely as ``{exponent: Fraction}`` with no zero coefficients.  It doubles
  as a general exact univariate polynomial (the rank oracle reuses it for
  binary-form gcd work).

* ``EpsScalar`` -- an element of Q(eps) kept as a reduced fraction num/den of
  two ``EpsPoly``.  The denominator is normalized so that its lowest-order
  nonzero coefficient is 1; together with gcd reduction this makes the
  representation canonical, so structural equality is semantic equality;
  a polynomial hashes as its ``EpsPoly``, and a constant of either type as
  the ``Fraction`` it equals.  The eps-valuation of a scalar is
  val(num) - val(den) and may be negative; nothing is ever truncated.

Almost every denominator met in practice is 1 or a monomial c*eps**k, so
``EpsPoly.gcd`` answers without the Euclidean algorithm when either operand
is a monomial (constants included): the monic gcd is then
eps**min(val(other), k).  ``exact_div`` by a monomial is a shift and a
scale.  Both give exactly what the general algorithms give.

Scalars coerce from int and Fraction on the fly, so generic polynomial code
can mix them with plain rationals.

The integer kernels in ``poly``, ``linalg``, ``decomp`` and ``diagonal``
cross between Q(eps) and integer eps-lists through one codec pair only:
``_int_eps_row`` clears a vector to lists over one common denominator, and
``_eps_of`` builds a canonical scalar back from a list and a denominator.
``_int_rat_row`` clears a rational vector to integers; the codec uses it
too, so it holds the one lcm of rational denominators.  ``_lowest`` reads
the common valuation and the lowest-order coefficients of cleared lists.
``_reduce_row`` takes a kernel's lists over any denominator to the codec's
clearing, in which a border certificate holds its forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from .errors import PoleAtZero

# the one default for a missing coefficient; Fractions are immutable
_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class EpsPoly:
    """Sparse univariate polynomial in eps over Q."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[int, Fraction] | None = None):
        clean: Dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
                c = _frac(c)
                if c != 0:
                    clean[e] = c
        self._terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _make(cls, terms: Dict[int, Fraction]) -> "EpsPoly":
        """Wrap a dict that already has Fraction values, no zeros, and
        nonnegative int exponents, without re-checking it."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "EpsPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "EpsPoly":
        return cls({0: _frac(c)})

    @classmethod
    def eps(cls, power: int = 1) -> "EpsPoly":
        if power < 0:
            raise ValueError("EpsPoly exponents are nonnegative")
        return cls({power: Fraction(1)})

    # -- predicates and views --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("valuation of the zero polynomial")
        return min(self._terms)

    def coeff(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, _ZERO)

    def lowest(self) -> Tuple[int, Fraction]:
        """(valuation, coefficient at the valuation)."""
        v = self.valuation()
        return v, self._terms[v]

    def at_zero(self) -> Fraction:
        return self._terms.get(0, _ZERO)

    def pairs(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Terms as ((exponent, coefficient), ...) in ascending exponent order."""
        return tuple(sorted(self._terms.items()))

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "EpsPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, _ZERO) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return EpsPoly._make(acc)

    __radd__ = __add__

    def __neg__(self) -> "EpsPoly":
        return EpsPoly._make({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "EpsPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: Dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = acc.get(e, _ZERO) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return EpsPoly._make(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EpsPoly":
        if n < 0:
            raise ValueError("negative power of an EpsPoly")
        result = EpsPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "EpsPoly") -> Tuple["EpsPoly", "EpsPoly"]:
        other = self._coerce(other)
        if other is NotImplemented or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q: Dict[int, Fraction] = {}
        r = self
        dB, lcB = other.degree(), other.coeff(other.degree())
        while not r.is_zero and r.degree() >= dB:
            shift = r.degree() - dB
            c = r.coeff(r.degree()) / lcB
            q[shift] = q.get(shift, _ZERO) + c
            r = r - EpsPoly({shift: c}) * other
        return EpsPoly(q), r

    def exact_div(self, other: "EpsPoly") -> "EpsPoly":
        if len(other._terms) == 1:
            ((k, c),) = other._terms.items()
            if any(e < k for e in self._terms):
                raise ValueError("exact_div with nonzero remainder")
            if c == 1:
                return EpsPoly._make({e - k: a for e, a in self._terms.items()})
            return EpsPoly._make({e - k: a / c for e, a in self._terms.items()})
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    def derivative(self) -> "EpsPoly":
        return EpsPoly({e - 1: c * e for e, c in self._terms.items() if e > 0})

    def monic(self) -> "EpsPoly":
        if self.is_zero:
            return self
        lc = self.coeff(self.degree())
        return EpsPoly({e: c / lc for e, c in self._terms.items()})

    @staticmethod
    def gcd(a: "EpsPoly", b: "EpsPoly") -> "EpsPoly":
        """Monic gcd in Q[eps]; the gcd of two zeros is zero.

        When either operand is a monomial c*eps**k (a nonzero constant is
        the case k = 0) the gcd is eps**min(val(other), k), or eps**k when
        the other operand is zero.  Otherwise it runs the Euclidean
        algorithm.
        """
        for mono, other in ((b, a), (a, b)):
            if len(mono._terms) == 1:
                (k,) = mono._terms
                if other._terms:
                    k = min(k, min(other._terms))
                return _EP_ONE if k == 0 else EpsPoly._make({k: Fraction(1)})
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    # -- comparisons -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, EpsPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsPoly.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self):
        if not self._terms.keys() - {0}:  # a constant, hashed as its Fraction
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*eps" if c != 1 else "eps")
            else:
                bits.append(f"{c}*eps^{e}" if c != 1 else f"eps^{e}")
        return " + ".join(bits)


_EP_ONE = EpsPoly.const(1)


class EpsScalar:
    """Element of Q(eps) as a canonical reduced fraction of EpsPoly."""

    __slots__ = ("num", "den")

    def __init__(self, num: EpsPoly, den: EpsPoly | None = None):
        if den is None:
            den = _EP_ONE
        if den.is_zero:
            raise ZeroDivisionError("EpsScalar with zero denominator")
        if num.is_zero:
            self.num = EpsPoly.zero()
            self.den = _EP_ONE
            return
        g = EpsPoly.gcd(num, den)
        if g.degree() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        # normalize: lowest-order nonzero coefficient of den becomes 1
        _, low = den.lowest()
        if low != 1:
            inv = 1 / low
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_laurent(cls, terms: Dict[int, Fraction]) -> "EpsScalar":
        """sum of c * eps**e over a nonempty dict with nonzero Fraction
        values and int exponents of any sign, built unchecked.

        With v the smallest exponent, a pole is num / eps**(-v) where num
        has a nonzero constant term, so the gcd is 1 and the denominator's
        lowest coefficient is 1: the representation is canonical without a
        reduction step.
        """
        out = cls.__new__(cls)
        v = min(terms)
        if v < 0:
            out.num = EpsPoly._make({e - v: c for e, c in terms.items()})
            out.den = EpsPoly._make({-v: Fraction(1)})
        else:
            out.num = EpsPoly._make(terms)
            out.den = _EP_ONE
        return out

    @classmethod
    def from_rational(cls, c) -> "EpsScalar":
        return cls(EpsPoly.const(_frac(c)))

    @classmethod
    def from_poly(cls, p: EpsPoly) -> "EpsScalar":
        return cls(p)

    @classmethod
    def eps(cls, power: int = 1) -> "EpsScalar":
        """eps**power for any integer power (negative gives a pole at 0)."""
        if power >= 0:
            return cls(EpsPoly.eps(power))
        return cls(_EP_ONE, EpsPoly.eps(-power))

    @classmethod
    def zero(cls) -> "EpsScalar":
        return cls(EpsPoly.zero())

    @classmethod
    def one(cls) -> "EpsScalar":
        return cls(_EP_ONE)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == _EP_ONE

    def valuation(self) -> int:
        """eps-valuation val(num) - val(den); raises on zero."""
        if self.is_zero:
            raise ValueError("valuation of zero")
        return self.num.valuation() - self.den.valuation()

    def limit(self) -> Fraction:
        """Value at eps = 0; requires valuation >= 0."""
        if self.is_zero:
            return _ZERO
        v = self.valuation()
        if v < 0:
            raise PoleAtZero(f"pole of order {-v} at eps = 0", witness=self)
        if v > 0:
            return _ZERO
        # den is normalized with lowest coefficient 1 and has valuation 0 here
        return self.num.at_zero() / self.den.at_zero()

    # -- field operations ------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, EpsScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return EpsScalar.from_rational(x)
        if isinstance(x, EpsPoly):
            return EpsScalar(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.is_polynomial and other.is_polynomial:
            return EpsScalar(self.num + other.num)
        return EpsScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = EpsScalar.__new__(EpsScalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return EpsScalar.zero()
        if self.is_polynomial and other.is_polynomial:
            out = EpsScalar.__new__(EpsScalar)
            out.num = self.num * other.num
            out.den = _EP_ONE
            return out
        return EpsScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero EpsScalar")
        return EpsScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return (EpsScalar.one() / self) ** (-n)
        result = EpsScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # canonical representation: structural equality is semantic equality
        return self.num == other.num and self.den == other.den

    def __bool__(self) -> bool:
        return not self.is_zero

    def __hash__(self):
        return hash(self.num) if self.den == _EP_ONE else hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_polynomial:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


_EPS_ZERO = EpsScalar.zero()


# -- the Z[eps] row codec ----------------------------------------------------


def _int_eps_row(row: Sequence) -> Tuple[List[List[int]], List[int]]:
    """A vector of Fractions and EpsScalars cleared to Z[eps]: (lists, den)
    with row[i] = lists[i] / den, as dense integer eps-lists ([] for 0).

    den is s times the lcm of the rational denominators left, s the lcm of
    the entries' denominators.  So den is a monomial c * eps**k exactly
    when every entry is a Laurent polynomial, and each entry is then only
    shifted and scaled; den's last entry is nonzero.
    """
    s = _EP_ONE
    for x in row:
        if isinstance(x, EpsScalar) and x.den is not _EP_ONE and x.den._terms != s._terms:
            if len(s._terms) == len(x.den._terms) == 1:  # eps**a and eps**b
                s = max(s, x.den, key=EpsPoly.degree)
            else:
                s = s * x.den.exact_div(EpsPoly.gcd(s, x.den))
    if len(s._terms) == 1:  # s = eps**k: each entry is only shifted
        (k,) = s._terms
        parts = [(x.num._terms, k - max(x.den._terms)) if isinstance(x, EpsScalar)
                 else ({0: x} if x else {}, k) for x in row]
    else:
        parts = [((x.num * s.exact_div(x.den) if isinstance(x, EpsScalar) else s * x)._terms, 0)
                 for x in row]
    parts.append((s._terms, 0))
    ints = iter(_int_rat_row([c for terms, _ in parts for c in terms.values()])[0])
    lists = []
    for terms, shift in parts:
        out = [0] * (shift + max(terms) + 1) if terms else []
        for e in terms:
            out[shift + e] = next(ints)
        lists.append(out)
    den = lists.pop()
    return lists, den


def _int_rat_row(row: Sequence) -> Tuple[List[int], int]:
    """A vector of ints and Fractions cleared to integers: (ints, den) with
    row[i] = ints[i] / den, den the lcm of the entries' denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _reduce_row(lists: Sequence[Sequence[int]],
                den: Sequence[int]) -> Tuple[List[List[int]], List[int]]:
    """``_int_eps_row`` of the nonzero vector lists / den (trailing zeros
    allowed), so equal vectors give equal rows.  Over a monomial den,
    c * eps**k, it is integer work: shift out the leading zeros the lists
    share, as far as eps**k allows, and divide by the gcd, den positive.
    Any other den reduces each entry once through ``_eps_of``, the one gcd
    path, and clears the vector again.
    """
    if any(den[:-1]):
        return _int_eps_row([_eps_of(x, den) for x in lists])
    lists = [x[:max((i + 1 for i, c in enumerate(x) if c), default=0)] for x in lists]
    k = min(len(den) - 1, _lowest(lists)[0])
    g = gcd(den[-1], *(c for x in lists for c in x))
    if den[-1] < 0:
        g = -g
    return [[c // g for c in x[k:]] for x in lists], [0] * (len(den) - 1 - k) + [den[-1] // g]


def _lowest(lists: Sequence[List[int]]) -> Tuple[int, List[int]]:
    """(v, leads) of integer eps-lists, not all zero, without trailing
    zeros: v is their common valuation, the least index of a nonzero entry,
    and leads[i] is lists[i]'s coefficient of eps**v (0 past its end).  For
    a vector cleared to lists / den, the vector's lowest-order coefficients
    are the leads over den's lowest nonzero entry."""
    v = min(next(i for i, c in enumerate(x) if c) for x in lists if x)
    return v, [x[v] if len(x) > v else 0 for x in lists]


def _eps_of(x: List[int], den: List[int]) -> EpsScalar:
    """The EpsScalar x / den of two dense integer eps-lists, den's last
    entry nonzero.  Over a monomial den, c * eps**k, it is a Laurent
    polynomial, built canonical as it stands; over any other den the
    constructor reduces it."""
    if any(den[:-1]):
        return EpsScalar(EpsPoly._make({e: Fraction(v) for e, v in enumerate(x) if v}),
                         EpsPoly._make({e: Fraction(v) for e, v in enumerate(den) if v}))
    k, c = len(den) - 1, den[-1]
    terms = {e - k: Fraction(v, c) for e, v in enumerate(x) if v}
    return EpsScalar._from_laurent(terms) if terms else _EPS_ZERO
