"""Independent checks of waring outputs, run outside the timed region.

Every decomposition is re-expanded with sympy's sparse polynomial rings over
QQ, which share no code with waring's own expansion, and compared with the
target.  Documents written by the CLI are parsed here from their JSON text
rather than through ``waring.serialize``.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import QQ
from sympy.polys.rings import ring


def _q(x: Fraction):
    return QQ(x.numerator, x.denominator)


def _ring(nvars: int):
    return ring(",".join(f"x{i}" for i in range(nvars)), QQ)


def expands_to(nvars, degree, summands, terms) -> bool:
    """Does sum w * (c . x)**degree equal sum coef * x**exps exactly?

    ``summands`` holds ``(w, coefs)`` pairs and ``terms`` maps exponent
    tuples to coefficients, all as Fractions.
    """
    R, *xs = _ring(nvars)
    total = R.zero
    for w, coefs in summands:
        form = R.zero
        for c, x in zip(coefs, xs):
            if c:
                form += _q(c) * x
        total += _q(w) * form**degree
    target = R.from_dict({tuple(m): _q(c) for m, c in terms.items() if c})
    return total == target


def _rational(s: str) -> Fraction:
    p, _, q = s.partition("/")
    return Fraction(int(p), int(q or 1))


def read_payload(path, kind):
    """Payload of a waring JSON document, parsed without the package."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind} document, got {doc.get('kind')!r}")
    return doc["payload"]


def waring_doc_summands(payload):
    return [
        (_rational(s["weight"]), [_rational(c) for c in s["form"]["coefs"]])
        for s in payload["summands"]
    ]


def poly_doc_terms(payload):
    return {tuple(t["exps"]): _rational(t["coef"]) for t in payload["terms"]}
