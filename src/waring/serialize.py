"""Bit-exact JSON documents for polynomials, certificates and reports.

Every document is an envelope {"kind", "version": 1, "payload"}.  Scalars
are strings "p/q" in lowest terms with positive denominator (a bare "p" is
accepted on input); eps-polynomials are [[exponent, "p/q"], ...] in
ascending exponent order with no zero coefficients; eps-scalars are
{"num": ..., "den": ...} in the canonical reduced form the EpsScalar
constructor maintains.  Polynomial terms are emitted in graded-lex order,
so serialization is deterministic and diffable, and parse(serialize(x))
reproduces x exactly.

Malformed input raises FormatError, which the command-line layer maps to
exit code 2.  So does a declared shape past the ceilings below, checked
before anything is built from it: expanding a power enumerates every
monomial of the degree and every factorial up to it.  So does an eps
exponent past its ceiling: expansion holds dense lists of eps-coefficients
as long as the exponents it meets.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Dict, List, Tuple

from .decomp import BorderDecomposition, WaringDecomposition
from .epsilon import EpsPoly, EpsScalar
from .poly import HomoPoly, LinearForm

DOCUMENT_VERSION = 1
KINDS = ("polynomial", "border", "waring", "report")
# Shipped inputs reach 5 variables, degree 20 and 455 monomials.  At the
# costliest shape inside these ceilings (3 variables, degree 61: 1953
# monomials) expanding one border summand, the unit of work in `verify`,
# takes about a second on a 2-vCPU host; from about 1000 variables the
# monomial enumeration in poly passes Python's recursion limit.
MAX_NVARS = 64
MAX_DEGREE = 64
MAX_MONOMIALS = 2000  # C(nvars + degree - 1, degree)
# `gen` writes eps exponents up to 63 (osculating j <= 63; shipped inputs
# reach 5).  On a 2-vCPU host, verifying one summand in 3 variables of
# degree 61 whose form carries 1 + eps**e takes 0.45 s at e = 1 and 4.7 s
# at this ceiling, and grows linearly in e.  Two summands whose forms carry
# 1/(1+eps**e) and 1/(1-eps**e) take the scalar expansion loop: 44 s at
# e = 1 and 45 s at e = 64, at a peak RSS of 36 MB.
MAX_EPS_EXPONENT = 64


class FormatError(ValueError):
    """A document does not follow the serialization format."""


def _is_int(x) -> bool:
    """A JSON integer: true and false load as bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def rational_to_str(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        raise FormatError(f"expected a rational, got {type(x).__name__}")
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise FormatError(f"expected a rational string, got {type(s).__name__}")
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def eps_poly_to_json(p: EpsPoly) -> List[List]:
    return [[e, rational_to_str(c)] for e, c in p.pairs()]


def eps_poly_from_json(obj) -> EpsPoly:
    if not isinstance(obj, list):
        raise FormatError("eps-polynomial must be a list of [exponent, coefficient]")
    acc: Dict[int, Fraction] = {}
    for entry in obj:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"bad eps-polynomial entry {entry!r}")
        e, c = entry
        if not _is_int(e) or e < 0:
            raise FormatError(f"bad eps exponent {e!r}")
        if e > MAX_EPS_EXPONENT:
            raise FormatError(f"eps exponent {e} is past the ceiling of {MAX_EPS_EXPONENT}")
        if e in acc:
            raise FormatError(f"duplicate eps exponent {e}")
        acc[e] = rational_from_str(c)
    return EpsPoly(acc)


def eps_scalar_to_json(s: EpsScalar) -> Dict:
    return {"num": eps_poly_to_json(s.num), "den": eps_poly_to_json(s.den)}


def eps_scalar_from_json(obj) -> EpsScalar:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise FormatError("eps-scalar must be {num, den}")
    den = eps_poly_from_json(obj["den"])
    if den.is_zero:
        raise FormatError("eps-scalar has zero denominator")
    return EpsScalar(eps_poly_from_json(obj["num"]), den)


def poly_to_json(f: HomoPoly) -> Dict:
    terms = []
    for m in f.monomials():
        c = f.coeff(m)
        if isinstance(c, EpsScalar):
            raise FormatError("polynomial documents carry rational coefficients only")
        terms.append({"exps": list(m), "coef": rational_to_str(c)})
    return {"nvars": f.nvars, "degree": f.degree, "terms": terms}


def check_shape(nvars: int, degree: int) -> None:
    """Raise FormatError for a shape past the ceilings."""
    if nvars > MAX_NVARS or degree > MAX_DEGREE:
        raise FormatError(
            f"shape ({nvars} variables, degree {degree}) is past the ceilings "
            f"of {MAX_NVARS} variables and degree {MAX_DEGREE}"
        )
    if nvars >= 1 and degree >= 0 and comb(nvars + degree - 1, degree) > MAX_MONOMIALS:
        raise FormatError(
            f"{nvars} variables of degree {degree} have more than "
            f"{MAX_MONOMIALS} monomials"
        )


def _shape_of(obj) -> Tuple[int, int]:
    if not isinstance(obj, dict):
        raise FormatError("payload must be an object")
    nvars = obj.get("nvars")
    degree = obj.get("degree")
    if not _is_int(nvars) or not _is_int(degree):
        raise FormatError("nvars and degree must be integers")
    check_shape(nvars, degree)
    return nvars, degree


def poly_from_json(obj) -> HomoPoly:
    nvars, degree = _shape_of(obj)
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise FormatError("terms must be a list")
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for t in terms:
        if not isinstance(t, dict) or set(t) != {"exps", "coef"}:
            raise FormatError(f"bad term {t!r}")
        exps = t["exps"]
        if not isinstance(exps, list) or not all(_is_int(e) for e in exps):
            raise FormatError(f"bad exponent list {exps!r}")
        key = tuple(exps)
        if key in acc:
            raise FormatError(f"duplicate monomial {key}")
        acc[key] = rational_from_str(t["coef"])
    try:
        return HomoPoly(nvars, degree, acc)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


def waring_to_json(W: WaringDecomposition) -> Dict:
    return {
        "nvars": W.nvars,
        "degree": W.degree,
        "summands": [
            {
                "weight": rational_to_str(w),
                "form": {"coefs": [rational_to_str(c) for c in form.coefs]},
            }
            for w, form in W.summands
        ],
    }


def border_to_json(B: BorderDecomposition) -> Dict:
    return {
        "nvars": B.nvars,
        "degree": B.degree,
        "summands": [
            {
                "weight": eps_scalar_to_json(w),
                "form": {"coefs": [eps_scalar_to_json(c) for c in form.coefs]},
            }
            for w, form in B.summands
        ],
    }


def _summands_from_json(obj, scalar_from):
    nvars, degree = _shape_of(obj)
    raw = obj.get("summands")
    if not isinstance(raw, list):
        raise FormatError("summands must be a list")
    out = []
    for s in raw:
        if not isinstance(s, dict) or set(s) != {"weight", "form"}:
            raise FormatError(f"bad summand {s!r}")
        form = s["form"]
        if not isinstance(form, dict) or set(form) != {"coefs"} or not isinstance(
            form["coefs"], list
        ):
            raise FormatError(f"bad form {form!r}")
        w = scalar_from(s["weight"])
        coefs = tuple(scalar_from(c) for c in form["coefs"])
        try:
            out.append((w, LinearForm(coefs)))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return nvars, degree, tuple(out)


def waring_from_json(obj) -> WaringDecomposition:
    nvars, degree, summands = _summands_from_json(obj, rational_from_str)
    try:
        return WaringDecomposition(nvars, degree, summands)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


def border_from_json(obj) -> BorderDecomposition:
    nvars, degree, summands = _summands_from_json(obj, eps_scalar_from_json)
    try:
        return BorderDecomposition(nvars, degree, summands)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc


def report_to_json(report, flags: Dict) -> Dict:
    """Report payload; flags is the full configuration the run used."""
    return {
        "achieved_rank": report.achieved_rank,
        "paper_bound": report.paper_bound,
        "verified": report.verified,
        "trace": [
            {
                "case": t.case,
                "rank": t.rank,
                "degree": t.degree,
                "branch_i": t.branch_i,
                "branch_k": t.branch_k,
            }
            for t in report.trace
        ],
        "flags": dict(flags),
    }


def report_from_json(obj) -> Dict:
    if not isinstance(obj, dict):
        raise FormatError("report payload must be an object")
    for key in ("achieved_rank", "paper_bound", "verified", "trace", "flags"):
        if key not in obj:
            raise FormatError(f"report payload missing {key!r}")
    return obj


_TO_JSON = {
    "polynomial": poly_to_json,
    "border": border_to_json,
    "waring": waring_to_json,
    "report": lambda payload: payload,  # already a JSON-shaped dict
}

_FROM_JSON = {
    "polynomial": poly_from_json,
    "border": border_from_json,
    "waring": waring_from_json,
    "report": report_from_json,
}


def dumps_document(kind: str, value) -> str:
    if kind not in KINDS:
        raise FormatError(f"unknown document kind {kind!r}")
    doc = {"kind": kind, "version": DOCUMENT_VERSION, "payload": _TO_JSON[kind](value)}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def parse_document(text: str, expect: str | None = None):
    """(kind, value) from a document string; FormatError on any defect."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer past the digit limit;
        # RecursionError: nesting deeper than the interpreter's stack
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FormatError(f"unknown document kind {kind!r}")
    if not _is_int(doc.get("version")) or doc["version"] != DOCUMENT_VERSION:
        raise FormatError(f"unsupported document version {doc.get('version')!r}")
    if expect is not None and kind != expect:
        raise FormatError(f"expected a {expect} document, got {kind}")
    if "payload" not in doc:
        raise FormatError("document missing payload")
    return kind, _FROM_JSON[kind](doc["payload"])


def write_document(path, kind: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(kind, value))


def read_document(path, expect: str | None = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_document(text, expect)


__all__ = [
    "FormatError",
    "DOCUMENT_VERSION",
    "KINDS",
    "MAX_DEGREE",
    "MAX_EPS_EXPONENT",
    "MAX_MONOMIALS",
    "MAX_NVARS",
    "border_from_json",
    "border_to_json",
    "check_shape",
    "dumps_document",
    "eps_poly_from_json",
    "eps_poly_to_json",
    "eps_scalar_from_json",
    "eps_scalar_to_json",
    "parse_document",
    "poly_from_json",
    "poly_to_json",
    "rational_from_str",
    "rational_to_str",
    "read_document",
    "report_from_json",
    "report_to_json",
    "waring_from_json",
    "waring_to_json",
    "write_document",
]
