"""JSON document round-trips and strict input validation."""

import json
import random
from copy import deepcopy
from dataclasses import asdict
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from waring import DeborderConfig, EpsPoly, EpsScalar, FormatError, deborder
from waring.deborder import dense_decompose
from waring.oracle import gen_osculating, gen_random, gen_tangent
from waring.serialize import (
    MAX_DEGREE,
    MAX_EPS_EXPONENT,
    MAX_MONOMIALS,
    MAX_NVARS,
    border_from_json,
    border_to_json,
    dumps_document,
    eps_poly_from_json,
    eps_poly_to_json,
    eps_scalar_from_json,
    eps_scalar_to_json,
    parse_document,
    poly_from_json,
    poly_to_json,
    rational_from_str,
    rational_to_str,
    read_document,
    report_to_json,
    waring_from_json,
    waring_to_json,
    write_document,
)
from conftest import F, epoly, esc, rand_poly


def test_rational_strings():
    # always "p/q" in lowest terms, q > 0, even for integers
    assert rational_to_str(F(3, 4)) == "3/4"
    assert rational_to_str(F(-5)) == "-5/1"
    assert rational_to_str(F(0)) == "0/1"
    assert rational_from_str("7") == F(7)
    assert rational_from_str("-7/2") == F(-7, 2)
    assert rational_from_str("14/4") == F(7, 2)


def test_rational_strings_reject_junk():
    for bad in ("1.5", "a/b", "", "1/0", "1/2/3", None, 3):
        with pytest.raises(FormatError):
            rational_from_str(bad)


def test_eps_poly_json_is_ascending_pairs():
    p = epoly((3, F(1, 2)), (0, -2))
    obj = eps_poly_to_json(p)
    assert obj == [[0, "-2/1"], [3, "1/2"]]
    assert eps_poly_from_json(obj) == p
    assert eps_poly_from_json([]) == EpsPoly.zero()


def test_eps_poly_json_rejects_junk():
    for bad in ([[0]], [["x", "1"]], [[0, "1.5"]], "nope", [[0, "1"], [0, "2"]]):
        with pytest.raises(FormatError):
            eps_poly_from_json(bad)


def test_eps_scalar_json_roundtrip():
    s = EpsScalar(epoly((0, 1), (1, 1)), epoly((0, 1), (2, -3)))
    obj = eps_scalar_to_json(s)
    assert set(obj) == {"num", "den"}
    assert eps_scalar_from_json(obj) == s
    with pytest.raises(FormatError):
        eps_scalar_from_json({"num": [[0, "1"]]})
    with pytest.raises(FormatError):
        eps_scalar_from_json({"num": [[0, "1"]], "den": []})  # zero denominator


def test_polynomial_document_roundtrip():
    rng = random.Random(61)
    for _ in range(20):
        f = rand_poly(rng, rng.randint(1, 3), rng.randint(1, 4))
        text = dumps_document("polynomial", f)
        kind, back = parse_document(text)
        assert kind == "polynomial" and back == f
        assert dumps_document("polynomial", back) == text


def test_border_and_waring_document_roundtrip():
    rng = random.Random(67)
    for seed in range(10):
        f, B = gen_random(rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 3), seed=seed)
        t1 = dumps_document("border", B)
        k1, B2 = parse_document(t1)
        assert k1 == "border" and B2 == B
        assert dumps_document("border", B2) == t1

        W = dense_decompose(f) if f.degree >= 1 else None
        t2 = dumps_document("waring", W)
        k2, W2 = parse_document(t2)
        assert k2 == "waring" and W2 == W
        assert dumps_document("waring", W2) == t2


def test_report_document_roundtrip():
    f, B = gen_tangent(3)
    cfg = DeborderConfig(base_threshold=3)
    _, report = deborder(f, B, cfg)
    payload = report_to_json(report, asdict(cfg))
    text = dumps_document("report", payload)
    kind, back = parse_document(text, expect="report")
    assert kind == "report"
    assert back == payload
    assert back["flags"]["base_threshold"] == 3
    assert set(back["flags"]) == set(asdict(DeborderConfig()))
    assert dumps_document("report", back) == text


# A version-1 report as written before the report lost its derivative_counts
# key and the strengthened, dense_retries and check_levels flags (tangent
# d = 3, --y-size 1 --base-threshold 1 --strengthened).
OLDER_REPORT = """{
  "kind": "report",
  "payload": {
    "achieved_rank": 4,
    "derivative_counts": [[1, 1, 1, 1]],
    "flags": {"base_threshold": 1, "check_levels": true, "dense_retries": 32,
              "seed": 0, "strengthened": true, "y_size": 1},
    "paper_bound": 54242,
    "trace": [
      {"branch_i": 0, "branch_k": 0, "case": "LOCAL", "degree": 3, "rank": 2},
      {"branch_i": 1, "branch_k": 1, "case": "LOCAL", "degree": 2, "rank": 1}
    ],
    "verified": true
  },
  "version": 1
}
"""


def test_older_version_one_report_still_reads(tmp_path):
    path = tmp_path / "old_report.json"
    path.write_text(OLDER_REPORT, encoding="utf-8")
    kind, payload = read_document(path, "report")
    assert kind == "report"
    assert payload["derivative_counts"] == [[1, 1, 1, 1]]
    assert payload["flags"]["strengthened"] is True
    assert payload["flags"]["check_levels"] is True
    assert payload["flags"]["dense_retries"] == 32
    # today's report of the same run carries the same trace and figures
    f, B = gen_tangent(3)
    cfg = DeborderConfig(y_size=1, base_threshold=1)
    now = report_to_json(deborder(f, B, cfg)[1], asdict(cfg))
    assert set(payload) - set(now) == {"derivative_counts"}
    assert {k: payload[k] for k in now if k != "flags"} == {
        k: v for k, v in now.items() if k != "flags"
    }


def test_document_envelope_validation():
    f, _ = gen_tangent(3)
    good = dumps_document("polynomial", f)
    doc = json.loads(good)

    with pytest.raises(FormatError):
        parse_document("not json at all {")
    with pytest.raises(FormatError):
        parse_document(json.dumps([1, 2, 3]))
    with pytest.raises(FormatError):
        parse_document(json.dumps({**doc, "kind": "mystery"}))
    with pytest.raises(FormatError):
        parse_document(json.dumps({**doc, "version": 2}))
    with pytest.raises(FormatError):
        parse_document(json.dumps({"kind": "polynomial", "version": 1}))
    with pytest.raises(FormatError):
        parse_document(good, expect="border")
    with pytest.raises(FormatError):
        dumps_document("poem", f)


def test_polynomial_payload_validation():
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 2})
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 2, "terms": [[[1, 1], "1/1"]]})  # not an object
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 2, "terms": [{"exps": [1, 0], "coef": "1/1"}]})
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 2, "terms": [{"exps": [1, 1, 0], "coef": "1/1"}]})
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 2, "terms": [{"exps": [1, 1], "coef": "x"}]})
    dup = {"nvars": 2, "degree": 2, "terms": [
        {"exps": [1, 1], "coef": "1/1"}, {"exps": [1, 1], "coef": "2/1"},
    ]}
    with pytest.raises(FormatError):
        poly_from_json(dup)


def test_json_booleans_are_not_integers():
    # json loads true/false as bools, which Python also counts as ints
    bools = {"nvars": True, "degree": True, "terms": [{"exps": [True], "coef": "3"}]}
    doc = {"kind": "polynomial", "version": 1, "payload": bools}
    with pytest.raises(FormatError):
        parse_document(json.dumps(doc))
    for shape in ({"nvars": True, "degree": 1}, {"nvars": 1, "degree": False}):
        with pytest.raises(FormatError):
            poly_from_json({**shape, "terms": []})
    with pytest.raises(FormatError):
        poly_from_json({"nvars": 2, "degree": 1, "terms": [{"exps": [True, 0], "coef": "3"}]})
    with pytest.raises(FormatError):
        eps_poly_from_json([[True, "1/2"]])
    f, B = gen_tangent(3)
    border = json.loads(dumps_document("border", B))
    border["payload"]["summands"][0]["weight"]["num"][0][0] = False
    with pytest.raises(FormatError):
        parse_document(json.dumps(border))
    with pytest.raises(FormatError):
        parse_document(json.dumps({**json.loads(dumps_document("polynomial", f)),
                                   "version": True}))


def test_shapes_past_the_ceilings_are_refused():
    # the first trivariate degree past the monomial ceiling, and the last inside it
    d = next(d for d in range(MAX_DEGREE) if comb(d + 2, 2) > MAX_MONOMIALS)
    past = [(MAX_NVARS + 1, 1), (1, MAX_DEGREE + 1), (3, d)]
    inside = [(MAX_NVARS, 1), (2, MAX_DEGREE), (3, d - 1)]
    one = {"num": [[0, "1/1"]], "den": [[0, "1/1"]]}
    for nvars, degree in past:
        payloads = {
            "polynomial": {"terms": []},
            "waring": {"summands": [{"weight": "1", "form": {"coefs": ["1"] * nvars}}]},
            "border": {"summands": [{"weight": one, "form": {"coefs": [one] * nvars}}]},
        }
        for kind, payload in payloads.items():
            doc = {"kind": kind, "version": 1,
                   "payload": {"nvars": nvars, "degree": degree, **payload}}
            with pytest.raises(FormatError, match="ceiling|monomials"):
                parse_document(json.dumps(doc))
    for nvars, degree in inside:
        assert poly_from_json({"nvars": nvars, "degree": degree, "terms": []}).is_zero


def test_eps_exponents_past_the_ceiling_are_refused():
    # the largest exponent gen writes (osculating j = 63 at degree 64) reads;
    # one past the ceiling is refused wherever it sits, before any EpsPoly
    # is built
    _, B = gen_osculating(MAX_DEGREE, MAX_DEGREE - 1)
    assert parse_document(dumps_document("border", B))[1] == B
    assert eps_poly_from_json([[MAX_EPS_EXPONENT, "1"]]) == EpsPoly({MAX_EPS_EXPONENT: F(1)})
    _, B = gen_tangent(3)
    doc = json.loads(dumps_document("border", B))
    summand = doc["payload"]["summands"][0]
    weight, coef = summand["weight"], summand["form"]["coefs"][1]
    for target in (weight["num"], weight["den"], coef["num"]):
        saved = list(target)
        target.append([MAX_EPS_EXPONENT + 1, "1"])
        with pytest.raises(FormatError, match="ceiling"):
            parse_document(json.dumps(doc))
        target[:] = saved
    assert parse_document(json.dumps(doc))[1] == B


def test_decomposition_payload_validation():
    f, B = gen_tangent(3)
    obj = border_to_json(B)
    broken = json.loads(json.dumps(obj))
    broken["summands"][0][0] = {"num": [[0, "1"]], "den": []}
    with pytest.raises(FormatError):
        border_from_json(broken)
    wobj = waring_to_json(dense_decompose(f))
    broken2 = json.loads(json.dumps(wobj))
    broken2["summands"][0][0] = "1/0"
    with pytest.raises(FormatError):
        waring_from_json(broken2)
    with pytest.raises(FormatError):
        waring_from_json({"nvars": 2, "degree": 2})


def test_files_roundtrip(tmp_path):
    f, B = gen_tangent(4)
    p = tmp_path / "f.json"
    write_document(p, "polynomial", f)
    kind, back = read_document(p, "polynomial")
    assert back == f
    with pytest.raises(FormatError):
        read_document(tmp_path / "missing.json")
    with pytest.raises(FormatError):
        read_document(p, "waring")


def test_documents_end_with_newline_and_sorted_keys():
    f, _ = gen_tangent(3)
    text = dumps_document("polynomial", f)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


# -- parse_document under mutation: only FormatError escapes -------------------


def _valid_documents():
    f, B = gen_tangent(3)
    f2, B2 = gen_random(3, 3, 3, seed=1)
    W, report = deborder(f, B)
    return [json.loads(dumps_document(kind, value)) for kind, value in (
        ("polynomial", f), ("polynomial", f2), ("border", B), ("border", B2),
        ("waring", W), ("report", report_to_json(report, asdict(DeborderConfig()))),
    )]


VALID_DOCUMENTS = _valid_documents()


def _paths(obj, path=()):
    """Every position in a JSON value, as the keys and indices leading to it."""
    yield path
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, path + (i,))


# values that do not belong: bools, floats and strings where ints belong,
# negative and oversized integers, zero denominators, wrong containers
junk = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=4),
    st.integers(-3, 3), st.integers(-10**30, 10**30),
    st.sampled_from([MAX_EPS_EXPONENT, MAX_EPS_EXPONENT + 1, MAX_DEGREE + 1, MAX_NVARS + 1,
                     "1/0", "0", "-1", "1/2", [], {}, [[0, "0"]], [[0, "1"], [0, "1"]]]),
)


@st.composite
def mutated_documents(draw):
    doc = deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = deepcopy(draw(junk))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, target = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["replace", "duplicate", "drop"]))
        if op == "duplicate" and isinstance(target, list) and target:
            # duplicate exponents, monomials and summands, or one entry too many
            target.append(deepcopy(draw(st.sampled_from(target))))
        elif op == "drop":
            # one entry or key too few: wrong arity, missing fields
            del parent[key]
        else:
            parent[key] = deepcopy(draw(junk))  # later mutations may edit it
    return doc


@settings(max_examples=400)
@given(mutated_documents())
def test_parse_document_lets_only_format_error_escape(doc):
    try:
        parse_document(json.dumps(doc))
    except FormatError:
        pass


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # nesting past the interpreter's stack
    '{"kind": "polynomial", "version": 1, "payload": {"nvars": ' + "1" * 5000 + "}}",
])
def test_json_the_decoder_refuses_is_a_format_error(text):
    with pytest.raises(FormatError, match="not valid JSON"):
        parse_document(text)
