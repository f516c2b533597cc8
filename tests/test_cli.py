"""End-to-end command-line behavior, including exit codes and diagnostics."""

import importlib
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from waring import (
    CertificateCheckError,
    DeborderConfig,
    EpsScalar,
    LinearForm,
    paper_bound,
)
from waring.cli import MAX_BOUND_DIGITS, MAX_CATALECTICANT_ENTRIES, MAX_RANDOM_RANK, main
from waring.decomp import BorderDecomposition
from waring.serialize import (
    MAX_DEGREE,
    MAX_EPS_EXPONENT,
    MAX_NVARS,
    parse_document,
    read_document,
    write_document,
)
from conftest import FRESH_ENV, F, mono


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen_verify_deborder_verify_pipeline(workdir):
    code, out, err = run_cli(["gen", "--family", "tangent", "--d", "3"])
    assert code == 0, err
    info = json.loads(out)
    assert info["verified"] is True
    poly, border = info["poly"], info["border"]
    assert (workdir / poly).exists() and (workdir / border).exists()

    code, out, _ = run_cli(["verify", "--type", "border", border, poly])
    assert code == 0
    assert json.loads(out) == {"ok": True, "q": 1}

    code, out, _ = run_cli(
        ["deborder", "--border", border, "--poly", poly, "--out", "w.json", "--report", "r.json"]
    )
    assert code == 0
    kind, payload = parse_document(out)
    assert kind == "report"
    assert payload["verified"] is True
    assert 3 <= payload["achieved_rank"] <= 4
    assert payload["paper_bound"] == 54242
    assert [t["case"] for t in payload["trace"]][0] == "LOCAL"

    code, out, _ = run_cli(["verify", "--type", "waring", "w.json", poly])
    assert code == 0
    assert json.loads(out) == {"ok": True}

    # the report written to disk matches the one on stdout
    _, disk = read_document(workdir / "r.json", "report")
    assert disk == payload


def test_report_carries_the_full_flag_set(workdir):
    run_cli(["gen", "--family", "tangent", "--d", "4"])
    code, out, _ = run_cli(
        [
            "deborder",
            "--border", "tangent_d4_border.json",
            "--poly", "tangent_d4_poly.json",
            "--base-threshold", "2",
            "--y-size", "3",
        ]
    )
    assert code == 0
    _, payload = parse_document(out)
    expected = asdict(DeborderConfig(base_threshold=2, y_size=3))
    assert payload["flags"] == expected == {"base_threshold": 2, "y_size": 3}
    assert "derivative_counts" not in payload
    for gone in (["--strengthened"], ["--seed", "5"]):
        code, _, err = run_cli(
            [
                "deborder",
                "--border", "tangent_d4_border.json",
                "--poly", "tangent_d4_poly.json",
                *gone,
            ]
        )
        assert code == 2 and gone[0] in err


def test_gen_explicit_output_paths(workdir):
    code, out, _ = run_cli(
        [
            "gen", "--family", "random", "--nvars", "2", "--rank", "3", "--d", "4",
            "--seed", "11", "--out-poly", "p.json", "--out-border", "b.json",
        ]
    )
    assert code == 0
    assert json.loads(out) == {"poly": "p.json", "border": "b.json", "verified": True}
    code, out, _ = run_cli(["verify", "--type", "border", "b.json", "p.json"])
    assert code == 0


def test_gen_random_at_the_rank_ceiling_writes_a_verified_pair(workdir):
    # every shape inside the ceilings builds: no draw is rejected
    assert MAX_RANDOM_RANK == 16
    code, out, err = run_cli(["gen", "--family", "random", "--nvars", "4", "--d", "3",
                              "--rank", "16", "--seed", "7"])
    assert code == 0, err
    info = json.loads(out)
    assert info == {"poly": "random_d3_n4_r16_s7_poly.json",
                    "border": "random_d3_n4_r16_s7_border.json", "verified": True}
    _, B = read_document(info["border"], "border")
    assert B.rank() == 16
    code, out, _ = run_cli(["verify", "--type", "border", info["border"], info["poly"]])
    assert code == 0 and json.loads(out)["ok"] is True


def test_gen_osculating_and_multibase_names(workdir):
    code, out, _ = run_cli(["gen", "--family", "osculating", "--d", "5", "--j", "2"])
    assert code == 0
    assert json.loads(out)["poly"] == "osculating_d5_j2_poly.json"
    code, out, _ = run_cli(["gen", "--family", "multibase", "--d", "5"])
    assert code == 0
    assert json.loads(out)["border"] == "multibase_d5_border.json"


GEN_FAMILIES = (
    ["--family", "tangent", "--d", "4"],
    ["--family", "osculating", "--d", "6", "--j", "2"],
    ["--family", "multibase", "--d", "5"],
    ["--family", "random", "--nvars", "3", "--d", "4", "--rank", "5", "--seed", "3"],
)


def test_gen_verifies_in_the_generator_and_not_again(workdir, monkeypatch):
    import waring.cli
    import waring.oracle

    real = waring.oracle.check_border
    calls = {"cli": 0, "oracle": 0}

    def counted(where):
        def check(B, f):
            calls[where] += 1
            return real(B, f)
        return check

    monkeypatch.setattr(waring.cli, "check_border", counted("cli"))
    monkeypatch.setattr(waring.oracle, "check_border", counted("oracle"))
    for argv in GEN_FAMILIES:
        code, out, err = run_cli(["gen"] + argv)
        assert code == 0 and json.loads(out)["verified"] is True, err
    # the closed-form families verify once each; random verifies by taking its limit
    assert calls == {"cli": 0, "oracle": 3}


@pytest.mark.parametrize("kind", ["polynomial", "border"])
def test_gen_refuses_a_file_that_does_not_read_back_as_the_pair(workdir, monkeypatch, kind):
    import waring.cli

    real = waring.cli.write_document

    def tampered(path, what, obj):
        if what == kind == "polynomial":
            obj = obj.scale(2)
        elif what == kind == "border":
            obj = BorderDecomposition(obj.nvars, obj.degree, obj.summands[1:])
        return real(path, what, obj)

    monkeypatch.setattr(waring.cli, "write_document", tampered)
    for argv in GEN_FAMILIES:
        code, out, err = run_cli(["gen"] + argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "read back" in err


def test_verify_reports_a_null_q_on_an_exact_certificate(workdir):
    # xy = (x+y)^2/4 - (x-y)^2/4, with no eps anywhere: q is null, not absent
    B = BorderDecomposition(2, 2, ((F(1, 4), LinearForm((F(1), F(1)))),
                                   (F(-1, 4), LinearForm((F(1), F(-1))))))
    write_document("exact_border.json", "border", B)
    write_document("target.json", "polynomial", mono(2, (1, 1)))
    code, out, _ = run_cli(["verify", "--type", "border", "exact_border.json", "target.json"])
    assert code == 0
    assert json.loads(out) == {"ok": True, "q": None}
    assert '"q": null' in out


def test_verify_failure_is_exit_one(workdir):
    # a certificate with a pole: eps^-1 * x^3 against x^3
    B = BorderDecomposition(2, 3, ((EpsScalar.eps(-1), LinearForm.variable(2, 0)),))
    write_document("bad_border.json", "border", B)
    write_document("target.json", "polynomial", mono(2, (3, 0)))
    code, out, _ = run_cli(["verify", "--type", "border", "bad_border.json", "target.json"])
    assert code == 1
    diag = json.loads(out)
    assert diag["ok"] is False and "pole" in diag["reason"]

    code, _, err = run_cli(
        ["deborder", "--border", "bad_border.json", "--poly", "target.json"]
    )
    assert code == 1
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "verification"


def test_verify_wrong_waring_is_exit_one(workdir):
    run_cli(["gen", "--family", "tangent", "--d", "3"])
    from waring import WaringDecomposition

    W = WaringDecomposition(2, 3, ((F(1), LinearForm.variable(2, 0)),))
    write_document("wrong.json", "waring", W)
    code, out, _ = run_cli(["verify", "--type", "waring", "wrong.json", "tangent_d3_poly.json"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_malformed_input_is_exit_two(workdir):
    (workdir / "broken.json").write_text("{ not json", encoding="utf-8")
    code, _, err = run_cli(["oracle", "broken.json"])
    assert code == 2 and "error:" in err

    run_cli(["gen", "--family", "tangent", "--d", "3"])
    # wrong document kind in a polynomial slot
    code, _, err = run_cli(
        ["verify", "--type", "border", "tangent_d3_poly.json", "tangent_d3_border.json"]
    )
    assert code == 2

    code, _, err = run_cli(["gen", "--family", "random", "--d", "3"])
    assert code == 2  # missing nvars and rank

    code, _, _ = run_cli(["bound", "--d", "3"])
    assert code == 2  # argparse rejects the missing --r

    code, _, _ = run_cli(["frobnicate"])
    assert code == 2

    # JSON booleans where integers are required
    bools = {"nvars": True, "degree": True, "terms": [{"exps": [True], "coef": "3"}]}
    doc = {"kind": "polynomial", "version": 1, "payload": bools}
    (workdir / "bools.json").write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["oracle", "bools.json"])
    assert code == 2 and "error:" in err


def test_oversized_documents_exit_two_before_any_work(workdir):
    # one step past the degree ceiling: a single power x^1001 to verify
    shape = {"nvars": 2, "degree": MAX_DEGREE + 1}
    summand = {"weight": "1", "form": {"coefs": ["1", "0"]}}
    for name, kind, payload in (("p.json", "polynomial", {**shape, "terms": []}),
                                ("w.json", "waring", {**shape, "summands": [summand]})):
        doc = {"kind": kind, "version": 1, "payload": payload}
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["verify", "--type", "waring", "w.json", "p.json"], ["oracle", "p.json"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and "ceiling" in err


def test_eps_exponent_past_the_ceiling_exits_two(workdir):
    # tangent d = 3 whose moving form carries 1 + eps**(ceiling + 1): refused
    # by verify and deborder before any expansion
    assert run_cli(["gen", "--family", "tangent", "--d", "3"])[0] == 0
    doc = json.loads((workdir / "tangent_d3_border.json").read_text(encoding="utf-8"))
    doc["payload"]["summands"][0]["form"]["coefs"][1]["num"].append([MAX_EPS_EXPONENT + 1, "1"])
    (workdir / "b.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["verify", "--type", "border", "b.json", "tangent_d3_poly.json"],
                 ["deborder", "--border", "b.json", "--poly", "tangent_d3_poly.json"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and "ceiling" in err


def test_oracle_refuses_catalecticants_past_the_ceiling(workdir):
    # x^d in 3 variables: degree 440 (97,461 monomials, catalecticants of
    # about 6e8 entries), then the first degree past the catalecticant
    # ceiling and the last one inside it
    past = next(d for d in range(MAX_DEGREE) if comb(d + 5, d) > MAX_CATALECTICANT_ENTRIES)
    for degree in (440, past, past - 1):
        payload = {"nvars": 3, "degree": degree,
                   "terms": [{"exps": [degree, 0, 0], "coef": "1"}]}
        doc = {"kind": "polynomial", "version": 1, "payload": payload}
        (workdir / "p.json").write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["oracle", "p.json"])
        if degree < past:
            assert code == 0 and json.loads(out)["catalecticant"] == [1] * (degree + 1)
        else:
            assert code == 2 and out == "" and "ceiling" in err


def test_largest_shipped_family_passes_every_ceiling(workdir):
    assert run_cli(["gen", "--family", "multibase", "--d", "12"])[0] == 0
    code, out, _ = run_cli(["oracle", "multibase_d12_poly.json"])
    assert code == 0 and json.loads(out)["catalecticant"] == [1] + [4] * 11 + [1]


def test_gen_past_the_degree_ceiling_writes_nothing(workdir):
    code, out, err = run_cli(["gen", "--family", "tangent", "--d", str(MAX_DEGREE + 1)])
    assert code == 2 and out == "" and "ceiling" in err
    assert list(workdir.iterdir()) == []


def test_gen_checks_the_shape_before_the_generator_runs(workdir, monkeypatch):
    import waring.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the generator ran")

    monkeypatch.setattr(waring.cli, "gen_family", refuse)
    for argv, says in ((["--family", "tangent", "--d", "1000000"], "ceiling"),
                       (["--family", "multibase", "--d", "21"], "2000 monomials"),
                       (["--family", "random", "--nvars", "65", "--d", "3", "--rank", "2"],
                        "ceiling"),
                       (["--family", "random", "--nvars", "2", "--d", "3",
                         "--rank", str(MAX_RANDOM_RANK + 1)], "ceiling")):
        code, out, err = run_cli(["gen"] + argv)
        assert code == 2 and out == "" and says in err
    assert list(workdir.iterdir()) == []


def test_deborder_rejects_y_size_below_one(workdir):
    run_cli(["gen", "--family", "tangent", "--d", "4"])
    for bad in ("0", "-2"):
        code, out, err = run_cli(
            [
                "deborder",
                "--border", "tangent_d4_border.json",
                "--poly", "tangent_d4_poly.json",
                "--y-size", bad,
            ]
        )
        assert code == 2 and out == "" and "y_size" in err


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0


def test_oracle_binary_and_catalecticant(workdir):
    run_cli(["gen", "--family", "tangent", "--d", "3"])
    code, out, _ = run_cli(["oracle", "tangent_d3_poly.json", "--binary"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "nvars": 2,
        "degree": 3,
        "catalecticant": [1, 2, 2, 1],
        "wr": 3,
        "bwr": 2,
    }


def test_oracle_binary_rejects_more_variables(workdir):
    run_cli(["gen", "--family", "multibase", "--d", "4"])
    code, _, err = run_cli(["oracle", "multibase_d4_poly.json", "--binary"])
    assert code == 2
    assert "--binary" in err
    # without the flag the catalecticant profile still works
    code, out, _ = run_cli(["oracle", "multibase_d4_poly.json"])
    assert code == 0
    assert json.loads(out)["nvars"] == 4


def test_bound_prints_the_frozen_ceiling():
    code, out, _ = run_cli(["bound", "--d", "3", "--r", "2"])
    assert code == 0
    assert out.strip() == "54242"
    code, out, _ = run_cli(["bound", "--d", "7", "--r", "1"])
    assert out.strip() == "7"


@pytest.fixture
def str_digits_4300():
    """Python's default limit on converting an int to a string, which every
    ceiling `bound` prints fits under."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_bound_refuses_a_ceiling_past_the_printable_digits(str_digits_4300):
    # at d = 61,359,063 the last printable r is the square 68**2 = 4624,
    # whose ceiling is exact and has exactly MAX_BOUND_DIGITS = 2500 digits
    code, out, _ = run_cli(["bound", "--d", "61359063", "--r", "4624"])
    assert code == 0
    assert out.strip() == str(paper_bound(61_359_063, 4624))
    assert len(out.strip()) == MAX_BOUND_DIGITS == 2500
    # the next r, and the first r past the limit at d = 3, are refused
    # before the ceiling is computed (which would take about a second)
    for d, r, digits in (("61359063", "4625", 2501), ("3", "4646", 2501), ("3", "12100", 4492)):
        t0 = time.perf_counter()
        code, out, err = run_cli(["bound", "--d", d, "--r", r])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert f"r = {r}" in err and f"{digits} decimal digits" in err


@pytest.fixture
def no_str_digits_limit():
    """Ints of any length convert to strings, as under PYTHONINTMAXSTRDIGITS=0
    or on Python before 3.10.7, which has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_bound_ceiling_does_not_depend_on_the_interpreter(no_str_digits_limit):
    # the ceiling is refused from its digit count alone, before it is computed
    past = MAX_BOUND_DIGITS + 1
    for d, r, digits in (("3", "4646", past), ("3", "12100", 4492),
                         (str(10**MAX_BOUND_DIGITS), "1", past)):
        t0 = time.perf_counter()
        code, out, err = run_cli(["bound", "--d", d, "--r", r])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"r = {r} has {digits} decimal digits" in err


def test_lemma_failure_maps_to_exit_three(workdir, monkeypatch):
    run_cli(["gen", "--family", "tangent", "--d", "3"])

    def boom(f, B, cfg):
        raise CertificateCheckError(
            "group-convergence", "a group diverges", witness={"base": ["1/1", "0/1"]}
        )

    # cmd_deborder imports the route when it runs, so the patch goes on the
    # binding that import reads
    monkeypatch.setattr(importlib.import_module("waring.deborder"), "deborder", boom)
    code, _, err = run_cli(
        ["deborder", "--border", "tangent_d3_border.json", "--poly", "tangent_d3_poly.json"]
    )
    assert code == 3
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["lemma"] == "group-convergence"
    assert diag["witness"] == {"base": ["1/1", "0/1"]}


def test_module_entry_point_roundtrip(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "waring.cli", "bound", "--d", "2", "--r", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=FRESH_ENV,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "2"


def test_installed_entry_point_roundtrip():
    exe = shutil.which("waring")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run(
        [exe, "bound", "--d", "3", "--r", "2"], capture_output=True, text=True
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "54242"


# -- every subcommand on bad parameters and documents --------------------------


def _gen(*argv):
    return ["gen", *argv, "--out-poly", "p_out.json", "--out-border", "b_out.json"]


def _bad_parameters():
    """(argv, expected exit): zero, negative and one past each ceiling."""
    bad = ("0", "-1")
    grid = []
    for family in ("tangent", "multibase"):
        grid += [(_gen("--family", family, "--d", d), 2) for d in bad + (str(MAX_DEGREE + 1),)]
    # j runs from 1 to d - 1
    grid += [(_gen("--family", "osculating", "--d", "6", "--j", j), 2) for j in bad + ("6",)]
    grid += [(_gen("--family", "osculating", "--d", d, "--j", "1"), 2)
             for d in bad + (str(MAX_DEGREE + 1),)]
    # the random family with one flag bad at a time
    good = {"--nvars": "3", "--d": "3", "--rank": "2"}
    past = {"--nvars": MAX_NVARS + 1, "--d": MAX_DEGREE + 1, "--rank": MAX_RANDOM_RANK + 1}
    for flag, over in past.items():
        for value in bad + (str(over),):
            args = {**good, flag: value}
            grid.append((_gen("--family", "random", *[x for kv in args.items() for x in kv]), 2))
    debord = ["deborder", "--border", "b.json", "--poly", "p.json"]
    grid += [(debord + ["--y-size", y], 2) for y in bad]
    # neither knob has a ceiling: a Y block wider than the variables, or any
    # threshold, leaves the tangent certificate on its dense route
    grid += [(debord + ["--y-size", str(10**6)], 0)]
    grid += [(debord + ["--base-threshold", t], 0) for t in bad + (str(10**6),)]
    grid += [(["bound", "--d", d, "--r", "2"], 2) for d in bad]
    grid += [(["bound", "--d", "3", "--r", r], 2) for r in bad + ("11262",)]
    return grid


def _assert_clean_exit(argv, expected=None):
    code, out, err = run_cli(argv)
    assert 0 <= code <= 3 and "Traceback" not in err, (argv, code, err)
    if expected is not None:
        assert code == expected, (argv, code, err)
    if code == 2:
        assert err.strip(), argv


@pytest.fixture
def documents(workdir):
    """p.json, b.json and w.json: the tangent d = 3 pipeline's documents."""
    run_cli(["gen", "--family", "tangent", "--d", "3", "--out-poly", "p.json",
             "--out-border", "b.json"])
    run_cli(["deborder", "--border", "b.json", "--poly", "p.json", "--out", "w.json"])
    return workdir


def _id(argv):
    return " ".join(a for a in argv if not a.endswith(".json")
                    and a not in ("--out-poly", "--out-border", "--border", "--poly"))


@pytest.mark.parametrize("argv,expected",
                         [pytest.param(a, e, id=_id(a)) for a, e in _bad_parameters()])
def test_bad_parameters_exit_cleanly(documents, argv, expected):
    _assert_clean_exit(argv, expected)


def _readers(path):
    """Every subcommand run with ``path`` in each document slot."""
    return [
        ["verify", "--type", "waring", path, "p.json"],
        ["verify", "--type", "waring", "w.json", path],
        ["verify", "--type", "border", path, "p.json"],
        ["deborder", "--border", path, "--poly", "p.json"],
        ["deborder", "--border", "b.json", "--poly", path],
        ["oracle", path],
        ["oracle", "--binary", path],
    ]


BROKEN_DOCUMENTS = {
    "missing.json": None,
    "empty.json": "",
    "not_json.json": "{ not json",
    "list.json": "[]",
    "no_kind.json": json.dumps({"version": 1, "payload": {}}),
    "bad_version.json": json.dumps({"kind": "polynomial", "version": 99, "payload": {}}),
    "no_payload.json": json.dumps({"kind": "polynomial", "version": 1}),
}


@pytest.mark.parametrize("name", sorted(BROKEN_DOCUMENTS) + ["."])
def test_missing_and_malformed_documents_exit_two(documents, name):
    if BROKEN_DOCUMENTS.get(name) is not None:
        (documents / name).write_text(BROKEN_DOCUMENTS[name], encoding="utf-8")
    for argv in _readers(name):
        _assert_clean_exit(argv, 2)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


JUNK = st.sampled_from([
    None, True, 0, -1, 1.5, 2**70, MAX_DEGREE + 1, MAX_EPS_EXPONENT + 1, "", "x", "1/0",
    "-3/2", "9" * 5000, [], {}, [[0, "1/1"]], [[-1, "1/1"]], {"num": [], "den": []},
])


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(documents, data):
    # one node of one valid document replaced by junk, or deleted
    name = data.draw(st.sampled_from(["p.json", "b.json", "w.json"]))
    doc = json.loads((documents / name).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JUNK)
    (documents / "m.json").write_text(json.dumps(doc), encoding="utf-8")
    for argv in _readers("m.json"):
        _assert_clean_exit(argv)
