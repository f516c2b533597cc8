"""The command line in fresh interpreters: each step loads what it runs.

The other CLI tests call ``main`` in this process, where the whole package
is already loaded, so a deferred import that goes missing would still pass
there.  Here every step is a new ``python -m waring.cli`` process.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from waring.serialize import parse_document
from conftest import FRESH_ENV

ROUTE = {"waring.diagonal", "waring.deborder"}
STEPS = {
    "gen": ["gen", "--family", "osculating", "--d", "6", "--j", "2",
            "--out-poly", "p.json", "--out-border", "b.json"],
    "deborder": ["deborder", "--border", "b.json", "--poly", "p.json", "--out", "w.json"],
    "verify": ["verify", "--type", "waring", "w.json", "p.json"],
    "oracle": ["oracle", "p.json", "--binary"],
}


def run_fresh(cwd, argv):
    """One `python -m waring.cli` process: (result, the modules it imported)."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "waring.cli", *argv],
        cwd=cwd, env=FRESH_ENV, capture_output=True, text=True, timeout=120,
    )
    imported = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")}
    return res, imported


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> deborder -> verify -> oracle on osculating (6, 2), in order."""
    cwd = tmp_path_factory.mktemp("pipeline")
    return {step: run_fresh(cwd, argv) for step, argv in STEPS.items()}


def test_pipeline_runs_in_fresh_interpreters(pipeline):
    for step, (res, _) in pipeline.items():
        assert res.returncode == 0, f"{step}: {res.stderr[-2000:]}"
    out = {step: res.stdout for step, (res, _) in pipeline.items()}
    assert json.loads(out["gen"]) == {"poly": "p.json", "border": "b.json", "verified": True}
    kind, report = parse_document(out["deborder"])
    assert kind == "report" and report["verified"] is True
    # Sylvester: x^4 y^2 has Waring rank 5 and border rank 3
    assert 5 <= report["achieved_rank"] <= report["paper_bound"]
    assert json.loads(out["verify"]) == {"ok": True}
    assert json.loads(out["oracle"]) == {
        "nvars": 2, "degree": 6, "catalecticant": [1, 2, 3, 3, 3, 2, 1], "wr": 5, "bwr": 3,
    }


@pytest.mark.parametrize("step", STEPS)
def test_only_deborder_loads_the_route_modules(pipeline, step):
    res, imported = pipeline[step]
    assert res.returncode == 0, res.stderr[-2000:]
    assert "waring.serialize" in imported  # the import log was read
    assert imported & ROUTE == (ROUTE if step == "deborder" else set())
    # the steps that never deborder hold no dataclass
    assert ("dataclasses" in imported) == (step == "deborder")


CASES = {
    "import waring": "import waring",
    "from waring import DeborderConfig": "from waring import DeborderConfig",
    "submodule first": """
        import importlib
        importlib.import_module("waring.deborder")
        import waring
    """,
    "cli deborder in-process": """
        from waring.cli import main
        main(["gen", "--family", "tangent", "--d", "3"])
        main(["deborder", "--border", "tangent_d3_border.json",
              "--poly", "tangent_d3_poly.json"])
    """,
}


@pytest.mark.parametrize("case", CASES)
def test_package_deborder_stays_the_function(case, tmp_path):
    probe = """
        import json, sys, types
        pkg = sys.modules["waring"]
        fn = pkg.deborder
        print(json.dumps({
            "callable": callable(fn),
            "module": isinstance(fn, types.ModuleType),
            "same": fn is sys.modules["waring.deborder"].deborder,
            "undir": sorted(set(pkg.__all__) - set(dir(pkg))),
        }))
    """
    code = textwrap.dedent(CASES[case]) + textwrap.dedent(probe)
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=FRESH_ENV,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.strip().splitlines()[-1])
    assert got == {"callable": True, "module": False, "same": True, "undir": []}
