"""Every name the benchmark's layer tracer wraps still exists in waring.

``bench/tracer.py`` patches functions and methods by name from outside the
package; a rename or deletion there would make ``bench/run.py --trace 1``
fail, which only the benchmark's own smoke test would otherwise notice.
The tracer module is imported read-only and never installed here.  The
traced smoke runs at the end also catch a layer that still exists but no
longer records the calls ``bench/layers.json`` expects of it (its
``expect_calls``), as caching ``LinearForm.power`` in the dense solve would.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("waring_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracer()
    assert tracer.FUNCTIONS
    missing = [
        name
        for module, attr, name in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_traced_method_and_counter_exists():
    tracer = _load_tracer()
    assert tracer.METHODS
    # the two counters the tracer installs beside the spans
    targets = [(m, c, meth) for m, c, meth, _ in tracer.METHODS]
    targets += [("waring.epsilon", "EpsScalar", "__init__"), ("waring.epsilon", "EpsPoly", "gcd")]
    missing = [
        f"{module}.{cls}.{meth}"
        for module, cls, meth in targets
        if meth not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", ["cli", "dense", "families"])
def test_traced_smoke_run_records_every_expected_layer(workload):
    # about a second each; the run writes only under bench/out/
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
