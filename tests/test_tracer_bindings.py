"""Every name the benchmark's layer tracer wraps still exists in waring.

``bench/tracer.py`` patches functions and methods by name from outside the
package; a rename or deletion there would make ``bench/run.py --trace 1``
fail, which only the benchmark's own smoke test would otherwise notice.
The tracer module is imported read-only and never installed here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
