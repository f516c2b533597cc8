"""Every exported name resolves, so a deletion cannot leave a stale export;
every imported name is used, so a move cannot leave a stale import; a
re-import leaves no earlier generation of the package alive."""

import ast
import importlib
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import waring

MODULES = ["waring"] + [
    f"waring.{info.name}" for info in pkgutil.iter_modules(waring.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "HomoPoly | None"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    keep = _used_names(tree) | set(getattr(module, "__all__", []))
    unused = sorted(set(_imported_names(tree)) - keep)
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_reimporting_the_package_keeps_no_old_generation_alive():
    # A module-level typing subscript such as Tuple[EpsScalar, ...] lands in
    # typing's global cache, which then pins that import's classes and,
    # through their methods' globals, the whole old module namespace.  The
    # count runs in a fresh interpreter, so this suite's imports stay as
    # they are.  Each import reads a deferred name, so the route modules
    # load too.
    code = textwrap.dedent(
        """
        import gc, importlib, sys
        sys.path.insert(0, sys.argv[1])
        importlib.import_module("waring").DeborderConfig
        for _ in range(5):
            for name in list(sys.modules):
                if name.split(".")[0] == "waring":
                    del sys.modules[name]
            importlib.import_module("waring").DeborderConfig
        gc.collect()
        print(sum(1 for o in gc.get_objects()
                  if isinstance(o, dict) and o.get("__name__") == "waring.epsilon"))
        """
    )
    src = str(Path(waring.__file__).resolve().parent.parent)
    res = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "1"
