"""Span tracing of the waring layers, installed from outside the package.

The tracer wraps public functions and methods of each waring module and
records one span per call: ``[name, start, end, parent, op_id]``.  Spans are
kept in memory and written out by the caller when the run ends.  The hottest
constructor, ``EpsScalar.__init__``, and ``EpsPoly.gcd`` get counters only,
because a span per scalar would swamp the run.

Patching rule: ``from .x import f`` gives every importing module its own
binding of ``f``, so a wrapper replaces *every* attribute of every loaded
``waring`` module that is the original object.  ``import waring.deborder``
would return the re-exported function, not the module, so modules are
fetched with ``importlib.import_module``.  ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Functions are patched wherever bound.
FUNCTIONS = [
    ("waring.linalg", "rat_solve", "linalg.rat_solve"),
    ("waring.linalg", "rat_inverse", "linalg.rat_inverse"),
    ("waring.linalg", "solve_vandermonde", "linalg.solve_vandermonde"),
    ("waring.decomp", "check_border", "decomp.check_border"),
    ("waring.decomp", "verify_waring", "decomp.verify_waring"),
    ("waring.decomp", "essential_reduce", "decomp.essential_reduce"),
    ("waring.decomp", "normalize_border", "decomp.normalize_border"),
    ("waring.diagonal", "diagonalize", "diagonal.diagonalize"),
    ("waring.diagonal", "derivative_decomposition", "diagonal.derivative_decomposition"),
    ("waring.diagonal", "staircase_check", "diagonal.staircase_check"),
    ("waring.deborder", "deborder", "deborder.deborder"),
    ("waring.deborder", "partition_into_local", "deborder.partition_into_local"),
    ("waring.deborder", "dense_decompose", "deborder.dense_decompose"),
    ("waring.deborder", "multiply_by_power", "deborder.multiply_by_power"),
    ("waring.deborder", "split_and_group", "deborder.split_and_group"),
    ("waring.deborder", "paper_bound", "deborder.paper_bound"),
    ("waring.oracle", "catalecticant_bound", "oracle.catalecticant_bound"),
    ("waring.serialize", "read_document", "serialize.read_document"),
    ("waring.serialize", "write_document", "serialize.write_document"),
    ("waring.cli", "cmd_gen", "cli.gen"),
    ("waring.cli", "cmd_deborder", "cli.deborder"),
    ("waring.cli", "cmd_verify", "cli.verify"),
    ("waring.cli", "cmd_oracle", "cli.oracle"),
]

# (module, class, method, span name).  A class holds its only binding.
METHODS = [
    ("waring.poly", "LinearForm", "power", "poly.LinearForm.power"),
    ("waring.poly", "HomoPoly", "substitute_linear", "poly.HomoPoly.substitute_linear"),
    ("waring.linalg", "EpsMatrix", "inverse", "linalg.EpsMatrix.inverse"),
    ("waring.decomp", "BorderDecomposition", "expand", "decomp.BorderDecomposition.expand"),
    ("waring.decomp", "WaringDecomposition", "expand", "decomp.WaringDecomposition.expand"),
]

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans while installed and ``op_id`` is set.

    ``op_id`` is None when not recording and the op's index during timed
    ops.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(int)
        self.op_id = None
        self._stack: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op_id]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if probe is not None:
                probe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted_init(self, orig, one):
        counts = self.counts

        def __init__(obj, num, den=None):
            if self.op_id is not None:
                counts["epsilon.scalars_built"] += 1
                if den is None or den == one:
                    counts["epsilon.trivial_den"] += 1
            orig(obj, num, den)

        return __init__

    def _counted_gcd(self, orig):
        counts = self.counts

        def gcd(a, b):
            if self.op_id is not None:
                counts["epsilon.gcd_calls"] += 1
            return orig(a, b)

        return staticmethod(gcd)

    # -- installation ----------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type)
                           else obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded ``waring`` module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("waring.cli")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "waring" or n.startswith("waring."))]
        probes = {
            "linalg.rat_solve": _probe_max_dim,
            "poly.LinearForm.power": _probe_power_terms,
            "serialize.write_document": _probe_bytes_written,
        }
        for modname, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig, probes.get(name))
            bound = 0
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {modname}.{attr} found")
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._set(cls, meth, self._wrap(name, cls.__dict__[meth], probes.get(name)))
        eps = importlib.import_module("waring.epsilon")
        self._set(eps.EpsScalar, "__init__",
                  self._counted_init(eps.EpsScalar.__dict__["__init__"], eps.EpsPoly.const(1)))
        self._set(eps.EpsPoly, "gcd", self._counted_gcd(eps.EpsPoly.__dict__["gcd"].__func__))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- aggregation -----------------------------------------------------

    def summary(self):
        """Per-name totals over the recorded spans.

        Returns ``{name: {"calls", "self_s"}}``.  Self time is a
        span's duration minus the durations of its direct children; spans
        nest in a single thread, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            agg = out[s[NAME]]
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
        return out

    def count_under(self, name, ancestor):
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        spans = self.spans
        under = [False] * len(spans)  # parents precede children
        n = 0
        for i, s in enumerate(spans):
            p = s[PARENT]
            under[i] = p >= 0 and (under[p] or spans[p][NAME] == ancestor)
            if under[i] and s[NAME] == name:
                n += 1
        return n


def _probe_max_dim(counts, args, result):
    counts["linalg.rat_solve.max_dim"] = max(counts["linalg.rat_solve.max_dim"], len(args[0]))


def _probe_power_terms(counts, args, result):
    counts["poly.power_terms"] += len(result)


def _probe_bytes_written(counts, args, result):
    counts["serialize.bytes_written"] += os.path.getsize(args[0])
