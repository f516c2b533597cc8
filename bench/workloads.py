"""Inputs and operations of the three benchmark workloads.

A workload is built from the waring package object handed in (so the
tracer's wrappers, installed on that package, are the ones called) and from
the benchmark seed.  ``ops(pass_no)`` returns one pass over every input in
seed-shuffled order; ``check`` validates one op's output independently.
check.py, which imports sympy, is imported only inside ``check``: peak RSS
is read before the checks run and must not include sympy.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import resource
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, List


@dataclass
class Op:
    index: int  # which input; ops of one input share it across passes
    label: str
    run: Callable
    pass_no: int = 0


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# library workloads: one op is one deborder(f, B, cfg) call


class LibraryWorkload:
    kind = "library"

    def __init__(self, pkg, inputs, seed):
        """``inputs`` holds ``(label, f, B, cfg)``; op order is seeded."""
        self.pkg = pkg
        self.inputs = inputs
        self.order = _shuffled(range(len(inputs)), seed)

    def ops(self, pass_no) -> List[Op]:
        return [self._op(i) for i in self.order]

    def _op(self, i):
        label, f, B, cfg = self.inputs[i]
        pkg = self.pkg
        return Op(i, label, lambda: pkg.deborder(f, B, cfg))

    def check(self, op, out):
        """None when the output is correct, else the reason it is not."""
        from check import expands_to

        W, rep = out
        _, f, _, _ = self.inputs[op.index]
        if not rep.verified:
            return "report says unverified"
        if rep.achieved_rank != W.rank():
            return f"report rank {rep.achieved_rank} != {W.rank()} summands"
        if W.rank() > rep.paper_bound:
            return f"rank {W.rank()} exceeds paper_bound {rep.paper_bound}"
        summands = [(w, form.coefs) for w, form in W.summands]
        if not expands_to(f.nvars, f.degree, summands, dict(f.items())):
            return "re-expansion differs from the target"
        return None

    def rank_of(self, op, out):
        return out[1].achieved_rank

    def cases_of(self, op, out):
        return [t.case for t in out[1].trace]

    def document_of(self, op, out):
        ser = sys.modules["waring.serialize"]
        return ser.dumps_document("waring", out[0]).encode()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    def close(self):
        pass


def build_families(pkg, seed, smoke):
    """Tangent d = 3..20, osculating (10,4) and (12,5), multibase d = 5..12.

    Each certificate runs at the default config and at the forced split
    (y_size=1, base_threshold=1), the only route to the Y/Z recursion.
    """
    if smoke:
        certs = [("tangent3", pkg.gen_tangent(3)), ("multibase5", pkg.gen_multibase(5))]
    else:
        certs = [(f"tangent{d}", pkg.gen_tangent(d)) for d in range(3, 21)]
        certs += [(f"osculating{d}_{j}", pkg.gen_osculating(d, j)) for d, j in ((10, 4), (12, 5))]
        certs += [(f"multibase{d}", pkg.gen_multibase(d)) for d in range(5, 13)]
    configs = [("default", pkg.DeborderConfig()),
               ("forced", pkg.DeborderConfig(y_size=1, base_threshold=1))]
    inputs = [(f"{name}/{cname}", f, B, cfg)
              for name, (f, B) in certs for cname, cfg in configs]
    return LibraryWorkload(pkg, inputs, seed)


# (nvars, degree, osculating orders of the blocks, plain powers).  Four of
# twenty are the 35-unknown shape, so that p90 falls inside that group; every
# structure has degree < rank - 1, which sends the limit to the dense solve.
# Degree 4 is left out: at 35 unknowns and up, 100 ops no longer fit a run.
DENSE_STRUCTURES = [
    (4, 3, (1,), 3),
    (4, 3, (1,), 4),
    (4, 3, (1,), 5),
    (4, 3, (2,), 2),
    (4, 3, (2,), 3),
    (4, 3, (2,), 4),
    (4, 3, (2,), 5),
    (4, 3, (1, 1), 2),
    (4, 3, (1, 1), 3),
    (4, 3, (1, 1), 4),
    (4, 3, (1, 2), 2),
    (4, 3, (1, 2), 3),
    (4, 3, (1, 2), 4),
    (4, 3, (2, 2), 2),
    (4, 3, (2, 2), 3),
    (4, 3, (2, 1), 5),
    (5, 3, (1,), 3),
    (5, 3, (2,), 3),
    (5, 3, (1, 1), 2),
    (5, 3, (1, 2), 2),
]


def _rand_rational(rng):
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _rand_gl(pkg, rng, n):
    rat_inverse = sys.modules["waring.linalg"].rat_inverse
    singular = pkg.SingularMatrixError
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            rat_inverse(A)
        except singular:
            continue
        return A


def dense_certificate(pkg, rng, n, d, orders, plain):
    """A GL_n(Q) image of osculating blocks plus plain rational powers.

    Block j on the variable pair (a, b) is the divided-difference
    certificate of x_a^(d-j) x_b^j with one random weight scale, so its
    poles cancel; the plain powers converge trivially.  The target is the
    same change of variables applied to the sum of the block limits and the
    plain powers, built without expanding the certificate.
    """
    E = pkg.EpsScalar
    summands = []
    f = pkg.HomoPoly.zero(n, d)
    pairs = list(range(n))
    rng.shuffle(pairs)
    for b, j in enumerate(orders):
        a, c = pairs[2 * b], pairs[2 * b + 1]
        scale = _rand_rational(rng)
        denom = pkg.falling_factorial(d, j)
        for i in range(j + 1):
            w = E.from_rational(scale * Fraction((-1) ** (j - i) * comb(j, i), denom))
            coefs = [E.zero()] * n
            coefs[a] = E.one()
            coefs[c] = E.from_poly(pkg.EpsPoly({1: Fraction(i)})) if i else E.zero()
            summands.append((w * E.eps(-j), pkg.LinearForm(coefs)))
        exps = [0] * n
        exps[a], exps[c] = d - j, j
        f = f + pkg.HomoPoly.monomial(n, tuple(exps), scale)
    for _ in range(plain):
        coefs = [0] * n
        while not any(coefs):
            coefs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        w = _rand_rational(rng)
        summands.append((E.from_rational(w),
                         pkg.LinearForm([E.from_rational(x) for x in coefs])))
        f = f + pkg.LinearForm(coefs).power(d).scale(w)
    A = _rand_gl(pkg, rng, n)
    B = pkg.BorderDecomposition(n, d, tuple(summands)).substitute(A)
    return f.substitute_linear(A), B


def build_dense(pkg, seed, smoke):
    """Seeded genuine-border certificates whose limit goes to dense_decompose."""
    rng = random.Random(seed)
    structures = DENSE_STRUCTURES[:1] if smoke else DENSE_STRUCTURES
    cfg = pkg.DeborderConfig()
    inputs = []
    for k, (n, d, orders, plain) in enumerate(structures):
        # redraw the rare target that misses a variable, which would shrink
        # the dense system and make the rank sum depend on the seed
        f, B = dense_certificate(pkg, rng, n, d, orders, plain)
        while pkg.essential_rank(f) < n:
            f, B = dense_certificate(pkg, rng, n, d, orders, plain)
        inputs.append((f"dense{k}_n{n}_d{d}_r{B.rank()}", f, B, cfg))
    return LibraryWorkload(pkg, inputs, seed)


# ---------------------------------------------------------------------------
# cli workload: one op is one `python -m waring.cli ...` subprocess

CLI_INSTANCES = [
    ("tangent", 4, None),
    ("tangent", 7, None),
    ("osculating", 6, 2),
    ("multibase", 5, None),
]
CLI_STEPS = ("gen", "deborder", "verify", "oracle")
LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"


def family_target(family, d, j):
    """Closed-form target of a family instance: exponents -> coefficient."""
    if family == "tangent":
        return {(d - 1, 1): Fraction(1)}
    if family == "osculating":
        return {(d - j, j): Fraction(1)}
    return {(d - 1, 0, 1, 0): Fraction(d), (0, d - 1, 0, 1): Fraction(d)}


def binary_ranks(family, d, j):
    """(Waring rank, border rank) of x^(d-j) y^j with j <= d - j (Sylvester)."""
    j = 1 if family == "tangent" else j
    return d - j + 1, j + 1


class CliWorkload:
    """gen -> deborder --out --report -> verify --type waring -> oracle.

    Each pass writes into its own directory so that every output can be
    checked after the timed phase.  Commands go through cli_launcher.py so
    that peak RSS is the commands' own.  ``inprocess`` runs the same argv
    through ``waring.cli.main`` instead, which the traced pass needs.
    """

    kind = "cli"

    def __init__(self, seed, smoke, workdir, src):
        self.instances = CLI_INSTANCES[:1] if smoke else CLI_INSTANCES
        self.order = _shuffled(range(len(self.instances)), seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.inprocess = False
        self._launcher = None

    def paths(self, pass_no, i):
        family, d, j = self.instances[i]
        stem = os.path.join(self.workdir, f"p{pass_no}", f"{family}{d}" + (f"_{j}" if j else ""))
        return {k: f"{stem}_{k}.json" for k in ("poly", "border", "waring", "report")}

    def argv(self, pass_no, i, step):
        family, d, j = self.instances[i]
        p = self.paths(pass_no, i)
        if step == "gen":
            extra = ["--j", str(j)] if j else []
            return ["gen", "--family", family, "--d", str(d), *extra,
                    "--out-poly", p["poly"], "--out-border", p["border"]]
        if step == "deborder":
            return ["deborder", "--border", p["border"], "--poly", p["poly"],
                    "--out", p["waring"], "--report", p["report"]]
        if step == "verify":
            return ["verify", "--type", "waring", p["waring"], p["poly"]]
        return ["oracle", p["poly"]] + (["--binary"] if family != "multibase" else [])

    def ops(self, pass_no) -> List[Op]:
        os.makedirs(os.path.join(self.workdir, f"p{pass_no}"), exist_ok=True)
        if not self.inprocess and self._launcher is None:
            self._launcher = subprocess.Popen(
                [sys.executable, str(LAUNCHER)], env=self.env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        out = []
        for i in self.order:
            for step in CLI_STEPS:
                argv = self.argv(pass_no, i, step)
                run = self._inprocess(argv) if self.inprocess else self._subprocess(argv)
                out.append(Op(i, step, run, pass_no))
        return out

    def _subprocess(self, argv):
        request = json.dumps([sys.executable, "-m", "waring.cli", *argv]) + "\n"

        def run():
            self._launcher.stdin.write(request)
            self._launcher.stdin.flush()
            return tuple(json.loads(self._launcher.stdout.readline()))

        return run

    def peak_rss_mb(self):
        """Peak RSS of the cli subprocesses, as their launcher saw it."""
        launcher, self._launcher = self._launcher, None
        launcher.stdin.close()
        kib = int(launcher.stdout.read())
        launcher.wait(timeout=60)
        return kib / 1024.0

    def close(self):
        if self._launcher is not None:
            self._launcher.kill()
            self._launcher.wait()
            self._launcher = None

    def _inprocess(self, argv):
        cli = importlib.import_module("waring.cli")

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    def check(self, op, out):
        from check import expands_to, poly_doc_terms, read_payload, waring_doc_summands

        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        family, d, j = self.instances[op.index]
        p = self.paths(op.pass_no, op.index)
        target = family_target(family, d, j)
        if op.label == "gen":
            if not json.loads(stdout).get("verified"):
                return "gen did not report a verified pair"
            if poly_doc_terms(read_payload(p["poly"], "polynomial")) != target:
                return "written polynomial is not the family target"
        elif op.label == "deborder":
            payload = read_payload(p["waring"], "waring")
            report = read_payload(p["report"], "report")
            summands = waring_doc_summands(payload)
            nvars = len(next(iter(target)))
            if report["achieved_rank"] != len(summands):
                return f"report rank {report['achieved_rank']} != {len(summands)} summands"
            if report["achieved_rank"] > report["paper_bound"]:
                return "achieved rank exceeds paper_bound"
            if not expands_to(nvars, d, summands, target):
                return "written decomposition does not expand to the target"
        elif op.label == "verify":
            if json.loads(stdout) != {"ok": True}:
                return f"verify printed {stdout.strip()[:200]}"
        else:
            got = json.loads(stdout)
            cat = got["catalecticant"]
            if len(cat) != d + 1 or cat != cat[::-1] or cat[0] != 1:
                return f"implausible catalecticant profile {cat}"
            if family != "multibase" and (got["wr"], got["bwr"]) != binary_ranks(family, d, j):
                return f"oracle ranks {got['wr']}, {got['bwr']} differ from Sylvester's"
        return None

    def _report(self, op):
        with open(self.paths(op.pass_no, op.index)["report"], encoding="utf-8") as fh:
            return json.load(fh)["payload"]

    # rank, cases and document exist only for the deborder step

    def rank_of(self, op, out):
        return self._report(op)["achieved_rank"] if op.label == "deborder" else None

    def cases_of(self, op, out):
        return [t["case"] for t in self._report(op)["trace"]] if op.label == "deborder" else []

    def document_of(self, op, out):
        if op.label != "deborder":
            return None
        with open(self.paths(op.pass_no, op.index)["waring"], "rb") as fh:
            return fh.read()


WORKLOADS = ("families", "dense", "cli")


def build(name, pkg, seed, smoke, workdir, src):
    if name == "cli":
        return CliWorkload(seed, smoke, workdir, src)
    library = {"families": build_families, "dense": build_dense}
    return library[name](pkg, seed, smoke)
