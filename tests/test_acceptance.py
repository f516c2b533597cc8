"""Acceptance suite: one test per shipped guarantee, one printed line each.

Every check here is exact (rational arithmetic, no tolerances) except the
wall-clock limits, which are generous desk-scale ceilings.  Run with
`pytest -v`; output streaming is enabled in pyproject, so the per-criterion
PASS/FAIL lines appear inline with the test names.
"""

import io
import json
import math
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache

from waring import (
    CertificateCheckError,
    DeborderConfig,
    LinearForm,
    WaringDecomposition,
    ZeroDerivativeError,
    catalecticant_bound,
    check_border,
    deborder,
    dense_decompose,
    derivative_decomposition,
    diagonalize,
    gen_multibase,
    gen_random,
    gen_tangent,
    multiply_by_power,
    paper_bound,
    partition_into_local,
    sylvester_rank,
    verify_waring,
)
from waring.cli import main as cli_main
from waring.poly import monomials_of_degree
from waring.serialize import (
    dumps_document,
    parse_document,
    read_document,
    report_to_json,
)
from conftest import assert_staircase_invariants, mono, rand_poly

# Every verified decomposition produced during the run lands here so the
# oracle-consistency criterion can sweep all of them at the end.
ACHIEVED = []


class Criterion:
    """Collects check failures so each criterion prints exactly one line."""

    def __init__(self, num, label):
        self.num = num
        self.label = label
        self.failures = []

    def check(self, cond, msg):
        if not cond:
            self.failures.append(msg)

    def conclude(self, detail=""):
        status = "PASS" if not self.failures else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"\n[criterion {self.num}] {status} {self.label}{tail}")
        assert not self.failures, f"criterion {self.num}: " + "; ".join(
            self.failures[:8]
        )


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=1)
def corpus():
    """100 seeded random certificates with r <= 5, n <= r, d <= 8."""
    rng = random.Random(20260823)
    out = []
    for i in range(100):
        r = rng.randint(1, 5)
        n = rng.randint(1, r)
        d = rng.randint(1, 8)
        out.append(gen_random(n, d, r, seed=1000 + i))
    return tuple(out)


def test_criterion_1_tangent_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    crit = Criterion(1, "tangent family gen/deborder/verify, d = 3..10")
    worst = 0.0
    for d in range(3, 11):
        t0 = time.perf_counter()
        code, out, err = run_cli(["gen", "--family", "tangent", "--d", str(d)])
        crit.check(code == 0, f"d={d}: gen exited {code}: {err}")
        names = json.loads(out)
        code, out, err = run_cli(
            [
                "deborder",
                "--border", names["border"],
                "--poly", names["poly"],
                "--out", f"w{d}.json",
            ]
        )
        crit.check(code == 0, f"d={d}: deborder exited {code}: {err}")
        payload = parse_document(out)[1]
        code, _, err = run_cli(
            ["verify", "--type", "waring", f"w{d}.json", names["poly"]]
        )
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        crit.check(code == 0, f"d={d}: verify exited {code}: {err}")
        ach = payload["achieved_rank"]
        crit.check(d <= ach <= d + 1, f"d={d}: achieved_rank {ach} outside [d, d+1]")
        crit.check(
            ach <= paper_bound(d, 2), f"d={d}: achieved_rank {ach} above the ceiling"
        )
        crit.check(elapsed < 5.0, f"d={d}: took {elapsed:.2f}s")
        f = read_document(names["poly"], "polynomial")[1]
        crit.check(
            sylvester_rank(f)[0] == d, f"d={d}: sylvester lower bound is not d"
        )
        ACHIEVED.append((f, ach))
    crit.conclude(f"8 instances, max {worst:.2f}s each")


def test_criterion_2_osculating_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    crit = Criterion(2, "osculating family end-to-end, (d,j) in {(5,2),(6,2),(7,3)}")
    worst = 0.0
    for d, j in [(5, 2), (6, 2), (7, 3)]:
        t0 = time.perf_counter()
        code, out, err = run_cli(
            ["gen", "--family", "osculating", "--d", str(d), "--j", str(j)]
        )
        crit.check(code == 0, f"({d},{j}): gen exited {code}: {err}")
        names = json.loads(out)
        stem = f"w{d}_{j}.json"
        code, out, err = run_cli(
            ["deborder", "--border", names["border"], "--poly", names["poly"], "--out", stem]
        )
        crit.check(code == 0, f"({d},{j}): deborder exited {code}: {err}")
        payload = parse_document(out)[1]
        code, _, err = run_cli(["verify", "--type", "waring", stem, names["poly"]])
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        crit.check(code == 0, f"({d},{j}): verify exited {code}: {err}")
        f = read_document(names["poly"], "polynomial")[1]
        ach = payload["achieved_rank"]
        cat = max(catalecticant_bound(f, s) for s in range(d + 1))
        crit.check(cat <= ach, f"({d},{j}): catalecticant {cat} > achieved {ach}")
        crit.check(
            sylvester_rank(f)[1] == j + 1, f"({d},{j}): border rank is not j+1"
        )
        crit.check(elapsed < 10.0, f"({d},{j}): took {elapsed:.2f}s")
        ACHIEVED.append((f, ach))
    crit.conclude(f"3 instances, max {worst:.2f}s each")


def test_criterion_3_multibase_partition():
    crit = Criterion(3, "multibase family splits into 2 locally solved groups, d = 5..8")
    worst = 0.0
    for d in range(5, 9):
        t0 = time.perf_counter()
        f, B = gen_multibase(d)
        groups = partition_into_local(B, f)
        crit.check(len(groups) == 2, f"d={d}: {len(groups)} groups instead of 2")
        for gi, (Bk, fk) in enumerate(groups):
            chk = check_border(Bk, fk)
            crit.check(chk.ok, f"d={d}: group {gi} fails its own verification")
        W, rep = deborder(f, B)
        crit.check(verify_waring(W, f), f"d={d}: combined output does not verify")
        locals_seen = sum(1 for t in rep.trace if t.case == "LOCAL")
        crit.check(locals_seen == 2, f"d={d}: {locals_seen} LOCAL records instead of 2")
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        crit.check(elapsed < 10.0, f"d={d}: took {elapsed:.2f}s")
        ACHIEVED.append((f, rep.achieved_rank))
    crit.conclude(f"4 instances, max {worst:.2f}s each")


def test_criterion_4_random_soundness():
    crit = Criterion(4, "randomized soundness on 100 seeded certificates")
    times = []
    findings = []
    for idx, (f, B) in enumerate(corpus()):
        t0 = time.perf_counter()
        try:
            W, rep = deborder(f, B)
        except CertificateCheckError as exc:
            times.append(time.perf_counter() - t0)
            findings.append(f"instance {idx}: {exc.check}")
            continue
        except Exception as exc:  # anything untyped is a hard failure
            times.append(time.perf_counter() - t0)
            crit.check(False, f"instance {idx}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        crit.check(verify_waring(W, f), f"instance {idx}: output fails verification")
        ACHIEVED.append((f, rep.achieved_rank))
    med = statistics.median(times)
    crit.check(med < 30.0, f"median runtime {med:.2f}s")
    for line in findings:
        # target is zero of these; any occurrence is a logged finding
        print(f"\n[criterion 4] FINDING lemma-check failure at {line}")
    crit.conclude(
        f"{len(times)} runs, {len(findings)} lemma findings, median {med * 1000:.1f} ms"
    )


def test_criterion_5_diagonalization_invariants():
    crit = Criterion(5, "diagonalization invariants exact on the same corpus")
    for idx, (f, B) in enumerate(corpus()):
        try:
            assert_staircase_invariants(f, B)
        except AssertionError as exc:
            crit.check(False, f"instance {idx}: {exc}")
    crit.conclude(f"{len(corpus())} instances, staircase/q/A0/expansion/locality")


def test_criterion_6_derivative_counts():
    crit = Criterion(6, "derivative certificates verify with count <= r - k + 1")
    branches = 0
    above_strict = 0
    for idx, (f, B) in enumerate(corpus()):
        if f.degree < 2:
            continue
        D = diagonalize(B, f)
        r = D.decomposition.rank()
        for var in range(D.p):
            for order in range(1, f.degree):
                try:
                    Bd = derivative_decomposition(D, var, order)
                except ZeroDerivativeError:
                    continue
                branches += 1
                target = D.limit.differentiate(var, order)
                chk = check_border(Bd, target)
                crit.check(
                    chk.ok,
                    f"instance {idx} var {var} order {order}: {chk.reason}",
                )
                k = var + 1
                cnt = Bd.rank()
                crit.check(
                    cnt <= r - k + 1,
                    f"instance {idx} var {var} order {order}: {cnt} > r-k+1",
                )
                if cnt > r - k:
                    above_strict += 1
    crit.conclude(
        f"{branches} nonzero branches; {above_strict} sit above the stricter r-k count"
    )


def test_criterion_7_dense_base_case():
    crit = Criterion(7, "dense decomposition of small monomials and power products")
    checked = 0
    for m in range(1, 4):
        for e in range(1, 5):
            cap = math.comb(m + e - 1, e)
            for exps in monomials_of_degree(m, e):
                h = mono(m, exps)
                W = dense_decompose(h)
                checked += 1
                crit.check(verify_waring(W, h), f"x^{exps} output fails verification")
                crit.check(
                    W.rank() <= cap, f"x^{exps}: rank {W.rank()} above binom cap {cap}"
                )
    products = 0
    rng = random.Random(7)
    for e in range(1, 8):
        for k in range(1, 9 - e):
            h = rand_poly(rng, 2, e)
            W = dense_decompose(h)
            z = LinearForm((Fraction(1), Fraction(3)))
            P = multiply_by_power(W, z, k)
            products += 1
            crit.check(
                verify_waring(P, h * z.power(k)),
                f"(e,k)=({e},{k}): product output fails verification",
            )
    # parallel-form shortcut: multiplying by a summand's own direction
    h = rand_poly(rng, 2, 2)
    W = dense_decompose(h)
    zpar = W.summands[0][1]
    P = multiply_by_power(W, zpar, 2)
    crit.check(
        verify_waring(P, h * zpar.power(2)), "parallel product fails verification"
    )
    crit.conclude(f"{checked} monomials, {products + 1} power products")


def test_criterion_8_oracle_consistency():
    crit = Criterion(8, "sylvester closed form and catalecticant below achieved ranks")
    for a in range(1, 10):
        for b in range(1, 11 - a):
            wr, bwr = sylvester_rank(mono(2, (a, b)))
            crit.check(
                wr == max(a, b) + 1, f"x^{a}y^{b}: wr {wr} != max+1"
            )
            crit.check(
                bwr == min(a, b) + 1, f"x^{a}y^{b}: bwr {bwr} != min+1"
            )
    pool = list(ACHIEVED)
    if not pool:
        # standalone invocation: seed the pool so the sweep is not vacuous
        for d in (3, 4, 5):
            f, B = gen_tangent(d)
            _, rep = deborder(f, B)
            pool.append((f, rep.achieved_rank))
    for f, ach in pool:
        cat = max(catalecticant_bound(f, s) for s in range(f.degree + 1))
        crit.check(
            cat <= ach,
            f"catalecticant {cat} exceeds achieved rank {ach} on a verified run",
        )
    crit.conclude(f"binary grid a+b <= 10; {len(pool)} achieved ranks swept")


def test_criterion_9_serialization_roundtrip():
    crit = Criterion(9, "1000 random documents round-trip bit-exactly")
    rng = random.Random(99)
    count = 0

    def roundtrip(kind, value):
        nonlocal count
        text = dumps_document(kind, value)
        kind2, back = parse_document(text)
        crit.check(kind2 == kind, f"{kind}: kind changed on parse")
        crit.check(
            dumps_document(kind, back) == text, f"{kind} document {count} not bit-exact"
        )
        count += 1

    for _ in range(400):
        roundtrip("polynomial", rand_poly(rng, rng.randint(1, 3), rng.randint(1, 5)))
    for i in range(300):
        _, B = gen_random(
            rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 4), seed=5000 + i
        )
        roundtrip("border", B)
    for _ in range(200):
        n, d = rng.randint(1, 3), rng.randint(1, 5)
        summands = []
        for _j in range(rng.randint(1, 4)):
            w = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            while True:
                coefs = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
                if any(coefs):
                    break
            summands.append((w, LinearForm(coefs)))
        roundtrip("waring", WaringDecomposition(n, d, tuple(summands)).merged())
    reports = []
    for d in (3, 4, 5):
        f, B = gen_tangent(d)
        reports.append(deborder(f, B)[1])
    f, B = gen_multibase(5)
    reports.append(deborder(f, B)[1])
    f, B = gen_random(2, 4, 3, seed=17)
    reports.append(deborder(f, B)[1])
    for i in range(100):
        flags = asdict(DeborderConfig(base_threshold=i, y_size=(i % 3) or None))
        roundtrip("report", report_to_json(reports[i % len(reports)], flags))
    crit.check(count == 1000, f"only {count} documents exercised")
    crit.conclude("400 polynomial, 300 border, 200 waring, 100 report")
