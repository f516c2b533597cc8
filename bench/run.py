"""Benchmark of the waring pipeline: end-to-end metrics and a layer trace.

Run from the repository root:

    python3 bench/run.py --workload families --seed 1 --seconds 30 --trace 0

Workloads: families, dense, cli (see workloads.py and BENCHMARK.json).
Load shape: one process, one thread, closed loop -- the next op starts when
the previous one returns; the cli workload runs one subprocess at a time.

``--trace 0`` sets up the workload several times (each time re-importing
waring and rebuilding the inputs) and takes the median set-up time.  It then
runs whole passes over the inputs until ``--seconds`` seconds and MIN_OPS ops
have gone by.  ops_per_s is completed ops over the time spent in them;
op_p50_ms and op_p90_ms are taken over every op's latency.  These raw
figures go to the record.  The reported metrics (setup_s and the cal_ ones)
are calibrated: the reference kernel, which shares no code with waring, is
timed before every op and set-up, and times are scaled to what they would be
at the kernel's reference speed (see calibration).  The host this was built
on swings in speed by a third over minutes; calibrated figures spread less
than half as much from run to run.
``--trace 1`` runs a warm-up pass, then untraced and traced passes in turn
for ``--seconds`` seconds; the traced passes have every layer wrapped by
tracer.py.  It reports the per-layer metrics of bench/layers.json and the
tracing overhead (traced minus untraced op time, over all passes).

Every output is checked independently (check.py) after the timed phase.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record (commit,
interpreter, nproc, seed, output digest, tracing overhead), which is also
written to bench/out/.  Exit code 2 means there is no waring source tree.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# set-up runs: at least SETUP_MIN_REPS, more while they sum to under
# SETUP_TARGET_S, so that short set-ups get a steadier median
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_TARGET_S = 2.5
# reference kernel runs before each set-up, to calibrate setup_s
SETUP_REF_REPS = 20
# a run holds at least MIN_OPS ops, so that ten or more lie beyond p90
MIN_OPS = 100
# reference speed: reference_kernel's time in ms, a round figure between its
# 0.8 ms on an idle and 1.4 ms on a busy 2-vCPU Intel Xeon host (CPython
# 3.11); calibrated metrics read as if the machine ran at that speed
REF_KERNEL_MS = 1.0
# share of the fastest reference timings averaged: the rest are dropped, so
# that a rare preemption of the short kernel does not skew the mean
REF_KEEP = 0.95

END_TO_END = {
    "setup_s": "s",
    "cal_ops_per_s": "ops/s",
    "cal_op_p50_ms": "ms",
    "cal_op_p90_ms": "ms",
    "achieved_rank_sum": "summands",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    op: object
    out: object  # the op's return value, or the exception it raised
    seconds: float
    pass_no: int
    ref_seconds: float  # the reference kernel's time just before the op


def fresh_import():
    """Import waring (and mpmath) anew, as a new process would."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("waring", "mpmath"):
            del sys.modules[name]
    return importlib.import_module("waring")


def reference_kernel():
    """A fixed pure-Python load of exact arithmetic, hashing and sorting.

    It shares no code with waring, so its time follows the machine's speed
    alone: on a shared host that speed swings by a third over minutes.
    """
    total = Fraction(0)
    table = {}
    for i in range(1, 80):
        total += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        for j in range(10):
            key = (i, j, i ^ j)
            table[key] = table.get(key, 0) + i * j
    return total, sorted(table.items(), key=lambda kv: (kv[1], kv[0]))


def time_reference():
    """One reference_kernel time, with the collector off, so that the size
    of waring's heap does not reach into it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibration(ref_seconds):
    """REF_KERNEL_MS over the reference kernel's mean time in ``ref_seconds``.

    Multiplying times measured among those kernel runs by it (dividing
    throughputs) gives the figures of a machine running at the reference
    speed.  An op's or a set-up's time averages the machine's speed over
    its length, so the kernel's times are averaged too.
    """
    refs = sorted(ref_seconds)
    kept = refs[:max(1, int(len(refs) * REF_KEEP))]
    return REF_KERNEL_MS / (statistics.fmean(kept) * 1000.0)


def timed(wl, stop, tracer=None, first_pass=0, first_op=0, calibrate=False):
    """Closed loop over whole passes until ``stop(elapsed, n, pass_end)``.

    With a tracer, op ``k`` records its spans under op id ``first_op + k``.
    With ``calibrate``, the reference kernel is timed before every op.
    """
    samples = []
    p = first_pass
    ops = wl.ops(p)  # the first pass's preparation is not timed
    start = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            ref = time_reference() if calibrate else 0.0
            if tracer is not None:
                tracer.op_id = first_op + len(samples)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op_id = None
            samples.append(Sample(op, out, t1 - t0, p, ref))
            if stop(t1 - start, len(samples), k == len(ops) - 1):
                return samples, t1 - start
        p += 1
        ops = wl.ops(p)


def p90(sorted_values):
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10)[8]


def check_all(wl, samples):
    """Reason of failure per sample (None when correct); checks run once per
    distinct (input, output document)."""
    verdicts, reasons = {}, []
    for s in samples:
        if isinstance(s.out, Exception):
            reasons.append(f"{type(s.out).__name__}: {s.out}")
            continue
        doc = wl.document_of(s.op, s.out)
        key = (s.op.index, s.op.label, doc) if doc is not None else None
        if key is None or key not in verdicts:
            try:
                reason = wl.check(s.op, s.out)
            except Exception as exc:  # a malformed output is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if key is not None:
                verdicts[key] = reason
        else:
            reason = verdicts[key]
        reasons.append(reason)
    return reasons


def first_pass_record(wl, samples, reasons):
    """achieved_rank_sum and output digest over the first pass, input order."""
    p0 = samples[0].pass_no
    rank_sum, docs = 0, []
    for s, reason in zip(samples, reasons):
        if s.pass_no != p0:
            continue
        if reason is not None:
            docs.append((s.op.index, b"FAILED"))
            continue
        rank = wl.rank_of(s.op, s.out)
        if rank is not None:
            rank_sum += rank
            docs.append((s.op.index, wl.document_of(s.op, s.out)))
    digest = hashlib.sha256()
    for _, doc in sorted(docs, key=lambda x: x[0]):
        digest.update(doc)
    return rank_sum, digest.hexdigest()


def git_commit(root: Path):
    """HEAD of a git checkout at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cli_import_seconds(env, reps=5):
    """Median `import waring.cli` subprocess minus a bare interpreter start."""
    import subprocess

    def median_run(code):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return median_run("import waring.cli") - median_run("pass")


# ---------------------------------------------------------------------------


def enough_setups(times, smoke):
    n = len(times)
    if smoke:
        return n >= 1
    return n >= SETUP_MIN_REPS and (sum(times) >= SETUP_TARGET_S or n >= SETUP_MAX_REPS)


def run_end_to_end(args, workdir, src):
    setup_times, setup_refs = [], []
    while not enough_setups(setup_times, args.smoke):
        setup_refs += [time_reference() for _ in range(SETUP_REF_REPS)]
        wl = None
        gc.collect()  # free the previous set-up, so that peak RSS holds one
        t0 = time.perf_counter()
        pkg = fresh_import()
        wl = workloads.build(args.workload, pkg, args.seed, args.smoke, workdir, str(src))
        setup_times.append(time.perf_counter() - t0)
    if args.smoke:
        stop = lambda el, n, end: end  # noqa: E731
    else:
        stop = lambda el, n, end: (  # noqa: E731
            end and el >= args.seconds and n >= MIN_OPS)
    try:
        samples, wall = timed(wl, stop, calibrate=True)
        rss = wl.peak_rss_mb()
    finally:
        wl.close()
    reasons = check_all(wl, samples)
    rank_sum, digest = first_pass_record(wl, samples, reasons)
    latency_ms = sorted(s.seconds * 1000.0 for s in samples)
    raw = {
        "ops_per_s": len(samples) / sum(s.seconds for s in samples),
        "op_p50_ms": statistics.median(latency_ms),
        "op_p90_ms": p90(latency_ms),
    }
    cal = calibration(s.ref_seconds for s in samples)
    setup_cal = calibration(setup_refs)
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_cal,
        "cal_ops_per_s": raw["ops_per_s"] / cal,
        "cal_op_p50_ms": raw["op_p50_ms"] * cal,
        "cal_op_p90_ms": raw["op_p90_ms"] * cal,
        "achieved_rank_sum": rank_sum,
        "peak_rss_mb": rss,
    }
    record = {
        "setup_runs_s": setup_times,
        "setup_calibration": setup_cal,
        "samples": len(samples),
        "passes": samples[-1].pass_no + 1,
        "wall_s": wall,
        **raw,
        "calibration": cal,
        "achieved_rank_sum": rank_sum,
        "output_sha256": digest,
    }
    return samples, reasons, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, record


def run_traced(args, workdir, src, layers):
    from tracer import Tracer

    pkg = importlib.import_module("waring")
    tracer = Tracer()
    wl = workloads.build(args.workload, pkg, args.seed, args.smoke, workdir, str(src))
    if wl.kind == "cli":
        wl.inprocess = True  # subprocess spans are invisible from here
    # A warm-up pass, then untraced and traced passes in turn, so that drift
    # in machine speed falls on both sides of the overhead estimate.
    one_pass = lambda el, n, end: end  # noqa: E731
    warm, _ = timed(wl, one_pass)
    base, traced = [], []
    passes = 0
    start = time.perf_counter()
    while not passes or not args.smoke and time.perf_counter() - start < args.seconds:
        base += timed(wl, one_pass, first_pass=1 + 2 * passes)[0]
        tracer.install()
        try:
            traced += timed(wl, one_pass, tracer, first_pass=2 + 2 * passes,
                            first_op=len(traced))[0]
        finally:
            tracer.uninstall()
        passes += 1
    samples = warm + base + traced
    reasons = check_all(wl, samples)
    _, digest = first_pass_record(wl, samples, reasons)
    reasons_traced = reasons[len(warm) + len(base):]

    summary = tracer.summary()
    counts = tracer.counts
    n_ops = len(traced)

    def per_pass(x):
        return x / passes

    values = {}
    for name, agg in summary.items():
        values[f"{name}.calls"] = per_pass(agg["calls"])
        values[f"{name}.self_s"] = per_pass(agg["self_s"])
    for key in ("epsilon.scalars_built", "epsilon.gcd_calls", "poly.power_terms",
                "serialize.bytes_written"):
        values[key] = per_pass(counts[key])
    built = counts["epsilon.scalars_built"]
    values["epsilon.trivial_den_ratio"] = counts["epsilon.trivial_den"] / built if built else 0.0
    values["linalg.rat_solve.max_dim"] = counts["linalg.rat_solve.max_dim"]
    values["decomp.border_expansions_per_op"] = (
        summary["decomp.BorderDecomposition.expand"]["calls"] / n_ops)
    values["decomp.waring_expansions_per_op"] = (
        summary["decomp.WaringDecomposition.expand"]["calls"] / n_ops)
    dense_calls = summary["deborder.dense_decompose"]["calls"]
    values["deborder.dense_attempts_per_call"] = (
        tracer.count_under("linalg.rat_solve", "deborder.dense_decompose") / dense_calls
        if dense_calls else 0.0)
    cases = {"LOCAL": 0, "NONLOCAL": 0, "BASE": 0}
    for s, reason in zip(traced, reasons_traced):
        if reason is None:
            for case in wl.cases_of(s.op, s.out):
                cases[case] += 1
    for case, n in cases.items():
        values[f"deborder.trace_{case.lower()}"] = per_pass(n)
    values["cli.import_s"] = (
        cli_import_seconds(wl.env, reps=1 if args.smoke else 5) if wl.kind == "cli" else 0.0)
    base_s, traced_s = sum(s.seconds for s in base), sum(s.seconds for s in traced)
    values["trace.overhead_ms"] = (traced_s - base_s) / n_ops * 1000.0
    values["trace.overhead_ratio"] = traced_s / base_s - 1.0

    # the tracer checks itself: a renamed or bypassed layer must not read 0
    silent = [name for name in layers["expect_calls"][args.workload]
              if not (summary[name]["calls"] or counts[name])]
    if silent:
        raise SystemExit(f"tracer self-check failed on {args.workload}: "
                         f"no calls recorded for {', '.join(silent)}")

    metrics = {}
    for row in layers["rows"]:
        for m in row["metrics"]:
            metrics[m["name"]] = (values.get(m["name"], 0.0), m["unit"])
    spans_path = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record = {
        "samples_untraced": len(base),
        "samples_traced": n_ops,
        "passes": passes,
        "output_sha256": digest,
        "trace_overhead_ms": values["trace.overhead_ms"],
        "trace_overhead_ratio": values["trace.overhead_ratio"],
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
    }
    return samples, reasons, metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, one set-up and one pass (for the smoke test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "waring" / "__init__.py").is_file():
        print(f"error: no waring source tree under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    layers = json.loads((HERE / "layers.json").read_text())
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            samples, reasons, metrics, record = run_traced(args, workdir, src, layers)
        else:
            samples, reasons, metrics, record = run_end_to_end(args, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r is not None for r in reasons)
    failures = sorted({r for r in reasons if r is not None})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "fail_ratio": failed / len(samples),
        "failures": failures[:10],
        **record,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':48s} {record['fail_ratio']:>16.6g} ratio  "
          f"({failed} of {len(samples)} ops)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
