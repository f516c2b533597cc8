"""A/B benchmark in alternating pairs: bench/run.py on two source trees.

Run from the repository root, for example:

    python3 tools/ab_pairs.py --parent e9cd2ab --change . \\
        --seeds 2721 2722 2723 2724 2725 2726 2727 2728 2729 2730 \\
        --what "one line on the change" --out BENCH_27.json

Each of --parent and --change is a directory holding a source tree, or a
git revision, which is extracted with ``git archive`` into a temporary
directory.  Each tree runs its own ``bench/run.py``, unchanged, from its
root.  Per seed and workload there is one pair of runs
(``--seconds`` each, ``--trace 0``): the parent first on even pairs, the
change first on odd ones, so that drift in the host's speed falls on both
sides.  The report holds, per workload, every run's sample count,
calibration factor and peak RSS; per end-to-end metric of BENCHMARK.json
the quartiles of each side, the change over parent ratio of the medians
and the change's wins; and a least-squares fit of peak RSS on the sample
count, since a run keeps every op's output.  Then each tree runs
``--trace 1`` once (TRACE_WORKLOAD at TRACE_SEED), and a table gives, per
traced pass, the calls of each TRACE_CALLS layer (counted from the spans
file) and each TRACE_METRICS value.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKLOADS = ("families", "dense", "cli")
# the traced run: one workload at one seed, the layers whose spans are
# counted per pass and the layer metrics copied from bench/run.py's output
TRACE_WORKLOAD, TRACE_SEED, TRACE_SECONDS = "families", 7, 10
TRACE_CALLS = ("diagonal.diagonalize", "linalg.EpsMatrix.inverse", "linalg.rat_inverse",
               "poly.HomoPoly.substitute_linear")
TRACE_METRICS = ("diagonal.diagonalize.self_s", "linalg.EpsMatrix.inverse.self_s",
                 "linalg.rat_inverse.self_s", "poly.HomoPoly.substitute_linear.self_s")


def checkout(spec: str, tmp: Path) -> tuple[Path, str]:
    """(tree, label): the directory spec, or the git revision spec extracted
    under tmp, with the commit it names."""
    if Path(spec).is_dir():
        tree = Path(spec).resolve()
        rev = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return tree, (rev.stdout.strip() + " + working tree") if rev.returncode == 0 else str(tree)
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", spec], check=True,
                            capture_output=True, text=True).stdout.strip()
    tree = tmp / commit[:12]
    tree.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree, commit


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in tree: its exit code, record and metric values."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"exit": proc.returncode, "record": json.loads(lines[-2])["record"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of each side, the ratio of the medians and the change's
    wins and ties over the pairs."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    mp = statistics.median(parent)
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_over_parent": round(statistics.median(change) / mp, 4) if mp else None,
            "change_wins": wins, "ties": ties}


def rss_fit(samples: dict, rss: dict) -> dict:
    """Least squares of peak RSS (MB) on the sample count over both sides'
    runs; the slope in KB per sample and each side's median residual."""
    xs = [x for side in SIDES for x in samples[side]]
    ys = [y for side in SIDES for y in rss[side]]
    slope, intercept = statistics.linear_regression(xs, ys)
    return {
        "intercept_mb": round(intercept, 2),
        "kb_per_sample": round(slope * 1024, 2),
        "median_samples": {s: statistics.median(samples[s]) for s in SIDES},
        "median_residual_mb": {s: round(statistics.median(
            y - intercept - slope * x for x, y in zip(samples[s], rss[s])), 3) for s in SIDES},
    }


def per_pass_calls(tree: Path, record: dict, names: list[str]) -> dict:
    """Spans per traced pass of each layer in names, from the run's spans file."""
    counts = Counter()
    with gzip.open(tree / record["spans_file"], "rt", encoding="utf-8") as fh:
        for line in fh:
            counts[json.loads(line)[0]] += 1
    return {f"{name}.calls": counts[name] / record["passes"] for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="source tree or git revision")
    ap.add_argument("--change", required=True, help="source tree or git revision")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--what", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        trees, labels = {}, {}
        for side in SIDES:
            trees[side], labels[side] = checkout(getattr(args, side), Path(tmp))
        runs = {w: {s: [] for s in SIDES} for w in WORKLOADS}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in WORKLOADS:
                for side in order:
                    runs[w][side].append(run(trees[side], w, seed, args.seconds, 0))
                    r = runs[w][side][-1]
                    print(f"pair {i} seed {seed} {w:8s} {side:6s} exit {r['exit']} "
                          f"p50 {r.get('metrics', {}).get('cal_op_p50_ms')}", file=sys.stderr)
        traced = {s: run(trees[s], TRACE_WORKLOAD, TRACE_SEED, TRACE_SECONDS, 1) for s in SIDES}
        table = {}
        for side, r in traced.items():
            if r["exit"] == 0:
                values = per_pass_calls(trees[side], r["record"], TRACE_CALLS)
                values.update({m: r["metrics"][m] for m in TRACE_METRICS})
                for name, v in values.items():
                    table.setdefault(name, {})[side] = round(v, 7)

    ok = {w: {s: [r for r in runs[w][s] if r["exit"] == 0] for s in SIDES} for w in runs}
    samples = {w: {s: [r["record"]["samples"] for r in ok[w][s]] for s in SIDES} for w in runs}
    rss = {w: {s: [r["metrics"]["peak_rss_mb"] for r in ok[w][s]] for s in SIDES} for w in runs}
    report = {
        "what": args.what,
        "parent_commit": labels["parent"],
        "change_commit": labels["change"],
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "seeds": args.seeds,
        "pairs": "one parent run and one change run per seed and workload; parent first on "
                 "even pairs, change first on odd ones",
        "host": f"{os.cpu_count()} vCPU {platform.system()}, {platform.python_implementation()} "
                f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1, {date.today()}",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of each side",
        "output_sha256_identical": all(
            a["record"]["output_sha256"] == b["record"]["output_sha256"]
            for w in runs for a, b in zip(runs[w]["parent"], runs[w]["change"])
            if a["exit"] == b["exit"] == 0),
        "failed_ops": sum(r["failed"] for w in ok for s in SIDES for r in ok[w][s]),
        "exit_codes": sorted({r["exit"] for w in runs for s in SIDES for r in runs[w][s]}),
        "samples": samples,
        "calibration_per_pair": {w: {s: [round(r["record"]["calibration"], 3) for r in ok[w][s]]
                                     for s in SIDES} for w in runs},
        "peak_rss_mb_per_pair": {w: {s: [round(x, 3) for x in rss[w][s]] for s in SIDES}
                                 for w in runs},
        "workloads": {w: {m: compare(*([r["metrics"][m] for r in ok[w][s]] for s in SIDES), b)
                          for m, b in better.items()} for w in runs},
        f"trace_seed{TRACE_SEED}_{TRACE_WORKLOAD}": {
            "command": f"python3 bench/run.py --workload {TRACE_WORKLOAD} --seed {TRACE_SEED} "
                       f"--seconds {TRACE_SECONDS} --trace 1",
            "exit_codes": {s: traced[s]["exit"] for s in SIDES},
            "per_pass": table,
            "output_sha256_identical": len({traced[s].get("record", {}).get(
                "output_sha256") for s in SIDES}) == 1,
        },
        "peak_rss_attribution": {
            "method": "least squares of peak_rss_mb on the run's sample count, over all runs "
                      "of a workload whose sample count varies; the harness keeps every op's "
                      "output until RSS is read",
            **{w: rss_fit(samples[w], rss[w]) for w in runs
               if len(set(samples[w]["parent"] + samples[w]["change"])) > 1},
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for w in runs for s in SIDES for r in runs[w][s]) else 1


if __name__ == "__main__":
    sys.exit(main())
