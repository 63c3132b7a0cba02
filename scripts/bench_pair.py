"""Paired benchmark of a parent and a change checkout, written to BENCH_<n>.json.

Usage:
    python scripts/bench_pair.py --parent DIR --change DIR --n N [--seed 1] [--trace]

For each workload of BENCHMARK.json, pair i of ten runs
`perfbench/run.py --trace 0` at seed `--seed + i` and the benchmark's
`run_seconds` once in each checkout, parent first on even i and change first
on odd i, so that a machine drifting over the session weighs on both sides
alike.  The file records, per end-to-end metric, each side's runs with their
median and quartiles, the ratio of the medians (change over parent) and the
number of pairs in which the change was better; the failed and attempted
operation counts; the src line count and a sha256 of the `src/bpire/*.py`
files of both checkouts; and the host, with whether PYTHONDONTWRITEBYTECODE
is set: the timed processes inherit it, and then each compiles the source,
so its size shows in `wall_s` and `peak_rss_mb`.  With
`--trace`, five `--trace 1` runs per checkout and workload, paired and
alternated like the untraced ones, add each per-layer metric and, per chunk
sampler layer, the total time of its spans, with their median and quartiles:
a stationary sampler span times a whole chunk, while every other sampler
span times one block of it, so their per-chunk figures are a total divided
by the number of chunks.  The file goes to the
root of the change checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
TRACED_PAIRS = 5
SAMPLER_LAYERS = ("simulator.stationary_chunk", "simulator.count_chunk", "sre_compare.perpetuity_chunk")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench run in `checkout`: its summary line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def span_totals_ms(spans_file: str) -> dict[str, float]:
    spans = json.loads(Path(spans_file).read_text())["spans"]
    return {
        f"{layer}_total_ms": sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == layer) / 1e6
        for layer in SAMPLER_LAYERS
    }


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def paired_runs(sides: dict, workload: str, seed: int, seconds: float, trace: int, pairs: int) -> dict:
    """`pairs` runs per side at seeds seed, seed + 1, ..., parent first on
    even pairs and change first on odd ones: side -> [(summary, result)]."""
    runs = {side: [] for side in sides}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            summary, result = run_bench(sides[side], workload, seed + i, seconds, trace)
            runs[side].append((summary, result))
            wall = result["metrics"]["trace.wall_s" if trace else "wall_s"]["value"]
            print(f"{workload} trace {trace} pair {i} {side}: wall_s {wall:.3f}", flush=True)
    return runs


def checkout_info(path: Path) -> dict:
    rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=path, capture_output=True, text=True)
    files = sorted((path / "src" / "bpire").glob("*.py"))
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    lines = sum(len(p.read_text().splitlines()) for p in files)
    return {"revision": rev.stdout.strip(), "src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--n", type=int, required=True, help="number in the BENCH_<n>.json file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help=f"add {TRACED_PAIRS} traced runs per checkout and workload")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    host = {}
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = paired_runs(sides, workload, args.seed, seconds, 0, PAIRS)
        host = pairs["change"][-1][0]["host"]
        runs = {side: [result for _, result in pairs[side]] for side in sides}
        metrics = {}
        for name, spec in directions.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
            better = (lambda c, p: c < p) if spec["better"] == "lower" else (lambda c, p: c > p)
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                **{side: spread(values[side]) for side in sides},
                "change_over_parent": statistics.median(values["change"]) / statistics.median(values["parent"]),
                "pairs_change_better": sum(better(c, p) for c, p in zip(values["change"], values["parent"])),
            }
        entry = {
            "end_to_end": metrics,
            **{key: {side: sum(r[key] for r in runs[side]) for side in sides} for key in ("attempted", "failed")},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in sides},
        }
        if args.trace:
            entry["per_layer"] = {}
            for side, traced in paired_runs(sides, workload, args.seed, seconds, 1, TRACED_PAIRS).items():
                layers = [
                    {**{name: m["value"] for name, m in result["metrics"].items()}, **span_totals_ms(summary["spans_file"])}
                    for summary, result in traced
                ]
                entry["per_layer"][side] = {name: spread([run[name] for run in layers]) for name in layers[0]}
        workloads[workload] = entry

    doc = {
        "host": {
            **host,
            "machine": platform.machine(),
            "system": platform.system(),
            "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        },
        **{side: checkout_info(path) for side, path in sides.items()},
        "pairs": PAIRS,
        "seconds": seconds,
        "seeds": [args.seed, args.seed + PAIRS - 1],
        "workloads": workloads,
    }
    doc["host"].pop("src_lines", None)  # recorded per checkout
    out = sides["change"] / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
