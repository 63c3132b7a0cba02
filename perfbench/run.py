"""bpire benchmark: three workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bpire is imported from its `src/`.
With `--trace 0` the workload's operations run as fresh processes, in whole
rounds, for about S seconds (a round starts while at least half of one still
fits), and the end-to-end metrics come from each operation's median over
rounds; set-up is measured apart, in fresh processes spread over the run.
With `--trace 1` one untimed round of fresh processes is
followed by two in-process rounds with one worker, untraced and traced, and
the per-layer metrics come from the traced one.  Every operation's output is
checked against references computed apart from bpire (reference.py) and
against the other rounds' output, which must be identical.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Files go to `.perfbench_runs/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 3
# exit codes that mean the experiment ran to its end: 0 all metrics pass,
# 1 a metric failed (theorem judges the limit at a level not yet reached)
COMPLETED = (0, 1)


@dataclass
class OpResult:
    name: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = 0
    problems: list[str] = field(default_factory=list)  # wrong output
    crashed: bool = False

    @property
    def failed(self) -> bool:
        return self.crashed or bool(self.problems)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("BPIRE_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The launch.py process, which starts every timed process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run argv to its end: wall s, CPU s and peak RSS MB of its process
        tree (children it waited for included), exit code."""
        req = {"argv": argv, "cwd": str(ROOT), "env": child_env(), "log": str(log)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        r = json.loads(reply)
        return r["wall_s"], r["cpu_s"], r["rss_mb"], r["exit_code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def op_argv(op, cfg: Path, seed: int, out: Path) -> list[str]:
    if op.name == "exact-law":
        caps = [str(c) for c in workloads.EXACT_CAPS]
        return [sys.executable, str(HERE / "exact_law.py"), "--config", str(cfg), "--out", str(out), "--caps", *caps]
    return [
        sys.executable, "-m", "bpire.cli", op.name, "--config", str(cfg),
        "--seed", str(seed), "--workers", str(op.workers), "--out", str(out),
    ]


def run_inprocess(op, cfg: Path, seed: int, out: Path) -> int:
    """The operation inside this process with one worker, through the same
    public calls the CLI and exact_law.py make (looked up at call time, so a
    tracer's wrappers see them).  Returns the exit code the CLI would give."""
    from bpire import config, experiments

    if op.name == "exact-law":
        import exact_law

        exact_law.compute(cfg, workloads.EXACT_CAPS, out)
        return 0
    c = config.load_config(cfg, experiment=op.name, seed=seed, workers=1, out_dir=str(out))
    report = experiments.run_experiment(c)
    experiments.emit_report(report, c.out_dir)
    return 0 if report.passed else 1


def artifacts(out: Path) -> dict[str, bytes]:
    """The operation's files; report.json without wall_ms and the workers
    echo, the only entries allowed to differ between runs of one seed."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    if "report.json" in files:
        doc = json.loads(files["report.json"])
        doc.pop("wall_ms", None)
        doc.get("config", {}).pop("workers", None)
        files["report.json"] = json.dumps(doc, sort_keys=True).encode()
    return files


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, launcher: Launcher):
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = workloads.operations(workload)
        self.configs = {}
        for op in self.ops:
            path = work / f"{op.name}.cfg"
            path.write_text(op.config)
            self.configs[op.name] = path
        self.first: dict[str, dict[str, bytes]] = {}  # artifacts of each op's first run
        self.exit_codes: dict[str, set[int]] = {op.name: set() for op in self.ops}

    def _judge(self, op, result: OpResult, out: Path) -> OpResult:
        self.exit_codes[op.name].add(result.exit_code)
        if result.exit_code not in COMPLETED:
            result.crashed = True
            return result
        try:
            result.problems = op.check(out)
            got = artifacts(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.problems = [f"unreadable output: {exc!r}"]
            return result
        want = self.first.setdefault(op.name, got)
        if got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            result.problems.append(f"output differs from the first run of this seed: {diff}")
        return result

    def _out(self, op) -> Path:
        out = self.work / f"out-{op.name}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def process_round(self) -> list[OpResult]:
        results = []
        for op in self.ops:
            out = self._out(op)
            wall, cpu, rss, code = self.launcher.run(
                op_argv(op, self.configs[op.name], self.seed, out), self.work / f"{op.name}.log"
            )
            results.append(self._judge(op, OpResult(op.name, wall, cpu, rss, code), out))
        return results

    def inprocess_round(self) -> tuple[float, list[OpResult]]:
        """All operations in this process, with one worker."""
        results = []
        t0 = time.perf_counter()
        for op in self.ops:
            out = self._out(op)
            t = time.perf_counter()
            try:
                code = run_inprocess(op, self.configs[op.name], self.seed, out)
            except Exception:  # an operation that raises has failed; keep measuring the rest
                traceback.print_exc()
                code = -1
            results.append(self._judge(op, OpResult(op.name, time.perf_counter() - t, exit_code=code), out))
        return time.perf_counter() - t0, results


def setup_seconds(runner: Runner) -> float:
    """Wall time of one set-up probe in a fresh process."""
    pairs = [f"{'oracle' if op.name == 'exact-law' else op.name}={runner.configs[op.name]}" for op in runner.ops]
    argv = [sys.executable, str(HERE / "setup_probe.py"), *pairs]
    wall, _, _, code = runner.launcher.run(argv, runner.work / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}; see {runner.work / 'setup.log'}")
    return wall


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "bpire").glob("*.py")))


def host() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines(),
    }


def report_failures(results: list[OpResult]) -> None:
    for r in results:
        if r.crashed:
            print(f"FAILED {r.name}: exit code {r.exit_code}", file=sys.stderr)
        for p in r.problems:
            print(f"WRONG {r.name}: {p}", file=sys.stderr)


def measure(runner: Runner, seconds: float) -> tuple[list[OpResult], dict, dict]:
    """End-to-end metrics: whole rounds for `seconds`, with set-up probes
    spread over them (one before the first round, the others where the
    rounds pass each further share of `seconds`, any left over at the end)."""
    setup = [setup_seconds(runner)]
    rounds = []
    spent = 0.0  # time in rounds, probes left out
    # start another round while at least half of one still fits
    while not rounds or spent * (1.0 + 0.5 / len(rounds)) <= seconds:
        t = time.perf_counter()
        rounds.append(runner.process_round())
        spent += time.perf_counter() - t
        if len(setup) < SETUP_PROBES and spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_seconds(runner))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(runner))
    # each operation's median over rounds, so that one slow operation in a
    # round does not carry the rest of that round with it
    per_op = list(zip(*rounds))
    wall = sum(statistics.median(r.wall_s for r in runs) for runs in per_op)
    metrics = {
        "wall_s": (wall, "s"),
        "replicas_per_s": (sum(op.replicas for op in runner.ops) / wall, "1/s"),
        "cpu_s": (sum(statistics.median(r.cpu_s for r in runs) for runs in per_op), "s"),
        "peak_rss_mb": (max(statistics.median(r.rss_mb for r in runs) for runs in per_op), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"rounds": len(rounds), "round_wall_s": [sum(r.wall_s for r in rnd) for rnd in rounds], "setup_s": setup}
    return [r for rnd in rounds for r in rnd], metrics, detail


def trace(runner: Runner) -> tuple[list[OpResult], dict, dict]:
    """Per-layer metrics from one traced in-process round."""
    from spans import ROOT, Tracer, layer_metrics

    results = runner.process_round()
    untraced_wall, plain = runner.inprocess_round()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(ROOT):
            traced_wall, traced = runner.inprocess_round()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    path = RUNS / f"trace-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps({"metrics": metrics, "spans": tracer.spans_json()}) + "\n")
    return results + plain + traced, metrics, {"untraced_wall_s": untraced_wall, "spans_file": str(path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bpire benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bpire" / "__init__.py").is_file():
        print(f"no bpire sources under {SRC}; run from the root of a bpire checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("seed must fit in 64 bits", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the in-process rounds of a traced run

    launcher = Launcher()
    try:
        RUNS.mkdir(exist_ok=True)
        work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        work.mkdir()
        try:
            runner = Runner(args.workload, args.seed, work, launcher)
            if args.trace:
                results, metrics, detail = trace(runner)
            else:
                results, metrics, detail = measure(runner, args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        launcher.close()

    report_failures(results)
    exit_codes = {name: sorted(codes) for name, codes in runner.exit_codes.items()}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host(),
               "exit_codes": exit_codes, **detail}
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps(summary))
    result = {
        "correct": not any(r.problems for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
