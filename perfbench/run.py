#!/usr/bin/env python3
"""annuharm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; annuharm is imported from ./src.
One process, one closed-loop client: each op starts after the previous one
returns, with no threads and at most one child process at a time.  The
workload's inputs come from --seed alone.

One round is the seed's full input list.  A run first runs one untimed
warm-up round, whose outputs are checked, then repeats whole timed rounds,
starting another only while it is expected to end within --seconds, so
every run sees the same mix.  A timed output must repeat the warm-up's
bitwise and keeps its verdict.  The last stdout line is the result JSON:

* --trace 0: the end-to-end metrics of BENCHMARK.json;
* --trace 1: the per-layer metrics, from one untraced and one traced pass
  over a round after a warm-up round, whose outputs must agree bitwise.
  Spans are written to .perfbench_out/.  verify_acceptance's traced run
  also times each CLI subcommand as its own process and checks that its
  stdout equals that of annuharm.cli.main in process.

See perfbench/README.md for the workloads and what each metric measures.
"""

import os

# before numpy loads: single-threaded BLAS and OpenMP here and in children
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("verify_acceptance", "solve_fuzz")
END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "failed_ops_frac": "fraction", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_annuharm():
    """Import annuharm from this checkout's src/, never from elsewhere."""
    if not (SRC / "annuharm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no annuharm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import annuharm
    if Path(annuharm.__file__).resolve().parent != SRC / "annuharm":
        raise SystemExit(f"perfbench: imported annuharm from {annuharm.__file__}")


def measure_setup(importtime: bool) -> tuple[list[float], list[dict]]:
    """Fresh interpreters up to the end of ``import annuharm``.

    The child prints time.perf_counter() (CLOCK_MONOTONIC, shared across
    processes) right after the import, so interpreter exit is not counted.
    """
    flags = ["-X", "importtime"] if importtime else []
    code = "import annuharm; import time; print(repr(time.perf_counter()))"
    walls, layers = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        walls.append(float(proc.stdout.strip()) - start)
        if importtime:
            from tracing import parse_importtime
            layers.append(parse_importtime(proc.stderr))
    return walls, layers


def make_workload(name: str):
    import workloads
    if name == "verify_acceptance":
        return workloads.VerifyAcceptance()
    return workloads.SolveFuzz()


class Tally:
    """Outcomes of every op run, in order."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes: Counter = Counter()
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.signatures: dict[int, str] = {}
        self.checks: dict[int, tuple[str, str]] = {}
        self.repeat_mismatches = 0

    def run_op(self, workload, index, op, runner):
        start = time.perf_counter()
        result, exc = None, None
        try:
            result = runner(op)
        except Exception as error:  # any escape is an op failure, not ours
            exc = error
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        signature = workload.signature(result, exc)
        first = self.signatures.setdefault(index, signature)
        if first != signature:
            self.repeat_mismatches += 1
        if first == signature and index in self.checks:
            # a bitwise repeat of a checked output has the same verdict
            status, reason = self.checks[index]
        else:
            status, reason = workload.check(op, result, exc)
            self.checks.setdefault(index, (status, reason))
        self.outcomes[status] += 1
        if status != "ok":
            self.failures[f"{op.label}: {reason}"[:160]] += 1
        if status == "wrong":
            self.wrong.append(f"{op.label}: {reason}")
        return elapsed, signature

    def run_round(self, workload, ops, runner) -> float:
        """Every op once, in order; returns the seconds spent in ops."""
        return sum(self.run_op(workload, i, op, runner)[0]
                   for i, op in enumerate(ops))

    def start_timing(self):
        """Forget the counts of a warm-up round.  Its outputs and verdicts
        stay, as the reference that later rounds must repeat bitwise."""
        self.latencies.clear()
        self.outcomes.clear()
        self.failures.clear()
        self.wrong.clear()

    def absorb(self, other: "Tally"):
        """Add another tally's ops to this one's counts."""
        self.latencies += other.latencies
        self.outcomes.update(other.outcomes)
        self.failures.update(other.failures)
        self.wrong += other.wrong
        self.repeat_mismatches += other.repeat_mismatches

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]


def run_rounds(workload, ops, seconds: float, tally: Tally) -> list[float]:
    """A warm-up round, then whole timed rounds while the next one is
    expected to end in time; returns the seconds each timed round spent in
    ops."""
    tally.run_round(workload, ops, workload.run)
    tally.start_timing()
    rounds = []
    while True:
        rounds.append(tally.run_round(workload, ops, workload.run))
        if sum(rounds) + statistics.fmean(rounds) > seconds:
            return rounds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it; the maximum when there are fewer
    samples than that."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(workload, ops, seconds, setup_walls) -> tuple[dict, dict, Tally]:
    tally = Tally()
    round_s = run_rounds(workload, ops, seconds, tally)
    rounds = len(round_s)
    tail_value, percentile, beyond = tail(tally.latencies)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "throughput_ops_per_s": tally.attempted / sum(round_s),
        "latency_p50_s": statistics.median(tally.latencies),
        "latency_tail_s": tail_value,
        # Jeffreys estimate (k + 1/2)/(n + 1) per round, so that it never
        # reads 0 and does not move with the number of rounds that fit
        "failed_ops_frac": (tally.failed / rounds + 0.5) / (len(ops) + 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"latency_tail_percentile": percentile,
              "latency_tail_samples_beyond": beyond,
              "latency_samples": tally.attempted, "rounds": rounds,
              "round_s_min_median_max": [min(round_s),
                                         statistics.median(round_s),
                                         max(round_s)],
              "busy_s": sum(round_s)}
    return metrics, detail, tally


def cli_commands(seed: int, tiny: bool, setup_walls) -> tuple[dict, Tally, list]:
    """Each CLI command as its own process, then through annuharm.cli.main:
    median process wall time per command, the share of it that
    interpreter start and import take, and the commands whose two stdouts
    differ."""
    from workloads import CliCommands

    cli = CliCommands(child_env())
    ops = cli.make_ops(seed, tiny)
    processes = Tally()
    walls: dict[str, list[float]] = {}
    for i, op in enumerate(ops):
        elapsed = processes.run_op(cli, i, op, cli.run)[0]
        walls.setdefault(op.inputs["argv"][0], []).append(elapsed)
    in_process = Tally()
    in_process.run_round(cli, ops, cli.run_in_process)
    metrics = {f"cli.{command}.wall_s": statistics.median(values)
               for command, values in walls.items()}
    metrics["cli.import_share"] = statistics.median(setup_walls) / \
        statistics.median(v for values in walls.values() for v in values)
    mismatches = [op.label for i, op in enumerate(ops)
                  if processes.signatures[i] != in_process.signatures[i]]
    return metrics, processes, mismatches


def traced(workload, ops, setup_layers, seed):
    """Per-layer metrics from one round run untraced and then traced through
    the library, after a warm-up round; the traced pass must reproduce the
    untraced outputs bitwise."""
    from tracing import Tracer, layer_metric_units

    metrics = {name: 0.0 for name in layer_metric_units()}
    for key in setup_layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in setup_layers)
    tracer = Tracer()
    tally = Tally()
    tally.run_round(workload, ops, workload.run)
    tally.start_timing()
    untraced_s = tally.run_round(workload, ops, workload.run)
    traced_tally = Tally()
    traced_s = 0.0
    with tracer.installed():
        for i, op in enumerate(ops):
            tracer.op_id = i
            traced_s += traced_tally.run_op(
                workload, i, op, lambda o: workload.run(o, tracer))[0]
    metrics.update(tracer.layer_metrics(len(ops)))
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / len(ops)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    tally.wrong += traced_tally.wrong
    detail = {"trace_file": str(trace_path.relative_to(ROOT)),
              "untraced_round_s": untraced_s, "traced_round_s": traced_s,
              "bitwise_mismatches": [
                  ops[i].label for i in range(len(ops))
                  if tally.signatures[i] != traced_tally.signatures[i]]}
    return metrics, detail, tally


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result JSON object, detail record)."""
    import_annuharm()
    from tracing import layer_metric_units
    from workloads import input_hash

    setup_walls, setup_layers = measure_setup(importtime=trace)
    workload = make_workload(name)
    ops = workload.make_ops(seed, tiny)
    if trace:
        metrics, detail, tally = traced(workload, ops, setup_layers, seed)
        if name == "verify_acceptance":
            # the acceptance configs and README examples as users run
            # them, one process per command
            cli_metrics, processes, mismatches = cli_commands(
                seed, tiny, setup_walls)
            metrics.update(cli_metrics)
            tally.absorb(processes)
            detail["bitwise_mismatches"] += mismatches
        units = layer_metric_units()
    else:
        metrics, detail, tally = end_to_end(workload, ops, seconds,
                                            setup_walls)
        units = END_TO_END_UNITS
    # every op was checked and each miss is counted in `failed`; correct
    # says whether the outputs could be trusted to be reproducible
    correct = not tally.repeat_mismatches and not detail.get("bitwise_mismatches")
    detail = {"workload": name, "seed": seed, "why": workload.why,
              "input_sha256": input_hash(ops), "round_ops": len(ops),
              "outcomes": dict(tally.outcomes),
              "failures": dict(tally.failures), "wrong": tally.wrong[:20],
              "repeat_mismatches": tally.repeat_mismatches, **detail}
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value in metrics.items()}}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
