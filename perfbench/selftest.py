#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each run, untraced and traced, emits exactly the metrics that
BENCHMARK.json names, with their units; that traced counts repeat exactly;
and that a deliberately wrong oracle value is counted in failed_ops_frac.
Exits non-zero on the first failed check.
"""

import json

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS = {
    False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}
COUNT_PREFIXES = ("metrics.rho_calls.", "metrics.rho_points.",
                  "metrics.rho_scalar_calls.")


def tiny_run(name: str, trace: bool) -> tuple[dict, dict]:
    result, detail = run.run(name, seed=1, seconds=0.01, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    units = {key: value["unit"] for key, value in result["metrics"].items()}
    assert units == UNITS[trace], (name, trace, set(units) ^ set(UNITS[trace]))
    return result, detail


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == run.WORKLOAD_NAMES, names
    for name in names:
        for trace in (False, True):
            result, detail = tiny_run(name, trace)
            assert result["correct"], (name, trace, detail)
            print(f"ok  {name} trace={int(trace)}: {result['attempted']} ops, "
                  f"{result['failed']} failed")

    first, _ = tiny_run("solve_fuzz", True)
    again, _ = tiny_run("solve_fuzz", True)
    for key, value in first["metrics"].items():
        if key.startswith(COUNT_PREFIXES):
            assert value == again["metrics"][key], (key, value, again["metrics"][key])
    print("ok  traced counts repeat exactly")

    import oracles
    honest = oracles.modulus
    baseline, _ = tiny_run("solve_fuzz", False)
    oracles.modulus = lambda *args: honest(*args) + 1.0
    try:
        broken, detail = tiny_run("solve_fuzz", False)
    finally:
        oracles.modulus = honest
    frac = lambda r: r["metrics"]["failed_ops_frac"]["value"]
    assert broken["failed"] > baseline["failed"], (broken, baseline)
    assert frac(broken) > frac(baseline)
    assert detail["wrong"], detail
    print(f"ok  a wrong oracle value is counted: failed {baseline['failed']} -> "
          f"{broken['failed']}, failed_ops_frac {frac(baseline):.3f} -> "
          f"{frac(broken):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
