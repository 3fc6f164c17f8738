"""Self-test of the benchmark at tiny scale.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload once per mode (``--trace 0`` and ``--trace 1``) at
scale 0.25 and asserts that each run succeeds and prints exactly the
metrics ``BENCHMARK.json`` declares for that mode, each with its unit.
It then checks that a perturbed ``CellResult`` trips the output digest
and that a forbidden engine setting is refused.  Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import run

TINY_SCALE = 0.25


def tiny_workloads() -> dict:
    workloads = copy.deepcopy(run.WORKLOADS)
    for spec in workloads.values():
        spec["scale"] = TINY_SCALE
    return workloads


def declared_units() -> dict[int, dict[str, str]]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {
        trace: {m["name"]: m["unit"] for m in bench[section]}
        for trace, section in ((0, "end_to_end"), (1, "per_layer"))
    }


def check_workload_runs(workloads: dict) -> None:
    declared = declared_units()
    assert declared[0] == run.END_TO_END_UNITS, "END_TO_END_UNITS != BENCHMARK.json"
    assert declared[1] == run.PER_LAYER_UNITS, "PER_LAYER_UNITS != BENCHMARK.json"
    for name in workloads:
        for trace in (0, 1):
            out = io.StringIO()
            argv = ["--workload", name, "--seed", "7", "--seconds", "1"]
            with contextlib.redirect_stdout(out):
                code = run.main(argv + ["--trace", str(trace)], workloads=workloads)
            result = json.loads(out.getvalue().splitlines()[-1])
            assert code == 0 and result["correct"], f"{name} trace={trace}: {result}"
            assert result["failed"] == 0 and result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], f"{name} trace={trace}: {printed}"
            print(f"ok  {name} --trace {trace}", flush=True)


def check_digest_trips(workloads: dict) -> None:
    env, _ = run.preflight()
    name = "grid-gorder"
    spec = workloads[name]
    _, result = run.grid_rep(name, spec, 7, 0, env)
    phases: dict = {}
    run.check_grid_rep(name, spec, result, phases)
    assert phases["cold"]["failed"] == 0, phases
    perturbed = copy.deepcopy(result)
    perturbed["rows"][0]["l2_misses"] += 1
    phases = {}
    run.check_grid_rep(name, spec, perturbed, phases)
    assert phases["cold"]["failed"] == len(result["rows"]), phases
    print("ok  perturbed CellResult trips the digest check", flush=True)


def check_forbidden_env() -> None:
    os.environ["REPRO_SIM_ENGINE"] = "reference"
    try:
        run.preflight()
    except run.BenchmarkError:
        pass
    else:
        raise AssertionError("REPRO_SIM_ENGINE was not refused")
    finally:
        del os.environ["REPRO_SIM_ENGINE"]
    print("ok  forbidden engine setting refused", flush=True)


def main() -> int:
    workloads = tiny_workloads()
    check_workload_runs(workloads)
    check_digest_trips(workloads)
    check_forbidden_env()
    return 0


if __name__ == "__main__":
    sys.exit(main())
