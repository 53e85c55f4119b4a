"""Self-test of the benchmark at tiny size; takes about a minute.

    python3 perfbench/smoke.py

Run from the repository root. For every workload it writes tiny-size
goldens for seed 0 into a scratch goldens file, then runs the benchmark
against them with ``--trace 0`` and ``--trace 1``. Each run must be correct
and must print every metric that ``BENCHMARK.json`` names, with the same
unit. Then one stored golden value per workload is corrupted, and the run
must report the mismatch as a failure (``correct`` false, ``failed`` >= 1)
instead of passing. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import params
import run

HERE = Path(__file__).resolve().parent
SEED = 0


def bench(workload: str, trace: int, goldens: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--goldens", str(goldens)],
        capture_output=True, text=True, timeout=600,
    )
    print(out.stdout, end="")
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupt(outputs: dict) -> str:
    """Change one stored value of a job's golden; return what was changed."""
    for kind in sorted(outputs):
        job = outputs[kind]
        if job.get("digests"):
            name = sorted(job["digests"])[0]
            digest = job["digests"][name]
            job["digests"][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
            return f"{kind} digests.{name}"
        if job.get("ints"):
            name = sorted(job["ints"])[0]
            job["ints"][name] += 1
            return f"{kind} ints.{name}"
    raise AssertionError("no golden value to corrupt")


def main() -> int:
    expected = {0: params.metric_units("end_to_end"), 1: params.metric_units("per_layer")}
    scratch = Path.cwd() / ".perfbench-out" / "smoke"
    scratch.mkdir(parents=True, exist_ok=True)
    good = scratch / "goldens.json"
    good.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "goldens.py"), "--size", "tiny", "--seeds", str(SEED),
                    "--out", str(good)], env=run.child_env(scratch), check=True, timeout=600)
    table = json.loads(good.read_text(encoding="utf-8"))

    problems = []
    for workload in params.WORKLOADS:
        for trace in (0, 1):
            result = bench(workload, trace, good)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed with intact goldens")
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")

        bad_table = json.loads(json.dumps(table))
        changed = corrupt(bad_table["tiny"][workload][str(SEED)])
        bad = scratch / f"goldens-corrupt-{workload}.json"
        bad.write_text(json.dumps(bad_table), encoding="utf-8")
        result = bench(workload, 0, bad)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: corrupted golden {changed} was not reported")
        else:
            print(f"smoke: {workload}: corrupted golden {changed} reported as "
                  f"{result['failed']} failed of {result['attempted']}")

    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
