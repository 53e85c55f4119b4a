"""Run one benchmark workload and print its figures.

    python3 perfbench/run.py --workload meet-fresh --seed 1 --seconds 30 --trace 0

Run from the repository root; the code under test is imported from ``src/``.
The run sets up the inputs ``SETUP_REPEATS`` times in fresh processes (set-up
time is their median), then measures in one more process, with BLAS and
OpenMP pinned to one thread and the Monte Carlo pool at one worker per CPU.
It prints one line per metric, a provenance line, and, last, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Everything it writes goes under ``.perfbench-out/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import params

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# Set-up normally takes about a second and the last job, the replay and the
# report about 25 s past --seconds; the limits keep a run under 180 s.
SETUP_TIMEOUT_S = 12
MEASURE_SLACK_S = 80
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: list[str], env: dict, timeout: float, capture: bool) -> str:
    """Run a child in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        argv, env=env, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[1]).name} did not finish within {timeout:.0f} s")
    finally:
        try:  # nothing the child started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[1]).name} exited with code {proc.returncode}")
    return out or ""


def cpu_ticks() -> tuple[int, int] | None:
    """Machine-wide (steal, total) CPU ticks from /proc/stat, or None."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def provenance(args, workers: int) -> dict:
    root = Path.cwd()
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpu_caches": caches,
        "workers": workers,
        "blas_threads_pinned": 1,
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
    }


def bench(args) -> dict:
    if not (Path.cwd() / "src" / "dfa_meet").is_dir():
        raise BenchError("src/dfa_meet not found: run from the repository root")
    out = Path.cwd() / ".perfbench-out" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    for sub in ("inputs", "work", "tmp"):
        (out / sub).mkdir(parents=True)
    env = child_env(out / "tmp")
    workers = len(os.sched_getaffinity(0))
    attempted = failed = 0
    failures = []

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        line = run_child([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                          "--size", args.size, "--seed", str(args.seed),
                          "--out", str(out / "inputs")], env, SETUP_TIMEOUT_S, capture=True)
        setup_times.append(time.perf_counter() - t0)
        digests.add(json.loads(line.strip().splitlines()[-1])["digest"])
    attempted += 1
    if len(digests) != 1:
        failed += 1
        failures.append(f"inputs: {len(digests)} different input sets from one seed")

    result_path = out / "measure.json"
    ticks_before = cpu_ticks()
    run_child([sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
               "--size", args.size, "--seed", str(args.seed), "--inputs", str(out / "inputs"),
               "--work", str(out / "work"), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workers", str(workers),
               "--goldens", str(args.goldens.resolve()), "--result", str(result_path)],
              env, args.seconds + MEASURE_SLACK_S, capture=False)
    measured = json.loads(result_path.read_text(encoding="utf-8"))
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])

    metrics = dict(measured["metrics"])
    if not args.trace:
        median = statistics.median(setup_times)
        p90 = statistics.quantiles(setup_times, n=10, method="inclusive")[-1]
        metrics["setup_s"] = {"value": median, "n": len(setup_times), "p90": p90}
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {**metrics[name], "unit": unit}
               for name, unit in params.metric_units(section).items()}
    attempted += measured["attempted"]
    failed += measured["failed"]
    failures += measured["failures"]
    if "error_rate" in metrics:
        metrics["error_rate"].update(value=failed / attempted, n=attempted)
    report = {
        "provenance": {**provenance(args, workers), **measured["child"]},
        "golden": measured["golden"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s_samples": setup_times,
        # share of the machine's CPU time the hypervisor took while measuring
        "host_steal_frac": steal,
        "metrics": metrics,
        **{k: v for k, v in measured.items()
           if k not in ("metrics", "attempted", "failed", "failures", "child", "golden")},
    }
    (out / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="dfa-meet benchmark")
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(params.SIZES), default="full")
    parser.add_argument("--goldens", type=Path, default=HERE / "goldens.json")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        report = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    for name, m in report["metrics"].items():
        extra = f"  p90={m['p90']:.6g}" if "p90" in m else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{extra}  n={m.get('n', 1)}")
    print(f"failed/attempted operations: {report['failed']}/{report['attempted']}  "
          f"golden: {report['golden']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
