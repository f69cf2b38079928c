"""Census benchmark entry point.

Usage, from the repository root:
    python3 perfbench/run.py --workload census --seed 1 --seconds 16 --trace 0

Workloads and queries are in perfbench/spec.json; metric names, units and
bounds in BENCHMARK.json. With ``--trace 0`` the last stdout line carries
every end-to-end metric: ``setup_s`` is measured here, in fresh
interpreters, and the rest by session.py in a process of its own, so that
peak memory and CPU (pool workers included) belong to the workload alone.
With ``--trace 1`` it carries every per-layer metric of a traced run.
Details of each run go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 170

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_times(spec: dict) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of one cold import per fresh interpreter.

    A first, discarded probe leaves the bytecode cache written, as it is
    for an installed package.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(BENCH / "setup_probe.py"),
               str(spec["setup_probe_interval_s"]), str(spec["probe_nominal_s"])]
    times = []
    for _ in range(spec["setup_samples"] + 1):
        probe = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                               text=True, timeout=60, check=True)
        seconds, factor = probe.stdout.split()
        times.append((float(seconds), float(factor)))
    return times[1:]


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "ringrigidity" / "cli.py",
              ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        return fail(f"not a ringrigidity checkout, missing {', '.join(missing)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        return fail(f"unknown workload {args.workload!r}")

    record = {"machine_start": machine()}
    started = time.perf_counter()
    setup = [] if args.trace else setup_times(spec)
    # own process group, so a timeout also stops the session's pool workers
    session = subprocess.Popen(
        [sys.executable, str(BENCH / "session.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = session.communicate(
            timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(session.pid, signal.SIGKILL)
        session.communicate()
        return fail(f"workload {args.workload} ran over {RUN_TIMEOUT_S} s")
    if session.returncode != 0:
        return fail(f"session exited with code {session.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = statistics.median(raw * factor for raw, factor in setup)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_s": time.perf_counter() - started, "setup_samples_s": setup,
        "machine_end": machine(), "result": line,
    })
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-run.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
