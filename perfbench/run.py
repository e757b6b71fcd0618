"""Host-cost benchmark of serelay: one workload, checked, every metric printed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_inproc --seed 1 --seconds 20 --trace 0

Workloads: ``sweep_inproc``, ``bench_histogram`` and ``relay_tcp`` (see
``workloads.py``). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced run. The program is imported from the
checkout's ``src`` directory; without it the benchmark exits with status 2.

Set-up time is timed here, from starting a fresh interpreter until the worker
reports it is ready for its first timed op, over several interpreters; the
median is reported. The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_inproc", "bench_histogram", "relay_tcp")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# relay_tcp waits for older TIME_WAIT sockets to drain below this count first
TIME_WAIT_LIMIT = 6000
TIME_WAIT_MAX_WAIT_S = 70


def time_wait_count() -> int:
    """Sockets in TIME_WAIT in this network namespace, read from /proc."""
    count = 0
    for name in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(name, encoding="ascii") as handle:
                next(handle, None)
                count += sum(1 for line in handle if line.split()[3] == "06")
        except OSError:
            pass
    return count


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    return proc, started


def wait_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise RuntimeError(f"worker did not get ready (got {line!r})")
    return time.perf_counter() - started


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def run(args) -> dict:
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, started = start_worker(args, setup_only=True)
            try:
                setup_times.append(wait_ready(proc, started))
            finally:
                finish(proc)
    proc, started = start_worker(args, setup_only=False)
    try:
        setup_times.append(wait_ready(proc, started))
        lines = finish(proc).splitlines()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
        result["meta"]["setup_s_samples"] = [round(t, 4) for t in setup_times]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "serelay" / "__init__.py").is_file():
        print(f"no serelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    time_wait = {"start": time_wait_count()}
    if args.workload == "relay_tcp":
        deadline = time.monotonic() + TIME_WAIT_MAX_WAIT_S
        while time_wait["start"] > TIME_WAIT_LIMIT and time.monotonic() < deadline:
            time.sleep(1.0)
            time_wait["start"] = time_wait_count()
    try:
        result = run(args)
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    time_wait["end"] = time_wait_count()

    meta = result["meta"]
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        time_wait_sockets=time_wait,
        network="loopback interface only (relay_tcp); no other traffic",
    )
    correct = result["failed"] == 0 and result["diverging_passes"] == 0
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in result["problems"]:
        print("problem " + problem)
    if "sweep_table" in result:
        print("sweep_table " + json.dumps(result["sweep_table"], sort_keys=True))
    metrics = {}
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"metric {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    if not args.trace:
        # the result envelope's attempted/failed carry it; end-to-end metrics are never 0
        del metrics["failed_frac"]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    full = dict(result, correct=correct, metrics=metrics, meta=meta)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
