"""One benchmark process: set up a workload, time its ops, check every output.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
It prints ``READY`` once set-up (imports, inputs, warm-up ops) is done, so the
parent can time set-up from process start, then one JSON line with the
measurement. With ``--setup-only`` it exits after ``READY``.
"""
from __future__ import annotations

import argparse
import array
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class LoopResult:
    durations_ns: array.array = field(default_factory=lambda: array.array("q"))
    block_rates: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_pass: list[str] = field(default_factory=list)
    diverging_passes: int = 0


def run_passes(workload, seconds: float, tracer=None) -> LoopResult:
    """Run whole passes over ``workload.ops`` until ``seconds`` have elapsed.

    Only ``workload.run`` is timed; checks and trace bookkeeping run between
    ops. ``ops_per_s`` samples are ops over the wall time spent in them, per
    block of ``workload.ops_per_block`` consecutive ops (default: the pass).
    A workload with ``max_ops_per_s`` starts its passes no faster than that
    rate allows; the host idles between such passes, and the first op after
    idling runs slower, so one untimed op precedes each of them.
    """
    res = LoopResult()
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    period = len(workload.ops) / workload.max_ops_per_s if workload.max_ops_per_s else 0.0
    block = min(workload.ops_per_block or len(workload.ops), len(workload.ops))
    while True:
        started = time.perf_counter()
        if period:
            try:
                workload.run(workload.ops[0])
            except Exception:  # the same op fails, and is counted, in the pass
                pass
        block_ns = block_ops = 0
        labels = []
        for op in workload.ops:
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                out, error = workload.run(op), None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, exc
            elapsed = clock() - t0
            if tracer is not None:
                tracer.active = False
                tracer.end_op()
            res.durations_ns.append(elapsed)
            block_ns += elapsed
            block_ops += 1
            if block_ops == block:
                res.block_rates.append(block_ops / (block_ns / 1e9))
                block_ns = block_ops = 0
            res.attempted += 1
            problems = [f"raised {error!r}"] if error else workload.check(op, out)
            if problems:
                res.failed += 1
                res.problems.extend(problems[: 10 - len(res.problems)])
            labels.append("error" if error else workload.label(op, out))
        if tracer is not None:
            tracer.end_pass()
        res.passes += 1
        if not res.first_pass:
            res.first_pass = labels
        elif labels != res.first_pass:
            res.diverging_passes += 1
        next_start = started + period
        if max(next_start, time.perf_counter()) >= deadline:
            return res
        time.sleep(max(0.0, next_start - time.perf_counter()))


def end_to_end(res: LoopResult) -> dict[str, tuple[float, str]]:
    micros = [d / 1e3 for d in res.durations_ns]
    deciles = statistics.quantiles(micros, n=10) if len(micros) > 1 else micros * 9
    return {
        "ops_per_s": (statistics.median(res.block_rates), "1/s"),
        "op_us_p50": (statistics.median(micros), "us"),
        "op_us_p90": (deciles[8], "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload, seconds: float, trace: bool, out_dir: Path) -> dict:
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload_params": workload.params(),
        "loop": "closed, one client, single process",
    }
    if not trace:
        res = run_passes(workload, seconds)
        metrics = end_to_end(res)
        runs = [res]
    else:
        from tracing import Tracer

        plain = run_passes(workload, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump_first_op(out_dir / f"spans-{workload.name}.jsonl")
        metrics = tracer.metrics()
        untraced_rate = statistics.median(plain.block_rates)
        traced_rate = statistics.median(traced.block_rates)
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_x"] = (untraced_rate / traced_rate, "x")
        meta["traced_ops"] = traced.attempted
        runs = [plain, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    meta["op_samples"] = len(runs[0].durations_ns)
    meta["passes"] = [r.passes for r in runs]
    result = {
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "diverging_passes": sum(r.diverging_passes for r in runs),
        "problems": [p for r in runs for p in r.problems][:10],
        "metrics": metrics,
    }
    if hasattr(workload, "table"):
        result["sweep_table"] = workload.table(runs[0].first_pass)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import serelay

    if not Path(serelay.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"serelay imported from {serelay.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        for op in workload.ops[: workload.warmup_ops]:
            workload.run(op)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args.seconds, bool(args.trace), OUT_DIR)
    finally:
        workload.close()
        try:
            out_dir.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
