"""The repository's benchmark: one command, three workloads, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table4_run --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the same work twice: untraced (for the tracing
overhead) and then with every layer boundary wrapped, and reports the
per-layer metrics.  ``--workload all`` runs the three workloads, each in
its own process, and prints the workload-specific metrics by name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is ``{"detail": ...}`` with the named metrics, gates, digest and
environment stamp.  The exit code is 1 when a correctness gate fails and
2 when the program under ``src/`` is missing.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table4_run", "fault_sweep", "control_plane")
# Work per --seconds second, sized on a 2-core x86 container so a run
# takes about --seconds.  table4_run's unit is the whole seven-app pass.
SECONDS_PER_SWEEP = 6
REQUESTS_PER_SECOND = 180
# One fault-sweep worker: the timed phases keep every thread on one CPU
# at a time (see workloads.WindowSampler), where a second worker thread
# of GIL-bound work only adds thread switches.
WORKERS = 1
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def _calibration_s(repeats=3):
    """Median time of a fixed pure-Python loop (recorded, never gated)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for index in range(300_000):
            acc = (acc * 31 + index) % 1_000_003
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "work_dir": WORK_DIR,
        "work_dir_note": "inside the checkout (the benchmark writes "
                         "nowhere else), so store fsyncs hit its filesystem",
        "calibration_s": _calibration_s(),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _execute(workload, seed, seconds):
    import workloads

    if workload == "table4_run":
        return workloads.table4_run(seed)
    if workload == "fault_sweep":
        return workloads.fault_sweep(
            seed, sweeps=max(1, seconds // SECONDS_PER_SWEEP), workers=WORKERS)
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="control_plane-", dir=ROOT / WORK_DIR)
    try:
        return workloads.control_plane(
            seed, work_root, requests=REQUESTS_PER_SECOND * seconds)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_one(args) -> int:
    from tracer import Tracer, install

    env = _environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    passes = [_execute(args.workload, args.seed, args.seconds)]
    result = passes[0]
    if args.trace:
        tracer = Tracer()
        install(tracer)
        passes.append(_execute(args.workload, args.seed, args.seconds))
        result = passes[1]
        result.gate(passes[0].digest_sha256 == result.digest_sha256,
                    "the traced pass simulated something else than the "
                    "untraced pass (digests differ)")
        overhead = result.wall_s / passes[0].wall_s
        metrics = tracer.metrics(overhead)
        (ROOT / OUT_DIR).mkdir(exist_ok=True)
        spans_path = ROOT / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        count = tracer.write_spans(spans_path)
        print(f"  trace.overhead_ratio {overhead:.3f} "
              f"(traced {result.wall_s:.2f} s / untraced "
              f"{passes[0].wall_s:.2f} s)")
        print(f"  {count} spans -> {spans_path.relative_to(ROOT)}")
        for name, metric in metrics.items():
            print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    else:
        metrics = {
            "setup_s": {"value": result.setup_s, "unit": "s"},
            "throughput": {"value": result.throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
        print(f"  setup_s     {result.setup_s:12.4f} s    (lower; median of "
              f"{len(result.setup_samples)} cold set-ups)")
        print(f"  throughput  {result.throughput:12.1f} 1/s  (higher; "
              f"{result.throughput_unit} per host second)")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:12.1f} MB   (lower)")
    # End-to-end numbers always come from the untraced pass.
    named = {name: {"value": value, "unit": unit, "better": better}
             for name, (value, unit, better) in passes[0].named.items()}
    for name, metric in named.items():
        print(f"  {name:<24} {metric['value']:12.4f} {metric['unit']:<5} "
              f"({metric['better']})")
    for line in result.notes:
        print(f"  {line}")
    errors = [error for p in passes for error in p.errors]
    gate_failures = [failure for p in passes for failure in p.gate_failures]
    for error in errors:
        print(f"  FAILED: {error}")
    for failure in gate_failures:
        print(f"  GATE: {failure}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.correct for p in passes)
    print(f"  gates {'pass' if correct else 'FAIL'}; {attempted} operations "
          f"attempted, {failed} failed; digest {result.digest_sha256[:16]}")
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "named": named,
        "setup_s": passes[0].setup_s, "setup_samples": passes[0].setup_samples,
        "peak_rss_mb": _peak_rss_mb(),
        "gate_failures": gate_failures, "errors": errors,
        "digest": {"sha256": result.digest_sha256,
                   "counts": result.digest_counts},
        "env": env}}, sort_keys=True))
    _print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the named metrics side by side.

    ``setup_s`` is summed over the workloads and ``peak_rss_mb`` is their
    maximum; every other metric comes from the one workload that has it.
    """
    details, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or len(lines) < 2:
            correct = False
            print(f"{workload}: exit code {proc.returncode}")
            continue
        details[workload] = json.loads(lines[-2])["detail"]
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
    rows = [("setup_s", sum(d["setup_s"] for d in details.values()), "s",
             "lower", "sum")]
    rows += [(name, metric["value"], metric["unit"], metric["better"], workload)
             for workload, detail in details.items()
             for name, metric in detail["named"].items()]
    rows.append(("peak_rss_mb", max(d["peak_rss_mb"] for d in details.values()),
                 "MB", "lower", "max"))
    print("end-to-end metrics (each workload in its own process)")
    for name, value, unit, better, where in rows:
        print(f"  {name:<24} {value:12.4f} {unit:<5} {better:<6} [{where}]")
    _print_result(correct, max(1, attempted), failed,
                  {name: {"value": value, "unit": unit}
                   for name, value, unit, _better, _where in rows})
    return 0 if correct and len(details) == len(WORKLOADS) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; the benchmark "
              f"measures the program under src/ and cannot run without it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
