"""Benchmark of the Cyclone reproduction: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bb72_memory --seed 17 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it records the environment.  A failed output check prints no
result and exits 1; a tree without ``src/repro`` exits 2.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives under here (ignored by git).
BUILD = ROOT / ".bench_build"
#: Set-up is measured this many times per run; the median is reported.
SETUP_PROBES = 3


#: Each workload's primary phase, whose process ``peak_rss_mb`` reads.
#: The memory phase repeats until the ``--seconds`` window has passed
#: only when it is primary; the served phase's fixed rounds take longer
#: than the window on their own.
WORKLOADS = {"bb72_memory": "memory", "served_campaign": "served"}


def _configure_environment() -> None:
    """Keep every write inside the checkout and find ``src/repro``."""
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native-cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))


def _fresh_dir(name: str) -> Path:
    path = BUILD / "work" / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def _setup_seconds() -> list[float]:
    """Process start to ready, for ``SETUP_PROBES`` fresh processes."""
    import phases

    samples = []
    for _ in range(SETUP_PROBES):
        workdir = _fresh_dir("setup")
        begin = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", str(workdir)],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            ready = probe.stdout.readline()
            seconds = time.perf_counter() - begin
            probe.stdout.read()
        finally:
            probe.stdout.close()
            try:
                code = probe.wait(timeout=120)
            except subprocess.TimeoutExpired:
                probe.kill()
                code = probe.wait()
        samples.append(seconds)
        if ready.strip() != b"ready" or code != 0:
            raise phases.BenchError(f"set-up probe failed (exit {code})")
        shutil.rmtree(workdir, ignore_errors=True)
    return samples


def _setup_probe(workdir: Path) -> int:
    import phases

    ledger = phases.Ledger()
    phases.setup_work()
    with phases.service(workdir, ledger):
        print("ready", flush=True)
    return 0


def _environment(primary: str, seed: int) -> dict:
    import numpy
    import phases

    from repro.core.codesign import available_codesigns
    from repro.linalg.native import get_kernels

    kernels = get_kernels()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_active": kernels is not None,
        "native_fingerprint": kernels.fingerprint if kernels else None,
        "seed": seed,
        "primary_phase": primary,
        "memory": {"shots": phases.MEMORY_SHOTS,
                   "iterations": phases.MEMORY_ITERATIONS},
        "compile": {"codes": phases.CODES, "codesigns": phases.CODESIGNS},
        "served": {"codes": phases.CODES, "budget": phases.CAMPAIGN_BUDGET,
                   "shard_shots": phases.CAMPAIGN_SHARD_SHOTS,
                   "service_workers": phases.SERVICE_WORKERS,
                   "cold_jobs": phases.ROUNDS,
                   "cached_jobs": phases.ROUNDS,
                   "status_polls": phases.STATUS_POLLS},
        "available_codesigns": available_codesigns(),
    }


def _untraced(primary: str, seed: int, seconds: float,
              ledger) -> dict:
    import phases

    host = phases.HostSpeed()
    metrics = {}
    setup = _setup_seconds()
    metrics["setup_s"] = phases.median(setup)
    metrics.update(phases.memory_phase(
        seed,
        seconds if primary == "memory" else 0.0, ledger, host))
    # Before the compile matrix, whose own peak would cover the memory
    # phase's.
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(phases.compile_phase(ledger, host))
    workdir = _fresh_dir("served")
    served_metrics = phases.served_phase(seed, workdir, ledger, host)
    shutil.rmtree(workdir, ignore_errors=True)
    metrics.update({name: served_metrics[name] for name in
                    ("cold_job_s", "cached_job_s.p50", "status_ms.p50")})
    metrics["peak_rss_mb"] = (served_metrics["service_rss_mb"]
                              if primary == "served" else own_rss_mb)
    return metrics


def _traced(seed: int, ledger) -> dict:
    """Per-layer metrics: the in-process section untraced, then traced.

    The served campaign runs in-process (``run_campaign``, one worker)
    so its layers can be wrapped; the ``service.*`` rows come from a
    served run of the same campaign afterwards.
    """
    import phases
    import repro.codes
    from tracing import Tracer, layer_report

    host = phases.HostSpeed()

    # The traced section swaps ``code_by_name`` for a wrapper, so keep
    # the cache's own clear method.
    clear_code_cache = repro.codes.code_by_name.cache_clear

    def section() -> float:
        clear_code_cache()
        workdir = _fresh_dir("traced")
        begin = time.perf_counter()
        phases.memory_phase(seed, 0.0, ledger, host)
        phases.compile_phase(ledger, host)
        phases.campaign_phase(seed, workdir, ledger)
        wall = time.perf_counter() - begin
        shutil.rmtree(workdir, ignore_errors=True)
        return wall

    untraced_wall = section()
    tracer = Tracer()
    with tracer.install():
        traced_wall = section()
    metrics = layer_report(tracer, traced_wall)
    metrics["trace_overhead"] = traced_wall / untraced_wall
    ledger.failed += int(tracer.counts["pipeline.shards_resubmitted"]
                         + tracer.counts["pipeline.local_fallbacks"])

    workdir = _fresh_dir("served")
    served_metrics = phases.served_phase(seed, workdir, ledger, host)
    shutil.rmtree(workdir, ignore_errors=True)
    for name in ("service.jobs.queue_wait_s", "service.jobs.run_s",
                 "service.http.poll_ms_busy", "service.pool.worker_cpu_s"):
        metrics[name] = served_metrics[name]
    metrics["service.http.status_ms.p99"] = served_metrics["status_ms.p99"]

    spans_path = BUILD / "results" / f"spans-{os.getpid()}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    _configure_environment()
    if args.setup_probe is not None:
        return _setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import phases
    from repro.linalg.native import get_kernels

    # Build (first run) or load the native kernels before any timing.
    if get_kernels() is None:
        print("native kernel tier unavailable", file=sys.stderr)
        return 1
    primary = WORKLOADS[args.workload]
    ledger = phases.Ledger()
    try:
        if args.trace:
            values = _traced(args.seed, ledger)
        else:
            values = _untraced(primary, args.seed, args.seconds, ledger)
    except phases.BenchError as error:
        print(f"benchmark check failed: {error}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared["per_layer" if args.trace
                                      else "end_to_end"]}
    environment = _environment(primary, args.seed)
    result = {"correct": True, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{os.getpid()}.json").write_text(
        json.dumps({"environment": environment, "result": result},
                   indent=2))
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
