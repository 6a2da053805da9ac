"""The three phases every benchmark run is built from.

* :func:`memory_phase` — the headline BB [[72,12,6]] phenomenological
  memory point, in-process, ``packed`` then ``native`` at one seed.
* :func:`compile_phase` — one round of syndrome extraction compiled by
  every recorded codesign on BB [[72,12,6]] and HGP [[225,9,6]].
* :func:`served_phase` — a ``repro serve`` subprocess driven over HTTP:
  cold campaign jobs, cached resubmissions and status polls.
  :func:`campaign_phase` runs the same campaign in-process through
  ``run_campaign`` for the traced run.

Each phase checks its outputs and raises :class:`BenchError` when a
check fails; :class:`Ledger` counts operations attempted and failed.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.campaign
import repro.codes
from repro.campaign import CampaignSpec
from repro.core.codesign import codesign_by_name
from repro.core.memory import MemoryExperiment, effective_rounds
from repro.core.phenomenological import (
    build_phenomenological_model,
    build_spacetime_structure,
)
from repro.decoders.bposd import BPOSDDecoder
from repro.linalg.native import get_kernels
from repro.noise import HardwareNoiseModel

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

BB72 = "BB [[72,12,6]]"
HGP225 = "HGP [[225,9,6]]"
#: The headline operating point (the one ``BENCH_sim.json`` uses).
PHYSICAL_ERROR_RATE = 1e-3
ROUND_LATENCY_US = 50_000.0
BACKENDS = ("packed", "native")
#: Shots of each memory run, and the minimum memory iterations (each
#: runs both backends).
MEMORY_SHOTS = 2000
MEMORY_ITERATIONS = 5
#: Shots of the untimed warm-up run that builds structure and decoders.
WARMUP_SHOTS = 64
#: Codes compiled by every recorded codesign, and swept by the served
#: campaign (the frozen ``paper_figures`` document covers both).
CODES = (BB72, HGP225)
#: The served campaign: its budget (32-shot pilots for the first 8 of
#: its 12 points) and shots per shard.  ``paper_figures`` leaves
#: ``shard_shots`` to the decoder's 2048-shot block, larger than any
#: run at this budget, so every run would stay in the service's own
#: thread; at 16 shots every run splits into shards for the pool.
CAMPAIGN_BUDGET = 250
CAMPAIGN_SHARD_SHOTS = 16
#: Served rounds (each one cold job and one cached resubmission), and
#: the status polls shared out across them.
ROUNDS = 4
STATUS_POLLS = 2000
#: Worker processes of the served campaign service.
SERVICE_WORKERS = 2
#: Client poll interval while a served job runs (seconds).
POLL_INTERVAL = 0.01
#: Budget of the untimed job that starts the service's worker pool
#: (one 32-shot run, two shards).
WARMUP_BUDGET = 32
#: Untimed status polls before the timed ones.
WARMUP_POLLS = 100
#: Milliseconds a request to ``reference_server.py`` takes at the
#: nominal host speed (its median on a 2-vCPU Xeon VM in a quiet minute).
REFERENCE_REQUEST_MS = 0.55
TERMINAL_STATES = ("done", "failed", "cancelled")
#: A served job still running after this many seconds fails the run.
JOB_TIMEOUT_S = 120

RECORDED = json.loads((HERE / "recorded.json").read_text())
DEFAULT_SEED = RECORDED["default_seed"]
CODESIGNS = tuple(RECORDED["codesigns"])


class BenchError(RuntimeError):
    """An output check failed: the run reports no numbers."""


@dataclass
class Ledger:
    """Operations attempted and failed across one run."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += not ok


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(share * len(ordered))))
    return float(ordered[rank - 1])


class HostSpeed:
    """Fixed reference kernels, run right before and after each timed
    sample.

    The VMs this benchmark runs on share their cores, and the host's
    speed drifts by tens of percent within minutes.  Phase timings are
    therefore reported at the nominal host speed: the sample's seconds
    times the mean of the kernel's nominal over measured seconds timed
    right before and right after the sample, on the same clock (the
    kernel after one sample serves as the kernel before the next).
    The kernels are the benchmark's own code, so no change to the
    program moves them.  Each phase uses
    the kernel of its own kind of work, because contention slows
    object-heavy Python and streaming numpy code by different amounts:
    ``"python"`` (dict building and sorting) for compiles and cached
    served jobs, ``"numpy"`` (integer and float array passes, one
    thread) for memory runs, both for cold served jobs.
    """

    #: Kernel seconds at the nominal host speed: their medians on a
    #: 2-vCPU Xeon VM in a quiet minute.
    NOMINAL_S = {"python": 0.02, "numpy": 0.05}

    def __init__(self) -> None:
        rng = np.random.default_rng(20260101)
        self._words = rng.integers(0, 2**63, size=200_000, dtype=np.uint64)
        self._floats = rng.random((500, 2000))

    def _python(self) -> None:
        table = {}
        for i in range(30_000):
            table[(i * 7919) % 100_003] = str(i)
        sorted(table.items(), key=lambda item: item[1])

    def _numpy(self) -> None:
        words = self._words
        for _ in range(4):
            words = words ^ (words >> np.uint64(3))
            np.unique(words[:20_000])
        floats = self._floats
        for _ in range(3):
            np.minimum(np.abs(np.tanh(floats * 0.5)), 0.9).sum(axis=1)

    def factor(self, kind: str, clock=time.process_time) -> float:
        """Multiplier taking seconds timed on ``clock`` next to this call
        to seconds at the nominal host speed, measured with kernel
        ``kind`` (``"mixed"`` runs both kernels)."""
        kernels = ("python", "numpy") if kind == "mixed" else (kind,)
        # A garbage collection inside the kernel would time the
        # process's heap (up to three times the kernel), not the host.
        gc.disable()
        try:
            begin = clock()
            for kernel in kernels:
                getattr(self, "_" + kernel)()
            elapsed = clock() - begin
        finally:
            gc.enable()
        return sum(self.NOMINAL_S[kernel] for kernel in kernels) / elapsed


# ----------------------------------------------------------------------
# Memory experiments.

def memory_phase(seed: int, window: float, ledger: Ledger,
                 host: HostSpeed) -> dict:
    """Repeat the headline memory run on both backends.

    Iteration ``k`` runs ``packed`` then ``native`` at the root seed
    ``SeedSequence([seed, k])`` and requires equal ``(failures,
    shots)``; at the default seed, iteration 0 must also equal the
    recorded tally.  Runs at least ``MEMORY_ITERATIONS`` iterations and
    until ``window`` seconds have passed.  Rates are per CPU second of this
    process (time the hypervisor steals is not counted), at the
    nominal host speed.
    """
    code = repro.codes.code_by_name(BB72)
    experiments = {backend: MemoryExperiment(code=code, backend=backend,
                                             workers=1)
                   for backend in BACKENDS}
    rates = {backend: [] for backend in BACKENDS}
    try:
        for experiment in experiments.values():
            experiment.run(PHYSICAL_ERROR_RATE, ROUND_LATENCY_US,
                           shots=WARMUP_SHOTS,
                           seed=np.random.SeedSequence([seed, 2**31]))
        if get_kernels() is None:
            ledger.record(False)
            raise BenchError("native backend fell back to packed "
                             "(native_active is false)")
        start = time.perf_counter()
        before = host.factor("numpy")
        k = 0
        while k < MEMORY_ITERATIONS or time.perf_counter() - start < window:
            tallies = {}
            seconds = {}
            for backend, experiment in experiments.items():
                begin = time.process_time()
                result = experiment.run(
                    PHYSICAL_ERROR_RATE, ROUND_LATENCY_US, shots=MEMORY_SHOTS,
                    seed=np.random.SeedSequence([seed, k]))
                seconds[backend] = time.process_time() - begin
                tallies[backend] = (result.failures, result.shots)
                ledger.record(result.shots == MEMORY_SHOTS)
            after = host.factor("numpy")
            factor = (before + after) / 2
            before = after
            for backend in BACKENDS:
                rates[backend].append(
                    tallies[backend][1] / (seconds[backend] * factor))
            if tallies["packed"] != tallies["native"]:
                raise BenchError(f"memory iteration {k}: packed tally "
                                 f"{tallies['packed']} != native "
                                 f"{tallies['native']}")
            recorded = RECORDED["memory_tally"]
            if seed == DEFAULT_SEED and k == 0 \
                    and list(tallies["packed"]) != recorded:
                raise BenchError(f"memory tally {tallies['packed']} != "
                                 f"recorded {recorded}")
            k += 1
    finally:
        for experiment in experiments.values():
            experiment.close()
    return {f"shots_per_s.{backend}": median(values)
            for backend, values in rates.items()}


# ----------------------------------------------------------------------
# QCCD compilation.

def compile_phase(ledger: Ledger, host: HostSpeed) -> dict:
    """Compile every recorded codesign on ``CODES`` once.

    Each compile must reproduce its recorded execution time, operation
    count and shuttle count exactly; a compile that raises counts as a
    failed operation and is left out of the rate.  The rate is the
    scheduled operations over the compiles' CPU seconds at the nominal
    host speed.
    """
    operations = 0
    seconds = 0.0
    before = host.factor("python")
    for code_name in CODES:
        code = repro.codes.code_by_name(code_name)
        for name in CODESIGNS:
            begin = time.process_time()
            try:
                compiled = codesign_by_name(name).compile(code)
            except Exception as error:
                ledger.record(False)
                print(f"compiling {code_name} with {name} raised "
                      f"{error!r}", file=sys.stderr)
                continue
            elapsed = time.process_time() - begin
            after = host.factor("python")
            seconds += elapsed * (before + after) / 2
            before = after
            ledger.record()
            got = [compiled.execution_time_us, compiled.num_operations,
                   compiled.shuttle_count()]
            recorded = RECORDED["compile"][code_name][name]
            if got != recorded:
                raise BenchError(f"{code_name} / {name}: compiled {got} "
                                 f"!= recorded {recorded}")
            operations += compiled.num_operations
    if not operations:
        raise BenchError("every compile raised")
    return {"compiled_ops_per_s": operations / seconds}


# ----------------------------------------------------------------------
# Campaigns.

def campaign_document(budget: int, seed: int) -> dict:
    """The frozen ``paper_figures`` document at ``budget`` and ``seed``,
    sharded at ``CAMPAIGN_SHARD_SHOTS``."""
    document = json.loads((HERE / "paper_figures.json").read_text())
    document["budget"] = int(budget)
    document["seed"] = int(seed)
    for sweep in document["sweeps"]:
        sweep["shard_shots"] = CAMPAIGN_SHARD_SHOTS
    return document


def derived_seed(seed: int, *path: int) -> int:
    """A campaign seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def campaign_phase(seed: int, workdir: Path, ledger: Ledger) -> None:
    """One cold and one cached in-process ``run_campaign`` (workers=1)
    of the first cold document :func:`served_phase` serves."""
    spec = CampaignSpec.from_dict(
        campaign_document(CAMPAIGN_BUDGET, derived_seed(seed, 1, 0)))
    store = workdir / "inprocess_store.jsonl"
    results = [repro.campaign.run_campaign(spec, store=str(store), workers=1)
               for _ in range(2)]
    for result in results:
        ledger.record()
    cold, cached = ([table.to_json() for table in result.tables]
                    for result in results)
    if results[1].shots_sampled != 0 or cached != cold:
        raise BenchError("in-process cached campaign resampled or "
                         "changed its tables")


class HttpClient:
    """One request per connection to the local service; every request
    is counted in the ledger, non-2xx responses as failed."""

    def __init__(self, port: int, ledger: Ledger) -> None:
        self.port = port
        self.ledger = ledger

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, bytes, float]:
        """``(status, body, seconds)`` of one request."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        begin = time.perf_counter()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        seconds = time.perf_counter() - begin
        self.ledger.record(200 <= response.status < 300)
        return response.status, data, seconds

    def get_json(self, path: str) -> tuple[dict | None, float]:
        """The parsed body of a GET and its seconds; the body is
        ``None`` for a non-2xx response."""
        status, data, seconds = self.request("GET", path)
        return (json.loads(data) if 200 <= status < 300 else None), seconds


def child_env() -> dict:
    """Environment of the service subprocess (inherits the run's)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


@contextmanager
def service(workdir: Path, ledger: Ledger):
    """``repro serve`` on a fresh store, yielding ``(process, client)``
    once ``/healthz`` answers; stopped with SIGTERM on exit."""
    workdir.mkdir(parents=True, exist_ok=True)
    port_file = workdir / "port"
    with open(workdir / "serve.log", "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(workdir / "store.jsonl"),
             "--workers", str(SERVICE_WORKERS),
             "--port", "0", "--port-file", str(port_file)],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            yield process, _wait_healthy(process, port_file, ledger)
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


@contextmanager
def reference_server():
    """``reference_server.py`` as a subprocess, yielding a client for it
    whose requests are not counted as operations."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "reference_server.py")], cwd=ROOT,
        stdout=subprocess.PIPE)
    try:
        yield HttpClient(int(process.stdout.readline()), Ledger())
    finally:
        process.terminate()
        process.wait()
        process.stdout.close()


def _wait_healthy(process, port_file: Path, ledger: Ledger) -> HttpClient:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise BenchError(f"repro serve exited with {process.returncode}")
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text:
            client = HttpClient(int(text), ledger)
            try:
                if client.get_json("/healthz")[0] is not None:
                    return client
            except ConnectionError:
                pass
        time.sleep(0.005)
    raise BenchError("repro serve did not answer /healthz within 60 s")


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc status")


def _descendants_cpu_s(pid: int) -> float:
    """CPU seconds used so far by the live descendants of ``pid`` (the
    service's pool workers)."""
    parents = {}
    cpu = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, ...,
            # utime and stime are the 12th and 13th.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        child = int(stat.parent.name)
        parents[child] = int(fields[1])
        cpu[child] = int(fields[11]) + int(fields[12])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items()
                    if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return sum(cpu[child] for child in found) / os.sysconf("SC_CLK_TCK")


def _run_job(client: HttpClient, document: dict,
             busy_ms: list | None = None):
    """Submit, poll to a terminal state and fetch the tables.

    Returns the client-side seconds from submit to terminal state, the
    final job view and the raw ``/tables`` body; or ``None`` when the
    submit or ``/tables`` answered non-2xx or the job ended ``failed``
    or ``cancelled``.  The job is an operation of the ledger, next to
    its requests; a non-2xx status poll is counted and polled again.
    """
    begin = time.perf_counter()
    status, data, _ = client.request("POST", "/jobs", document)
    if not 200 <= status < 300:
        print(f"POST /jobs returned {status}: {data!r}", file=sys.stderr)
        client.ledger.record(False)
        return None
    job = json.loads(data)["job"]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        view, seconds = client.get_json(f"/jobs/{job}")
        if view is not None and view["state"] in TERMINAL_STATES:
            break
        if time.monotonic() > deadline:
            raise BenchError(f"served job {job} did not finish within "
                             f"{JOB_TIMEOUT_S} s")
        if view is not None and busy_ms is not None:
            busy_ms.append(seconds * 1e3)
        time.sleep(POLL_INTERVAL)
    elapsed = time.perf_counter() - begin
    client.ledger.record(view["state"] == "done")
    if view["state"] != "done":
        print(f"served job {job} ended {view['state']}: "
              f"{view.get('error')}", file=sys.stderr)
        return None
    status, tables, _ = client.request("GET", f"/jobs/{job}/tables")
    if not 200 <= status < 300:
        print(f"GET /jobs/{job}/tables returned {status}", file=sys.stderr)
        return None
    return elapsed, view, tables


def served_phase(seed: int, workdir: Path, ledger: Ledger,
                 host: HostSpeed) -> dict:
    """Cold jobs, cached resubmissions and closed-loop status polls.

    An untimed warm-up job at ``WARMUP_BUDGET`` first starts the worker
    pool.  Then ``ROUNDS`` rounds each run one cold job (the campaign
    at ``CAMPAIGN_BUDGET`` under its own seed derived from ``seed``, on
    a store that has never seen it), one cached resubmission of the
    first cold document that completed and an equal share of the
    ``STATUS_POLLS`` status polls, so every metric samples the whole
    phase rather than one stretch of it.  Every resubmission must
    sample zero shots and return ``/tables`` bytes identical to that
    cold job's; at the default seed the cold tables must match the
    recorded digests.  A job that fails and a non-2xx status poll are
    counted in the ledger and leave no sample; the run goes on.

    Job times are wall clock as the client sees them, scaled to the
    nominal host speed by :class:`HostSpeed` kernels timed right before
    and after each job: ``"python"`` for cached jobs, which are mostly
    the service compiling codesigns, ``"mixed"`` for cold ones, which
    also sample and decode.  Each status poll is followed by a request to
    :func:`reference_server`, and each round's poll latencies are
    scaled by ``REFERENCE_REQUEST_MS`` over that round's median
    reference latency.
    """
    documents = [campaign_document(CAMPAIGN_BUDGET, derived_seed(seed, 1, j))
                 for j in range(ROUNDS)]
    busy_ms: list[float] = []
    jobs = []
    cold_s: list[float] = []
    cached_s: list[float] = []
    status_ms: list[float] = []
    digests = {}
    #: ``(document, tables, status path)`` of the first cold job done.
    first = None
    with service(workdir, ledger) as (process, client), \
            reference_server() as reference:
        def timed_job(document, kind, busy_ms=None):
            """``_run_job`` with its seconds at the nominal host speed."""
            before = host.factor(kind, time.perf_counter)
            done = _run_job(client, document, busy_ms)
            if done is None:
                return None
            seconds, view, tables = done
            after = host.factor(kind, time.perf_counter)
            return seconds * (before + after) / 2, view, tables

        _run_job(client, campaign_document(WARMUP_BUDGET,
                                           derived_seed(seed, 0)))
        for round_index, document in enumerate(documents):
            done = timed_job(document, "mixed", busy_ms)
            if done is not None:
                seconds, view, tables = done
                jobs.append(view)
                cold_s.append(seconds)
                digests[round_index] = hashlib.sha256(tables).hexdigest()
                if first is None:
                    first = (document, tables, f"/jobs/{view['job']}")
                    for _ in range(WARMUP_POLLS):
                        client.get_json(first[2])
            if first is None:
                continue
            done = timed_job(first[0], "python")
            if done is not None:
                seconds, view, tables = done
                jobs.append(view)
                if (view["stats"]["shots_sampled"] != 0
                        or tables != first[1]):
                    raise BenchError(f"cached job {view['job']} sampled "
                                     f"{view['stats']['shots_sampled']} "
                                     "shots or returned different tables")
                cached_s.append(seconds)
            # The client's own garbage collections would show as
            # service latency; collect once, then hold them off.
            gc.collect()
            gc.disable()
            try:
                block, reference_ms = [], []
                for _ in range(STATUS_POLLS // ROUNDS):
                    view, seconds = client.get_json(first[2])
                    if view is not None:
                        block.append(seconds * 1e3)
                    reference_ms.append(
                        reference.request("GET", "/")[2] * 1e3)
            finally:
                gc.enable()
            factor = REFERENCE_REQUEST_MS / median(reference_ms)
            status_ms.extend(latency * factor for latency in block)
        rss_mb = _peak_rss_mb(process.pid)
        pool_cpu_s = _descendants_cpu_s(process.pid)
    if not (cold_s and cached_s and status_ms):
        raise BenchError("no served job or status poll succeeded")
    recorded = RECORDED["served_tables_sha256"]
    for index, digest in digests.items():
        if seed == DEFAULT_SEED and digest != recorded[index]:
            raise BenchError(f"cold job {index}: tables digest {digest} "
                             f"!= recorded {recorded[index]}")
    return {
        "cold_job_s": median(cold_s),
        "cached_job_s.p50": median(cached_s),
        "status_ms.p50": median(status_ms),
        "status_ms.p99": percentile(status_ms, 0.99),
        "service_rss_mb": rss_mb,
        "service.pool.worker_cpu_s": pool_cpu_s,
        "service.jobs.queue_wait_s": sum(job["started_at"]
                                         - job["submitted_at"]
                                         for job in jobs),
        "service.jobs.run_s": sum(job["finished_at"] - job["started_at"]
                                  for job in jobs),
        "service.http.poll_ms_busy": median(busy_ms) if busy_ms else 0.0,
    }


# ----------------------------------------------------------------------
# Set-up.

def setup_work() -> None:
    """The in-process part of what every run builds before timing.

    Codes, the headline point's space-time structure and noise model,
    a decoder per backend (``native`` loads the kernels from the warm
    cache) and the codesigns.  The set-up probe then starts ``repro
    serve`` through ``/healthz``.
    """
    bb72 = repro.codes.code_by_name(BB72)
    repro.codes.code_by_name(HGP225)
    rounds = effective_rounds(bb72)
    structure = build_spacetime_structure(bb72, rounds=rounds, basis="Z")
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=ROUND_LATENCY_US)
    model = build_phenomenological_model(bb72, noise, rounds=rounds,
                                         basis="Z", structure=structure)
    for backend in BACKENDS:
        decoder = BPOSDDecoder(model.check_matrix, model.priors,
                               max_iterations=40, backend=backend)
    if not decoder.native_active:
        raise BenchError("native decoder did not bind the kernel tier")
    for name in CODESIGNS:
        codesign_by_name(name)
