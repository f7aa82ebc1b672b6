"""The ``service_mix`` workload: a real server, one fleet worker, two clients.

The server (``repro serve``) and its fleet worker (``repro worker``) run
as subprocesses with fresh cache, spool and journal directories.  Two
client connections run a closed loop: each sends its next job only
after the previous one returned.  The job sequence is drawn from the
seed in blocks of ten with a fixed composition: five small trace
generations (two of them repeats), two attacks (one repeat) and three
full-key campaigns (one repeat).  A repeat copies the parameters of an
earlier job of the same kind, so the result cache, in-flight dedupe
and the tracegen batching window all see work while every seed asks
for the same amount of it.  These shares put p50 among fresh trace
generations and p90 among fresh full-key jobs, not on the edge between
two latency modes, where a percentile jumps from run to run.  Each new
attack or full-key job has its own seed, so the worker builds a fresh
experiment set-up for it, as a real service does for a new
configuration.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from stats import Stopwatch, median, percentile, samples_needed
from tracer import LayerTotals

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENTS = 2
#: One block of the job sequence: kind -> (new parameters, repeats).
BLOCK: Dict[str, Tuple[int, int]] = {"tracegen": (3, 2), "attack": (1, 1), "fullkey": (2, 1)}
SIZES: Dict[str, Dict[str, object]] = {
    "tracegen": {"traces": 500},
    "attack": {"traces": 8000},
    "fullkey": {"traces": 2000, "fleet": False},
}
#: Jobs one measured phase must hold, so ten latencies lie beyond p90.
MIN_JOBS = samples_needed(90)
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def job_mix(seed: int, count: int) -> List[Tuple[str, Dict[str, object]]]:
    """The seeded job sequence (see the module docstring).

    Every block holds the same number of new and repeated jobs of each
    kind, so the work per block does not depend on the seed; the seed
    picks the parameters, which earlier job a repeat copies, and the
    order within the block.
    """
    rng = random.Random(seed)
    earlier: Dict[str, List[Dict[str, object]]] = {kind: [] for kind in BLOCK}
    jobs: List[Tuple[str, Dict[str, object]]] = []
    while len(jobs) < count:
        block = []
        for kind, (new, repeats) in BLOCK.items():
            for _ in range(new):
                params = dict(SIZES[kind], seed=rng.randrange(1, 2**31))
                earlier[kind].append(params)
                block.append((kind, params))
            block.extend((kind, rng.choice(earlier[kind])) for _ in range(repeats))
        rng.shuffle(block)
        jobs.extend((kind, dict(params)) for kind, params in block)
    return jobs[:count]


class Fleet:
    """One server plus one registered fleet worker, as subprocesses.

    Each process leads its own process group, so :meth:`stop` can tell
    whether anything either of them started outlived it.
    """

    def __init__(self, workdir: str, env: Dict[str, str], trace_dir: Optional[str] = None):
        self.workdir = workdir
        self.env = env
        self.trace_dir = trace_dir
        self.procs: List[subprocess.Popen] = []
        self.host = "127.0.0.1"
        self.port = 0
        #: The server's own peak resident memory, read when it stops.
        self.server_peak_mb = 0.0

    def _argv(self, role: str, args: List[str]) -> List[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro"] + args
        out = os.path.join(self.trace_dir, "%s.json" % role)
        return [sys.executable, os.path.join(HERE, "traced_entry.py"), out] + args

    def _spawn(self, role: str, args: List[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            self._argv(role, args),
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.procs.append(proc)
        return proc

    def start(self) -> float:
        """Spawn both processes; seconds until the worker is registered
        (steal excluded)."""
        watch = Stopwatch()
        start = time.perf_counter()
        dirs = {name: os.path.join(self.workdir, name) for name in ("cache", "spool", "journal")}
        server = self._spawn(
            "server",
            ["serve", "--host", self.host, "--port", "0",
             "--cache-dir", dirs["cache"], "--spool-dir", dirs["spool"],
             "--journal-dir", dirs["journal"]],
        )
        line = _read_line(server, START_TIMEOUT_S)
        if "listening on" not in line:
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])
        self._spawn(
            "worker",
            ["worker", "%s:%d" % (self.host, self.port), "--name", "bench-w0",
             "--workers", "1", "--quiet"],
        )
        asyncio.run(self._wait_registered(start + START_TIMEOUT_S))
        return watch.stop()[0]

    async def _wait_registered(self, deadline: float) -> None:
        from repro.service.client import ServiceClient

        async with ServiceClient(self.host, self.port) as client:
            while True:
                overview = await client.jobs_overview()
                if (overview.get("fleet") or {}).get("workers"):
                    return
                if time.perf_counter() > deadline:
                    raise RuntimeError("fleet worker did not register")
                await asyncio.sleep(0.01)

    def metrics(self) -> Dict[str, object]:
        from repro.service.client import fetch_metrics

        return fetch_metrics(self.host, self.port)

    def stop(self) -> int:
        """SIGTERM and reap both; returns how many process groups leaked."""
        if self.procs:
            self.server_peak_mb = _peak_rss_mb(self.procs[0].pid)
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        leaked = 0
        for proc in self.procs:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                continue
            leaked += 1
            os.killpg(proc.pid, signal.SIGKILL)
        self.procs = []
        return leaked


def _peak_rss_mb(pid: int) -> float:
    """A live process's peak resident memory (``VmHWM``), 0 if unreadable."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not selector.select(timeout):
            return ""
        return proc.stdout.readline().strip()
    finally:
        selector.close()


@dataclass
class LoadResult:
    latencies: List[float] = field(default_factory=list)
    overheads: List[float] = field(default_factory=list)
    traces: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    wall: float = 0.0
    steal: float = 0.0
    server_peak_mb: float = 0.0
    samples: Dict[str, Tuple[Dict[str, object], Dict[str, object]]] = field(default_factory=dict)


async def closed_loop(host: str, port: int, jobs, seconds: float) -> LoadResult:
    """Run ``jobs`` from ``CLIENTS`` connections until time and count are met."""
    from repro.service.client import ServiceClient, ServiceError

    load = LoadResult()
    cursor = iter(range(len(jobs)))
    watch = Stopwatch()
    start = time.perf_counter()

    def next_job() -> Optional[int]:
        if time.perf_counter() - start >= seconds and load.attempted >= MIN_JOBS:
            return None
        index = next(cursor, None)
        if index is not None:
            load.attempted += 1
        return index

    async def client_loop() -> None:
        async with ServiceClient(host, port) as client:
            while (index := next_job()) is not None:
                kind, params = jobs[index]
                sent = time.perf_counter()
                try:
                    view = await client.submit(kind, params)
                except ServiceError as exc:
                    load.failed += 1
                    load.errors.append("%s: %s" % (type(exc).__name__, exc))
                    continue
                latency = time.perf_counter() - sent
                if view.get("status") != "done":
                    load.failed += 1
                    load.errors.append("job %s ended %s: %s" % (view.get("job_id"), view.get("status"), view.get("error")))
                    continue
                load.latencies.append(latency)
                load.overheads.append(latency - (float(view["finished_at"]) - float(view["submitted_at"])))
                load.traces += int(params["traces"])
                load.samples.setdefault(kind, (params, view["result"]))

    await asyncio.gather(*(client_loop() for _ in range(CLIENTS)))
    # Steal excluded: the run's stolen share scales the window and every
    # latency (jobs are too short to read steal per job).
    load.wall, load.steal = watch.stop()
    load.latencies = [latency * (1.0 - load.steal) for latency in load.latencies]
    return load


def spot_check(samples) -> List[str]:
    """Served results must equal the direct runner's for the same params."""
    from repro.service import runners
    from repro.service.codec import from_payload
    from repro.service.jobs import JobSpec

    problems = []
    for kind, (params, payload) in sorted(samples.items()):
        served = from_payload(payload)
        normalized = dict(JobSpec.create(kind, params).params)
        if kind == "tracegen":
            direct = runners.run_tracegen(normalized)
            same = all(np.array_equal(served[k], direct[k]) for k in ("ciphertexts", "voltages"))
        elif kind == "attack":
            direct = runners.run_attack(normalized)
            same = np.array_equal(served.correlations, direct.correlations)
        else:
            direct = runners.run_fullkey(normalized)
            same = all(
                np.array_equal(a.correlations, b.correlations)
                for a, b in zip(served.byte_results, direct.byte_results)
            )
        if not same:
            problems.append("%s job %s: served result differs from the direct runner" % (kind, params))
    return problems


def _phase(workdir: str, env, jobs, seconds: float, trace_dir: Optional[str] = None):
    fleet = Fleet(workdir, env, trace_dir)
    try:
        setup = fleet.start()
        load = asyncio.run(closed_loop(fleet.host, fleet.port, jobs, seconds))
        server_metrics = fleet.metrics()
    finally:
        leaked = fleet.stop()
    load.server_peak_mb = fleet.server_peak_mb
    return setup, load, server_metrics, leaked


def _service_layers(server_metrics: Dict[str, object], load: LoadResult) -> Dict[str, float]:
    snap = server_metrics["metrics"]
    counters = {k: v["value"] for k, v in snap["counters"].items()}
    gauges = snap["gauges"]
    hists = snap["histograms"]

    def mean(name: str) -> float:
        hist = hists.get(name) or {}
        return float(hist.get("mean") or 0.0)

    hits, misses = counters.get("cache_hits", 0), counters.get("cache_misses", 0)
    return {
        "service.queue_wait_s": mean("queue_wait_s"),
        "service.run_s": mean("run_s"),
        "service.overhead_s": median(load.overheads) if load.overheads else 0.0,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.jobs_deduped": float(counters.get("jobs_deduped", 0)),
        "service.batches": float(counters.get("batches", 0)),
        "service.coalesced_jobs": float(counters.get("coalesced_jobs", 0)),
        "service.fleet_leases": float(counters.get("fleet_leases_issued", 0)),
        "service.fleet_reassigned": float(counters.get("fleet_leases_reassigned", 0)),
        "service.queue_depth_max": float((gauges.get("queue_depth") or {}).get("high_water", 0.0)),
        "service.jobs_rejected": float(counters.get("jobs_rejected", 0)),
        "service.jobs_failed": float(counters.get("jobs_failed", 0)),
    }


def _traced_layers(trace_dir: str, jobs_done: int) -> Dict[str, float]:
    """Merge the server's and worker's span totals, per completed job."""
    totals: Dict[str, LayerTotals] = {}
    for role in ("server", "worker"):
        path = os.path.join(trace_dir, "%s.json" % role)
        with open(path) as handle:
            for name, entry in json.load(handle).items():
                merged = totals.setdefault(name, LayerTotals())
                merged.seconds += entry["seconds"]
                merged.total += entry["total"]
                merged.calls += entry["calls"]
                merged.items += entry["items"]
    return layers.summarize(totals, jobs_done)


def measure(seed: int, seconds: float, trace: bool, workdir: str, env: Dict[str, str],
            setups: int) -> Dict[str, object]:
    """``setups`` set-up samples, the last of them serving one measured
    phase (traced: a bare phase, then a traced phase for the spans)."""
    jobs = job_mix(seed, 4000)
    setup_samples = []
    leaked = 0
    for index in range(setups - 1):
        fleet = Fleet(os.path.join(workdir, "setup%d" % index), env)
        try:
            setup_samples.append(fleet.start())
        finally:
            leaked += fleet.stop()

    setup, load, server_metrics, phase_leaks = _phase(os.path.join(workdir, "load"), env, jobs, seconds)
    setup_samples.append(setup)
    leaked += phase_leaks
    result: Dict[str, object] = {"setup_samples": setup_samples, "peak_rss_mb": load.server_peak_mb}
    problems = spot_check(load.samples)
    if not load.server_peak_mb:
        problems.append("the server's peak resident memory could not be read")
    if len(load.latencies) < MIN_JOBS:
        problems.append("only %d jobs completed; a run needs %d" % (len(load.latencies), MIN_JOBS))
    jobs_per_s = len(load.latencies) / load.wall
    if trace:
        trace_dir = os.path.join(workdir, "spans")
        os.makedirs(trace_dir)
        _setup, traced, traced_metrics, phase_leaks = _phase(
            os.path.join(workdir, "traced"), env, jobs, seconds, trace_dir
        )
        leaked += phase_leaks
        per_layer = _traced_layers(trace_dir, len(traced.latencies))
        per_layer.update(_service_layers(traced_metrics, traced))
        per_layer["trace.overhead"] = (len(traced.latencies) / traced.wall) / jobs_per_s
        result["per_layer"] = per_layer
        load.attempted += traced.attempted
        load.failed += traced.failed
        load.errors += traced.errors
    elif load.latencies:
        result["metrics"] = {
            "traces_per_s": load.traces / load.wall,
            "jobs_per_s": jobs_per_s,
            "job_latency_p50_s": median(load.latencies),
        }
        if len(load.latencies) >= MIN_JOBS:
            result["metrics"]["job_latency_p90_s"] = percentile(load.latencies, 90)
        result["service"] = _service_layers(server_metrics, load)
    result.update(
        attempted=load.attempted,
        failed=load.failed + leaked,
        errors=(load.errors + ["%d leaked process group(s)" % leaked] * bool(leaked))[:5],
        problems=problems,
        jobs=len(load.latencies),
        steal=load.steal,
    )
    return result
