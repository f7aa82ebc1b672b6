"""The three campaign workloads: set-up, correctness gates, timed calls.

Each workload is one call of a public runner
(:func:`repro.service.runners.run_attack` / ``run_fullkey``) with
parameters normalized exactly as the service normalizes a job.  Before
anything is timed:

* a prefix campaign with ``kernels=numpy`` must be bit-identical to the
  same prefix on the default (native) kernels;
* a full campaign's outcome (key rank, MTD, correct-byte count and a
  digest of the final correlation rows) must equal the value pinned in
  ``pins.json`` for the seed, when the seed is pinned.

Every timed call's outcome must then equal that first outcome.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import layers
from stats import Stopwatch, median, percentile
from tracer import Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")


@dataclass(frozen=True)
class Campaign:
    kind: str
    params: Dict[str, object]
    prefix_traces: int


WORKLOADS: Dict[str, Campaign] = {
    "attack_alu": Campaign(
        "attack",
        {"circuit": "alu", "reduction": "hamming_weight", "traces": 200_000, "workers": 1},
        prefix_traces=20_000,
    ),
    "attack_alu_jitter": Campaign(
        "attack",
        {"circuit": "alu", "reduction": "hamming_weight", "traces": 100_000, "workers": 1,
         "jitter": "uniform:2", "preprocess": "align=correlation:4"},
        prefix_traces=10_000,
    ),
    "fullkey_alu": Campaign("fullkey", {"traces": 100_000, "workers": 2}, prefix_traces=10_000),
}

#: Calls a timed phase makes even when ``--seconds`` runs out first.
MIN_CALLS = 3


def job_params(workload: str, seed: int, **overrides: object) -> Dict[str, object]:
    """The workload's parameters, normalized like a service job."""
    from repro.service.jobs import JobSpec

    spec = WORKLOADS[workload]
    params = dict(spec.params, seed=int(seed))
    params.update(overrides)
    return dict(JobSpec.create(spec.kind, params).params)


def run(workload: str, params: Dict[str, object]):
    from repro.service import runners

    runner = runners.run_attack if WORKLOADS[workload].kind == "attack" else runners.run_fullkey
    return runner(params)


def prepare(workload: str, seed: int) -> None:
    """Everything between a fresh process and the first timed call.

    Import, native kernel load, sensor calibration and characterization
    and, for the physical route, preprocess plan resolution — filled
    into the runner's own caches, so the timed calls reuse exactly
    this work and do none of it again.
    """
    from repro.attacks.full_key import column_of_key_byte
    from repro.attacks.models import DEFAULT_TARGET_BYTE
    from repro.experiments.benchmark import warm_kernels
    from repro.service import runners
    from repro.util import kernels

    warm_kernels()
    params = job_params(workload, seed)
    with kernels.use(runners._kernels_spec(params)):
        config = runners._experiment_config(params)
        setup = runners.cached_setup(config)
        setup.campaign("alu").characterization
        misalignment, spec = runners._acquisition_specs(params)
        if spec is not None:
            # The runner's own plan cache, which the timed calls then hit.
            runners._resolved_plan(
                spec,
                runners._physical_generator(setup.cipher, misalignment),
                runners._physical_seed(config, "alu"),
                (column_of_key_byte(DEFAULT_TARGET_BYTE),),
            )


def outcome(result) -> Dict[str, object]:
    """Key rank, MTD, correct-byte count and final-row digest of a result."""
    if hasattr(result, "byte_results"):
        rows = np.vstack([r.correlations[-1] for r in result.byte_results])
        checkpoints = result.byte_results[0].checkpoints
        summary = {
            "rank": [int(r) for r in result.byte_ranks()],
            "mtd": result.worst_mtd(),
            "correct_bytes": int(result.num_correct_bytes),
        }
    else:
        rows = result.correlations[-1:]
        checkpoints = result.checkpoints
        rank = int(result.key_ranks()[-1])
        summary = {
            "rank": rank,
            "mtd": result.measurements_to_disclosure(),
            "correct_bytes": int(rank == 0),
        }
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(checkpoints, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())
    summary["digest"] = digest.hexdigest()[:32]
    return summary


def all_correlations(result) -> List[np.ndarray]:
    if hasattr(result, "byte_results"):
        return [r.correlations for r in result.byte_results]
    return [result.correlations]


class CheckFailed(Exception):
    """A correctness gate failed; the run reports ``correct: false``."""


def load_pins() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def check_pinned(workload: str, seed: int, got: Dict[str, object], pins=None) -> bool:
    """Compare against the pinned outcome; False when the seed is unpinned."""
    pins = load_pins() if pins is None else pins
    expected = pins.get(workload, {}).get(str(seed))
    if expected is None:
        return False
    if expected != got:
        raise CheckFailed(
            "%s seed %d: outcome %s differs from pinned %s" % (workload, seed, got, expected)
        )
    return True


def check_numpy_prefix(workload: str, seed: int) -> None:
    """Native and numpy kernels must agree bit for bit on a prefix campaign."""
    traces = WORKLOADS[workload].prefix_traces
    native = run(workload, job_params(workload, seed, traces=traces))
    reference = run(workload, job_params(workload, seed, traces=traces, kernels="numpy"))
    same = all(
        np.array_equal(a, b)
        for a, b in zip(all_correlations(native), all_correlations(reference))
    )
    if not same or outcome(native) != outcome(reference):
        raise CheckFailed(
            "%s seed %d: %d-trace prefix differs between native and numpy kernels"
            % (workload, seed, traces)
        )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    steal: List[float] = field(default_factory=list)


def timed_call(
    call: Callable[[], object],
    expected: Dict[str, object],
    tally: Tally,
    errors: List[str],
) -> Optional[float]:
    """Time one campaign call, steal excluded; its outcome must equal ``expected``."""
    tally.attempted += 1
    watch = Stopwatch()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        tally.failed += 1
        errors.append("%s: %s" % (type(exc).__name__, exc))
        return None
    wall, stolen = watch.stop()
    tally.steal.append(stolen)
    got = outcome(result)
    if got != expected:
        tally.failed += 1
        errors.append("repeat outcome %s differs from first %s" % (got, expected))
        return None
    return wall


def measure(workload: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> Dict[str, object]:
    """Gate and time one prepared campaign workload in this process.

    Untraced, every call is timed bare.  Traced (``tracer`` installed
    since before :func:`prepare`), bare and traced calls alternate so
    both see the same host conditions, and the ratio of their medians
    is the tracing overhead.
    """
    setup_spans = tracer.drain() if tracer is not None else []

    params = job_params(workload, seed)
    expected = outcome(run(workload, params))
    pinned = check_pinned(workload, seed, expected)
    check_numpy_prefix(workload, seed)

    def bare() -> object:
        return run(workload, params)

    def traced() -> object:
        return tracer.call("campaign", run, (workload, params))

    errors: List[str] = []
    tally = Tally()
    walls: List[float] = []
    traced_walls: List[float] = []
    spans = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or tally.attempted < MIN_CALLS:
        if tracer is not None:
            tracer.uninstall()
        wall = timed_call(bare, expected, tally, errors)
        if wall is not None:
            walls.append(wall)
        if tracer is not None:
            layers.install(tracer)
            tracer.drain()
            wall = timed_call(traced, expected, tally, errors)
            spans.extend(tracer.drain())
            if wall is not None:
                traced_walls.append(wall)
    if tracer is not None:
        tracer.uninstall()

    result: Dict[str, object] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": errors[:5],
        "outcome": expected,
        "pinned": pinned,
        "walls": walls,
        "steal": tally.steal,
    }
    if not walls:
        return result
    traces = int(params["traces"])
    if tracer is None:
        result["metrics"] = {
            "traces_per_s": traces / median(walls),
            "jobs_per_s": len(walls) / sum(walls),
            "job_latency_p50_s": median(walls),
            # Too few calls for ten samples beyond p90: nearest rank.
            "job_latency_p90_s": percentile(walls, 90, beyond=0),
        }
    elif traced_walls:
        per_layer = layers.summarize(aggregate(spans), len(traced_walls))
        in_setup = layers.summarize(aggregate(setup_spans), 1)
        per_layer.update((name, in_setup[name]) for name in layers.SETUP_LAYERS)
        per_layer["trace.overhead"] = median(walls) / median(traced_walls)
        result["per_layer"] = per_layer
    return result


def pin(first: int, last: int) -> None:
    """Write ``pins.json``: every campaign workload's outcome per seed."""
    pins = {
        workload: {
            str(seed): outcome(run(workload, job_params(workload, seed)))
            for seed in range(first, last + 1)
        }
        for workload in WORKLOADS
    }
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    """``campaign.py WORKLOAD SEED SECONDS TRACE [--setup-only]``

    Prints ``ready`` once set up (the parent times the process from
    spawn to that line), then the run's detail as one JSON line.
    ``campaign.py --pin FIRST LAST`` rewrites ``pins.json`` for the
    seeds ``FIRST..LAST``.
    """
    if argv[:1] == ["--pin"]:
        pin(int(argv[1]), int(argv[2]))
        return 0
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    prepare(workload, seed)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    try:
        detail = measure(workload, seed, seconds, tracer)
        detail["problems"] = []
    except CheckFailed as exc:
        detail = {"attempted": 1, "failed": 1, "problems": [str(exc)]}
    detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(detail), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
