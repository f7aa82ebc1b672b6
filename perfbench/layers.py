"""Which program functions the traced run wraps, and what each should move.

``LAYERS`` is the benchmark's layer table: the span name, the functions
wrapped under it (``module:qualname``), and the end-to-end metric the
layer's self time should move on which workload.  ``install`` patches
them all into a :class:`~tracer.Tracer`; ``summarize`` turns one
campaign's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracer import ROOT_NAMES, LayerTotals, Tracer, coverage, resolve


def _rows(args: tuple) -> int:
    """Rows of the first argument after ``self``."""
    return int(len(args[1]))


#: (span name, wrapped targets, work counter, moves)
LAYERS: List[Tuple[str, Tuple[str, ...], Optional[Callable[[tuple], int]], str]] = [
    ("aes.activity", ("repro.aes.batch:cycle_activity_and_ciphertexts",), None,
     "traces_per_s on attack_alu_jitter"),
    ("aes.leakage", ("repro.core.attack:AttackCampaign.campaign_inputs",
                     "repro.aes.leakage:LeakageModel.column_voltages"), None,
     "traces_per_s on attack_alu and fullkey_alu"),
    ("pdn.current", ("repro.pdn.aggressors:aes_current_waveform_batch",), None,
     "traces_per_s on attack_alu_jitter"),
    ("pdn.integrate", ("repro.pdn.model:PDNModel.integrate_batch",), None,
     "traces_per_s on attack_alu_jitter"),
    ("tracegen.noise", ("repro.core.tracegen:PhysicalTraceGenerator.add_ambient_noise",), None,
     "traces_per_s on attack_alu_jitter"),
    ("tracegen.misalign", ("repro.core.tracegen:PhysicalTraceGenerator.apply_misalignment",), None,
     "traces_per_s on attack_alu_jitter"),
    ("tracegen.self", ("repro.core.tracegen:PhysicalTraceGenerator.generate",
                  "repro.core.tracegen:PhysicalTraceGenerator.generate_deterministic"), None,
     "traces_per_s on attack_alu_jitter"),
    ("preprocess.apply", ("repro.preprocess.pipeline:ResolvedPreprocess.apply",), None,
     "traces_per_s on attack_alu_jitter"),
    ("setup.build", ("repro.experiments.setup:ExperimentSetup.sensor",
                     "repro.core.attack:AttackCampaign.characterize"), None,
     "setup_s on the campaign workloads (measured in set-up); job latency on service_mix"),
    ("preprocess.resolve", ("repro.preprocess.pipeline:resolve_preprocess",), None,
     "setup_s on attack_alu_jitter (measured in set-up)"),
    ("sensor.sample", ("repro.core.endpoint_sensor:BenignSensor.sample_bits",), _rows,
     "traces_per_s on attack_alu, then fullkey_alu, least attack_alu_jitter"),
    ("postprocess.reduce", ("repro.core.postprocess:hamming_weight_series",), None,
     "traces_per_s on attack_alu and fullkey_alu"),
    ("models.hypotheses", ("repro.attacks.models:single_bit_hypothesis",), None,
     "traces_per_s on fullkey_alu"),
    ("cpa.update", ("repro.attacks.cpa:StreamingCPA.update",), _rows,
     "traces_per_s on fullkey_alu; at most ~10% on attack_alu"),
    ("cpa.merge", ("repro.attacks.cpa:StreamingCPA.merge",), None,
     "traces_per_s on fullkey_alu"),
    ("cpa.correlations", ("repro.attacks.cpa:StreamingCPA.correlations",), None,
     "traces_per_s on fullkey_alu"),
    ("full_key.self", ("repro.attacks.full_key:recover_last_round_key",), None,
     "traces_per_s on fullkey_alu"),
    ("parallel.driver", ("repro.experiments.parallel:sharded_attack",
                         "repro.experiments.parallel:sharded_physical_attack",
                         "repro.experiments.parallel:sharded_full_key",
                         "repro.experiments.parallel:sharded_physical_full_key"), None,
     "traces_per_s on fullkey_alu; none on attack_alu (runs inline)"),
    ("executors.wait", ("repro.util.executors:map_ordered",), None,
     "traces_per_s on fullkey_alu; none on attack_alu (runs inline)"),
    ("shm.fanout", ("repro.util.shm:ArrayFanout.__init__",
                    "repro.util.shm:ArrayFanout.close"), None,
     "traces_per_s on fullkey_alu; none on attack_alu (runs inline)"),
]

#: Layers the campaign workloads report from their set-up phase, not
#: per campaign call.
SETUP_LAYERS = ("setup.build_s", "preprocess.resolve_s")

#: Modules whose imports reach every caller of a wrapped name.
CALLERS = (
    "repro.cli",
    "repro.experiments.benchmark",
    "repro.service.scheduler",
    "repro.service.worker",
)

#: Entry points that start one unit of service work; the traced server
#: and worker open a root span around each.
SERVICE_ROOTS = (
    "repro.service.runners:run_attack",
    "repro.service.runners:run_fullkey",
    "repro.service.runners:run_tracegen",
    "repro.service.runners:run_tracegen_batch",
    "repro.service.runners:run_attack_shard",
    "repro.service.runners:run_fullkey_shard",
)


def _traced_map_ordered(tracer: Tracer, original: Callable) -> Callable:
    """``map_ordered`` whose pool-thread tasks open a caused root span."""
    from repro.util.executors import resolve_executor

    @functools.wraps(original)
    def traced(fn, tasks, *args, **kwargs):
        def body():
            executor = kwargs.get("executor", args[1] if len(args) > 1 else None)
            if resolve_executor(executor) == "process":
                task = fn  # must stay picklable; process tasks go untraced
            else:
                cause = tracer.current()

                @functools.wraps(fn)
                def task(*a, **k):
                    return tracer.call("executors.task", fn, a, k, cause=cause)

            return original(task, tasks, *args, **kwargs)

        return tracer.call("executors.wait", body)

    return traced


def install(tracer: Tracer, roots: Sequence[str] = ()) -> None:
    """Patch every layer in ``LAYERS`` (and ``roots`` as campaign spans).

    The program's entry modules are imported first: a module that
    imported a name after patching would keep the wrapper past
    :meth:`Tracer.uninstall`.
    """
    for module in CALLERS:
        importlib.import_module(module)
    for name, targets, items, _moves in LAYERS:
        for target in targets:
            original = resolve(target)[2]
            if name == "executors.wait":
                replacement = _traced_map_ordered(tracer, original)
            else:
                replacement = tracer.wrap(name, original, items)
            tracer.patch(target, replacement)
    for target in roots:
        tracer.patch(target, tracer.wrap("campaign", resolve(target)[2]))


def summarize(totals: Dict[str, LayerTotals], campaigns: int) -> Dict[str, float]:
    """Per-campaign layer metrics from span totals over ``campaigns`` units."""
    per = float(max(1, campaigns))
    metrics: Dict[str, float] = {}
    for name, _targets, _items, _moves in LAYERS:
        entry = totals.get(name)
        metrics[name + "_s"] = (entry.seconds if entry else 0.0) / per
    sensor = totals.get("sensor.sample")
    update = totals.get("cpa.update")
    metrics["sensor.calls"] = (sensor.calls if sensor else 0) / per
    metrics["sensor.traces"] = (sensor.items if sensor else 0) / per
    metrics["cpa.updates"] = (update.calls if update else 0) / per
    metrics["cpa.traces"] = (update.items if update else 0) / per
    share, unattributed = coverage(totals)
    metrics["layers.coverage"] = share
    metrics["layers.unattributed_s"] = unattributed / per
    root = totals.get(ROOT_NAMES[0])
    metrics["campaign.wall_s"] = (root.total if root else 0.0) / per
    return metrics
