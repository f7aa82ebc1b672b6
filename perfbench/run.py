"""Campaign benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attack_alu --seed 1 --seconds 10 --trace 0

Workloads, metrics and units are listed in ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries every end-to-end metric,
measured untraced; with ``--trace 1`` it carries every per-layer
metric from a traced run.  Lines before it print the same numbers for
people, the failed share, and the host record.  ``--record PATH`` also
writes host, result and detail as JSON, which ``compare.py`` reads.

The run exits non-zero when a correctness check fails.  Everything it
writes goes under ``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from stats import Stopwatch, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_SAMPLES = 3
#: Below this share of campaign time in layer spans, the split is untrusted.
MIN_COVERAGE = 0.9
CAMPAIGNS = ("attack_alu", "attack_alu_jitter", "fullkey_alu")
WORKLOADS = CAMPAIGNS + ("service_mix",)
PROBE_TIMEOUT_S = 170.0
#: Left unset in every benchmark process: default kernels, and sensor
#: calibrations kept in process memory only, as ordinary runs keep them,
#: so that every fresh process calibrates.
UNSET = ("REPRO_KERNELS", "REPRO_CACHE_DIR", "REPRO_CALIBRATION_CACHE")


def fail(message: str) -> "NoReturn":  # noqa: F821
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="PATH")
    return parser.parse_args(argv)


def environment(workdir: str) -> Dict[str, str]:
    """Child environment: source tree on the path, scratch under ``workdir``."""
    env = {name: value for name, value in os.environ.items() if name not in UNSET}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_KERNELS_CACHE"] = os.path.join(ROOT, ".bench_build", "kernels")
    env["TMPDIR"] = os.path.join(workdir, "tmp")  # compiler and tempfile scratch
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Load is at most two campaign workers on two CPUs; BLAS helper
    # threads spinning beside them only add noise.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(argv: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )


def reap(proc: subprocess.Popen) -> int:
    """Wait for ``proc``; returns 1 if anything of its group outlived it."""
    try:
        proc.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return 0
    os.killpg(proc.pid, signal.SIGKILL)
    return 1


def build(env: Dict[str, str]) -> None:
    """Load the native kernels once, compiling them on first use."""
    proc = spawn([sys.executable, "-c", "from repro.util import kernels; kernels.backend_metadata()"], env)
    proc.communicate(timeout=900)
    if reap(proc) or proc.returncode != 0:
        fail("loading the native kernels failed")


def run_campaign(args: argparse.Namespace, env: Dict[str, str]) -> Dict[str, object]:
    """Set-up probes, then the workload itself, each in a fresh process.

    Every process is timed from spawn to its ``ready`` line; the
    workload process then reports its detail as its last line.
    """
    argv = [sys.executable, os.path.join(HERE, "campaign.py"), args.workload,
            str(args.seed), str(args.seconds), str(args.trace)]
    samples: List[float] = []
    leaked = 0
    for index in range(SETUP_SAMPLES):
        last = index == SETUP_SAMPLES - 1
        watch = Stopwatch()
        proc = spawn(argv if last else argv + ["--setup-only"], env)
        ready = proc.stdout.readline().strip() == "ready"
        samples.append(watch.stop()[0])
        out = proc.stdout.read() if last else ""
        leaked += reap(proc)
        if not ready or proc.returncode != 0:
            return {"attempted": 1, "failed": 1 + leaked,
                    "problems": ["workload process failed (exit %s)" % proc.returncode]}
    detail = json.loads(out.strip().splitlines()[-1])
    detail["setup_samples"] = samples
    detail["failed"] += leaked
    if leaked:
        detail.setdefault("errors", []).append("%d leaked process group(s)" % leaked)
    return detail


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_record() -> Dict[str, object]:
    import numpy
    from repro.util import kernels

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "kernels": kernels.backend_metadata(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
    }


def measure(args: argparse.Namespace, workdir: str, env: Dict[str, str]) -> Dict[str, object]:
    """Run the workload; returns attempted/failed/metrics/problems detail."""
    if args.workload == "service_mix":
        import service

        detail = service.measure(args.seed, args.seconds, bool(args.trace), workdir, env, SETUP_SAMPLES)
    else:
        detail = run_campaign(args, env)
    if "metrics" in detail:
        detail["metrics"]["setup_s"] = median(detail["setup_samples"])
        detail["metrics"]["peak_rss_mb"] = detail["peak_rss_mb"]
    return detail


def result_line(detail: Dict[str, object], spec: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The contract's last line, every listed metric with its unit."""
    source = detail.get("per_layer" if trace else "metrics") or {}
    listed = spec["per_layer" if trace else "end_to_end"]
    problems = list(detail.get("problems", []))
    metrics = {}
    for entry in listed:
        value = source.get(entry["name"])
        if value is None:
            if not trace:
                problems.append("metric %s was not measured" % entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    detail["problems"] = problems
    attempted = max(1, int(detail.get("attempted", 0)))
    failed = int(detail.get("failed", 0))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("run from the repository root (no BENCHMARK.json here)")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("the program's source tree src/repro is missing")
    with open(bench_path) as handle:
        spec = json.load(handle)

    workdir = os.path.join(ROOT, ".bench_build", "run-%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(workdir)
    env = environment(workdir)
    os.environ.update(env)  # this process also imports the program
    for name in UNSET:
        os.environ.pop(name, None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        build(env)
        from repro.util.shm import leaked_segments

        shm_before = set(leaked_segments())
        detail = measure(args, workdir, env)
        shm_leaks = sorted(set(leaked_segments()) - shm_before)
        if shm_leaks:
            detail["failed"] = int(detail.get("failed", 0)) + len(shm_leaks)
            detail.setdefault("errors", []).append("leaked shared memory: %s" % shm_leaks)
        host = host_record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = result_line(detail, spec, bool(args.trace))
    for name, metric in line["metrics"].items():
        print("%-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-28s %16.6g %s  (%d of %d operations)" % (
        "failed_share", line["failed"] / line["attempted"], "ratio", line["failed"], line["attempted"]))
    coverage = (detail.get("per_layer") or {}).get("layers.coverage")
    if args.workload in CAMPAIGNS and coverage is not None:
        detail["trusted"] = coverage >= MIN_COVERAGE
        if not detail["trusted"]:
            print("untrusted: layers.coverage %.3f is below %.2f" % (coverage, MIN_COVERAGE))
    for problem in detail.get("problems", []) + detail.get("errors", []):
        print("check failed: %s" % problem)
    print("host: %s" % json.dumps(host, sort_keys=True))
    if args.record:
        with open(args.record, "w") as handle:
            json.dump({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "host": host, "result": line, "detail": detail,
            }, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
