"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py --base perfbench/baseline.json --new r1.json r2.json ...
    python3 perfbench/compare.py baseline OUT.json r1.json r2.json ...

Each input is either a record written by ``run.py --record`` or a
baseline file (``baseline.json``).  For every workload and end-to-end
metric the script prints both medians and the change, and marks a
change that is worse than the metric's bound in ``BENCHMARK.json``.
It refuses to compare results whose kernel backends differ: numbers
from different kernels measure different programs.  The ``baseline``
form condenses records into a baseline file: per workload and metric
the median and quartiles of the untraced runs, and the median of each
per-layer metric over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

Values = Dict[str, Dict[str, List[float]]]


def load(paths: List[str]) -> Tuple[List[dict], Values]:
    """Host records and ``{workload: {metric: [values]}}`` of some inputs."""
    hosts: List[dict] = []
    values: Values = {}
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        hosts.append(data["host"])
        if "workloads" in data:  # a baseline file: one median per metric
            for workload, metrics in data["workloads"].items():
                for name, entry in metrics.items():
                    values.setdefault(workload, {}).setdefault(name, []).append(entry["median"])
        elif not data.get("trace"):
            for name, entry in data["result"]["metrics"].items():
                values.setdefault(data["workload"], {}).setdefault(name, []).append(entry["value"])
    return hosts, values


def kernels_of(hosts: List[dict]) -> set:
    return {json.dumps(host["kernels"], sort_keys=True) for host in hosts}


def write_baseline(out: str, paths: List[str]) -> None:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    if len(kernels_of([r["host"] for r in records])) != 1:
        raise SystemExit("refusing to merge records from different kernel backends")
    sections: Dict[str, Dict[str, Dict[str, List[float]]]] = {"workloads": {}, "per_layer": {}}
    units: Dict[str, str] = {}
    for record in records:
        section = sections["per_layer" if record["trace"] else "workloads"]
        for name, entry in record["result"]["metrics"].items():
            section.setdefault(record["workload"], {}).setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    def summary(values: List[float]) -> Dict[str, float]:
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}

    baseline = {
        "host": records[0]["host"],
        "seeds": sorted({r["seed"] for r in records}),
        "seconds": records[0]["seconds"],
        "workloads": {
            workload: {name: dict(summary(v), unit=units[name], runs=len(v)) for name, v in metrics.items()}
            for workload, metrics in sections["workloads"].items()
        },
        "per_layer": {
            workload: {name: statistics.median(v) for name, v in metrics.items()}
            for workload, metrics in sections["per_layer"].items()
        },
    }
    with open(out, "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: List[str]) -> int:
    if argv[:1] == ["baseline"]:
        write_baseline(argv[1], argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args(argv)

    base_hosts, base = load(args.base)
    new_hosts, new = load(args.new)
    backends = kernels_of(base_hosts + new_hosts)
    if len(backends) != 1:
        print("refusing to compare: kernel backends differ: %s" % sorted(backends), file=sys.stderr)
        return 2
    with open(args.spec) as handle:
        spec = {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}

    worse = 0
    for workload in sorted(set(base) & set(new)):
        for name, entry in spec.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            change = (n - b) / b
            loss = -change if entry["better"] == "higher" else change
            flag = "WORSE" if loss > entry["bound"] else ""
            worse += bool(flag)
            print("%-18s %-18s %14.6g -> %-14.6g %+7.1f%% %s" % (
                workload, name, b, n, 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
