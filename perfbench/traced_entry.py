"""Run one ``repro`` CLI command with the layer wrappers installed.

Usage: ``python traced_entry.py OUT.json serve|worker ARGS...``

Used for the traced ``service_mix`` phase: the server and the fleet
worker open a root span around every runner call, and the span totals
are written to ``OUT.json`` when the command exits.
"""

from __future__ import annotations

import atexit
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    tracer = Tracer()
    layers.install(tracer, roots=layers.SERVICE_ROOTS)

    def dump() -> None:
        totals = aggregate(tracer.drain())
        with open(out + ".tmp", "w") as handle:
            json.dump({name: vars(entry) for name, entry in totals.items()}, handle)
        os.replace(out + ".tmp", out)

    atexit.register(dump)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
