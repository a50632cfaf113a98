#!/usr/bin/env python
"""Persistent measurement worker used by ``tools/perf_baseline.py``.

Reads workload names from stdin (one per line), measures each, and prints
a one-line JSON result.  The driver runs one worker per source tree — the
current one and, with ``--pre-tree``, a checkout of the pre-optimization
commit — and alternates per workload so both sides see the same machine
regime (shared hosts drift by tens of percent over minutes, which would
otherwise contaminate the speedup figures).

Workloads come from the tree's own :mod:`repro.perf.workloads`.
"""

from __future__ import annotations

import json
import sys


def _registry():
    from repro.perf.workloads import WORKLOADS, calibrate, measure

    ctx = {}

    def run(name):
        if name == "calibrate":
            return calibrate()
        workload = WORKLOADS[name]
        fn = workload.setup(ctx)
        fn()
        return measure(fn, workload.repeats)

    return run, set(WORKLOADS)


def main() -> int:
    run, known = _registry()

    print(json.dumps({"ready": True, "workloads": sorted(known)}), flush=True)
    for line in sys.stdin:
        name = line.strip()
        if not name:
            continue
        if name == "exit":
            break
        try:
            if name != "calibrate" and name not in known:
                raise KeyError(f"unknown workload {name}")
            result = {"name": name, "result": run(name)}
        except Exception as exc:  # report, keep serving
            result = {"name": name, "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
