"""Per-layer metrics of a traced run.

Every figure is per traced pass (totals divided by the number of traced
passes) so runs that fit a different number of passes into the same
``--seconds`` stay comparable.  The metric set is the same for every
workload; a layer a workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from layers import LAYER_OF, LAYERS
from tracer import Tracer, self_times

#: Ratios and their bases: name -> (numerator counter, denominator counter).
RATIOS = {
    "core.neighbor_table.insert.accepted_ratio": (
        "core.neighbor_table.insert.accepted",
        "core.neighbor_table.insert.offered",
    ),
    "core.splitting.kept_ratio": ("core.splitting.kept", "core.splitting.offered"),
    "distributed.refill.useful_ratio": (
        "distributed.refill.useful",
        "distributed.refill.queries",
    ),
    "service.wire.bytes_per_frame": ("service.wire.bytes", "service.wire.frames"),
}

#: Counters reported per pass, with their units.
PER_PASS_COUNTS = (
    "core.neighbor_table.insert.offered",
    "core.id_assignment.queries",
    "core.splitting.offered",
    "keytree.encryptions",
    "distributed.refill.queries",
    "distributed.multicast.duplicates",
    "service.wire.frames",
)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in LAYER_OF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["setup.net.self_s"] = "s"
    units["setup.wall_s"] = "s"
    for name in PER_PASS_COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "B" if name.endswith("bytes_per_frame") else "ratio"
    units["service.transport.local_deliveries"] = "count"
    units["service.aio.wait_s"] = "s"
    units["trace.passes"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer(
    tracer: Tracer, plain: dict, traced: dict
) -> Tuple[Dict[str, float], Dict[str, str], List[str]]:
    spans = tracer.spans
    selfs = self_times(spans)
    passes = len(traced["walls"])
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    setup_self: Dict[str, float] = defaultdict(float)
    op_time = op_self = setup_wall = 0.0
    for span, own in zip(spans, selfs):
        if span is None:
            continue
        nid, start, end, _, op = span
        name = tracer.names[nid]
        if name == "bench.op":
            op_time += end - start
            op_self += own
        elif name == "bench.setup":
            setup_wall += end - start
        elif op < 0:
            setup_self[LAYER_OF[name]] += own
        else:
            calls[name] += 1
            self_s[name] += own

    counters = tracer.counters
    units = metric_units()
    metrics: Dict[str, float] = {}
    for name in LAYER_OF:
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.self_s"] = self_s[name] / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v for n, v in self_s.items() if LAYER_OF[n] == layer) / passes
        )
    metrics["setup.net.self_s"] = setup_self["net"]
    metrics["setup.wall_s"] = setup_wall
    for name in PER_PASS_COUNTS:
        metrics[name] = counters[name] / passes
    for name, (num, den) in RATIOS.items():
        metrics[name] = counters[num] / counters[den] if counters[den] else 0.0
    metrics["service.transport.local_deliveries"] = (
        counters["transport.local_deliveries"]
        - counters["distributed.server_deliveries"]
    ) / passes
    metrics["service.aio.wait_s"] = metrics["service.aio.self_s"]
    metrics["trace.passes"] = float(passes)
    metrics["trace.coverage"] = 1.0 - op_self / op_time if op_time else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(
        traced["scaled"]
    ) / statistics.median(plain["scaled"])
    assert list(metrics) == list(units)

    lines = [
        f"traced passes = {passes}; untraced passes = {len(plain['walls'])}",
        "self time per pass by layer (largest first):",
    ]
    ranked = sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"])
    for layer in ranked:
        lines.append(f"  {layer:20s} {metrics[f'{layer}.self_s']:.6f} s")
    lines.append(f"  {'(not in a layer)':20s} {op_self / passes:.6f} s")
    return metrics, units, lines
