"""Which ``repro`` functions the traced run wraps, and the counters it
takes at the same boundaries.

Each layer is named after the ``src/repro`` module it covers.  A wrap
point is the place a caller looks the function up: a class attribute
for methods, or the calling module's global for a function it imported
with ``from x import f``.  Per-message scalar helpers (``Topology.rtt``,
``one_way_delay``) are left out: a span costs more than their work and
would bury the layer under tracing overhead.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from tracer import Tracer

LAYERS = (
    "net",
    "core.membership",
    "core.id_assignment",
    "core.neighbor_table",
    "core.tmesh",
    "core.splitting",
    "keytree",
    "alm.nice",
    "experiments",
    "distributed",
    "service.wire",
    "service.transport",
    "service.aio",
)

#: (layer, module, owner within the module or "" for the module itself,
#:  attribute).  A method is wrapped on the class that defines it.
WRAP_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("net", "repro.net.gtitm", "TransitStubTopology", "__init__"),
    ("net", "repro.net.topology", "Topology", "ensure_rtt_matrix"),
    ("net", "repro.net.topology", "Topology", "rtt_many"),
    ("net", "repro.net.topology", "Topology", "rtt_to_many"),
    ("core.membership", "repro.core.membership", "Group", "join"),
    ("core.id_assignment", "repro.core.id_assignment", "IdAssigner", "determine_prefix"),
    ("core.id_assignment", "repro.core.membership", "", "complete_user_id"),
    ("core.id_assignment", "repro.experiments.common", "", "complete_user_id"),
    ("core.id_assignment", "repro.distributed.nodes", "", "complete_user_id"),
    ("core.neighbor_table", "repro.core.neighbor_table", "NeighborTable", "insert"),
    ("core.neighbor_table", "repro.core.neighbor_table", "NeighborTable", "fill"),
    ("core.neighbor_table", "repro.core.neighbor_table", "NeighborTable", "remove"),
    ("core.tmesh", "repro.experiments.latency_experiments", "", "rekey_session"),
    ("core.tmesh", "repro.core.tmesh", "", "run_multicast"),
    ("core.splitting", "repro.distributed.nodes", "", "split_for_next_hop"),
    ("keytree", "repro.keytree.modified_tree", "ModifiedKeyTree", "request_join"),
    ("keytree", "repro.keytree.modified_tree", "ModifiedKeyTree", "request_leave"),
    ("keytree", "repro.keytree.modified_tree", "ModifiedKeyTree", "process_batch"),
    ("keytree", "repro.keytree.cluster", "ClusterRekeyingTree", "request_join"),
    ("keytree", "repro.keytree.cluster", "ClusterRekeyingTree", "request_leave"),
    ("keytree", "repro.keytree.cluster", "ClusterRekeyingTree", "process_batch"),
    ("keytree", "repro.keytree.original_tree", "OriginalKeyTree", "initialize_balanced"),
    ("keytree", "repro.keytree.original_tree", "OriginalKeyTree", "request_join"),
    ("keytree", "repro.keytree.original_tree", "OriginalKeyTree", "request_leave"),
    ("keytree", "repro.keytree.original_tree", "OriginalKeyTree", "process_batch"),
    ("alm.nice", "repro.alm.nice", "NiceHierarchy", "join"),
    ("alm.nice", "repro.experiments.latency_experiments", "", "nice_multicast"),
    ("experiments", "repro.experiments.latency_experiments", "", "run_latency_experiment"),
    ("experiments", "repro.experiments.rekey_cost", "", "run_rekey_cost"),
    ("experiments", "repro.experiments.latency_experiments", "", "build_group"),
    ("experiments", "repro.experiments.latency_experiments", "", "build_nice"),
    ("experiments", "repro.experiments.latency_experiments", "", "build_topology"),
    ("experiments", "repro.experiments.rekey_cost", "", "build_topology"),
    ("experiments", "repro.experiments.common", "", "build_topology"),
    ("experiments", "repro.experiments.common", "CentralizedController", "join"),
    ("distributed", "repro.distributed.nodes", "UserNode", "on_message"),
    ("distributed", "repro.distributed.nodes", "ServerNode", "on_message"),
    ("distributed", "repro.distributed.nodes", "ServerNode", "end_interval"),
    ("distributed", "repro.distributed.nodes", "UserNode", "start_join"),
    ("distributed", "repro.distributed.nodes", "UserNode", "start_leave"),
    ("distributed", "repro.distributed.nodes", "UserNode", "probe_neighbors"),
    ("distributed", "repro.distributed.nodes", "UserNode", "request_recovery"),
    ("distributed", "repro.distributed.nodes", "UserNode", "refill_sweep"),
    ("service.wire", "repro.service.transport", "", "encode_frame"),
    ("service.wire", "repro.service.wire", "", "encode_frame"),
    ("service.wire", "repro.service.wire", "", "decode_body"),
    ("service.transport", "repro.service.transport", "StreamTransport", "_dispatch"),
    ("service.transport", "repro.service.transport", "StreamTransport", "ingress"),
    ("service.aio", "repro.service.aio", "AsyncioScheduler", "run"),
    ("service.aio", "repro.service.aio", "AsyncioScheduler", "run_coro"),
)


def span_name(layer: str, owner: str, attr: str) -> str:
    """Also the prefix of the span's metric names, so it uses only
    letters, digits, ``_`` and ``.``."""
    return f"{layer}.{owner + '.' if owner else ''}{attr}"


#: span name -> layer, for every wrap point.
LAYER_OF: Dict[str, str] = {
    span_name(layer, owner, attr): layer
    for layer, _, owner, attr in WRAP_POINTS
}


# ----------------------------------------------------------------------
# Counters taken where the work happens
# ----------------------------------------------------------------------
def _counting(tracer: Tracer) -> Dict[str, Tuple[Optional[Any], Optional[Any]]]:
    """(before, after) hooks per span name."""
    from repro.distributed import messages as m

    count = tracer.counters

    def insert_after(args, kwargs, accepted, _):
        count["core.neighbor_table.insert.offered"] += 1
        count["core.neighbor_table.insert.accepted"] += 1 if accepted else 0

    def assign_after(args, kwargs, outcome, _):
        count["core.id_assignment.queries"] += outcome.total_queries

    def split_after(args, kwargs, kept, _):
        encryptions = args[0] if args else kwargs["encryptions"]
        count["core.splitting.offered"] += len(encryptions)
        count["core.splitting.kept"] += len(kept)

    def batch_after(args, kwargs, result, _):
        count["keytree.encryptions"] += result.rekey_cost

    def frame_after(args, kwargs, frame, _):
        count["service.wire.frames"] += 1
        count["service.wire.bytes"] += len(frame)

    def server_after(args, kwargs, result, _):
        count["distributed.server_deliveries"] += 1

    def user_before(args, kwargs):
        node, payload = args[0], args[2] if len(args) > 2 else kwargs["payload"]
        if isinstance(payload, m.MulticastMsg):
            return payload.payload.interval in node.copies_received
        return None

    def user_after(args, kwargs, result, was_duplicate):
        payload = args[2] if len(args) > 2 else kwargs["payload"]
        if isinstance(payload, m.MulticastMsg):
            count["distributed.multicast.copies"] += 1
            count["distributed.multicast.duplicates"] += 1 if was_duplicate else 0
        elif isinstance(payload, m.QueryMsg) and payload.token[0] == "refill":
            count["distributed.refill.queries"] += 1
        elif isinstance(payload, m.QueryResponse) and payload.token[0] == "refill":
            count["distributed.refill.responses"] += 1
            count["distributed.refill.useful"] += 1 if payload.records else 0

    hooks: Dict[str, Tuple[Optional[Any], Optional[Any]]] = {
        "core.neighbor_table.NeighborTable.insert": (None, insert_after),
        "core.id_assignment.IdAssigner.determine_prefix": (None, assign_after),
        "core.splitting.split_for_next_hop": (None, split_after),
        "service.wire.encode_frame": (None, frame_after),
        "distributed.ServerNode.on_message": (None, server_after),
        "distributed.UserNode.on_message": (user_before, user_after),
    }
    for tree in ("ModifiedKeyTree", "ClusterRekeyingTree", "OriginalKeyTree"):
        hooks[f"keytree.{tree}.process_batch"] = (None, batch_after)
    return hooks


def install(tracer: Tracer, only: Optional[Tuple[str, ...]] = None) -> List[str]:
    """Wrap every wrap point (of the ``only`` layers, when given);
    returns the span names installed.  The caller must call
    ``tracer.restore()`` (in a ``finally``)."""
    hooks = _counting(tracer)
    names = []
    for layer, module_name, owner_name, attr in WRAP_POINTS:
        if only is not None and layer not in only:
            continue
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        name = span_name(layer, owner_name, attr)
        before, after = hooks.get(name, (None, None))
        tracer.wrap(owner, attr, name, before=before, after=after)
        names.append(name)
    return names
