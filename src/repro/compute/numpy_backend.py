"""The ``"numpy"`` compute backend: batch-vectorized protocol kernels.

The key observation (Theorem 1, and the premise of
:class:`repro.verify.oracle.DifferentialOracle`): with 1-consistent
tables the *delivery tree* of a fault-free session — who forwards which
rows to whom, and which copy delivers — is uniquely determined by the
tables alone.  Only the event *times* (and therefore the receipt/edge
ordering) depend on the topology's delays.  This backend exploits that
split:

* **Compile once per ``(sender_table, tables)``** (cache invalidated by
  the :class:`~repro.core.neighbor_table.NeighborTable` mutation epoch):
  a structural fan-out walk records members, delivering edges, per-level
  index arrays, and per-forwarder children — one reference-session's
  worth of Python, amortized over every replay.
* **Per session, pure array ops**: arrival times propagate level by
  level as gather-add-scatter over float64 columns (associating
  ``(arrival + processing_delay) + delay`` exactly as the reference
  loop does, so every float is bitwise identical), and the reference's
  event-pop order is recovered as a stable argsort of arrival times.
  When arrival ties exist — where argsort's tiebreak could diverge from
  the reference's push-sequence tiebreak — an exact heap mini-simulation
  over the compiled structure reproduces the reference order.
* **Lazy result**: the returned :class:`~repro.core.tmesh.SessionResult`
  materializes its Receipt/edge objects on first access, so
  array-consuming pipelines never pay for objects they don't read.

Splitting (Theorem 2) and key-tree marking vectorize over bit-packed
uint64 ID columns (:mod:`repro.compute.packing`): the prefix predicate
becomes one masked-XOR matrix, and holdings propagate down the delivery
tree as boolean rows.

Whenever an input falls outside a kernel's preconditions — failed
hosts, a session whose fan-out targets a member twice (tables violating
1-consistency), unpackable ID schemes, causality ties — the backend
delegates to :class:`~repro.compute.reference.ReferenceBackend`, whose
output is the contract.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.ids import Id
from ..core.neighbor_table import NeighborTable
from ..core.splitting import SplitSessionResult
from ..core.tmesh import OverlayEdge, Receipt, SessionResult
from . import ComputeBackend, register_backend
from .packing import MASKS, pack_ids
from .reference import ReferenceBackend


# ----------------------------------------------------------------------
# Compiled fan-out structure
# ----------------------------------------------------------------------
class _CompiledFanout:
    """The topology-independent structure of a fault-free session over a
    fixed ``(sender_table, tables)`` pair, in array form.

    Member slots are ``0 .. n-1`` in structural discovery order; the
    sender occupies the extra slot ``n`` (arrival 0.0).  Edges are laid
    out grouped per forwarder in schedule order — the reference appends
    a forwarder's whole block when it pops, so a stable sort of the
    groups by forwarder pop rank reproduces the reference edge order.
    """

    __slots__ = (
        "valid",
        "n",
        "sender_id",
        "sender_host",
        "member_ids",
        "member_hosts",
        "member_levels",
        "member_hosts_arr",
        "member_levels_arr",
        "e_rows_arr",
        "parent_ids",
        "e_src",
        "e_src_hosts",
        "e_dst_hosts",
        "e_src_host_list",
        "e_dst_host_list",
        "e_src_ids",
        "e_dst_ids",
        "e_rows",
        "max_level",
        "lvl_src",
        "lvl_dst",
        "lvl_edge",
        "children",
        "dup_count",
        "epoch",
        "tables_ref",
        "tables_len",
        "_delay_state",
    )


def _compile_fanout(sender_table, tables) -> _CompiledFanout:
    """One structural FORWARD walk (Fig. 2) recording the delivery tree.

    Marks the result invalid — caller falls back to the reference event
    loop — when any member is targeted more than once: then the delivery
    tree depends on arrival times and is not cacheable structure.
    """
    c = _CompiledFanout()
    sender = sender_table.owner
    sender_id = sender.user_id
    num_digits = sender_table.scheme.num_digits
    c.valid = True
    c.sender_id = sender_id
    c.sender_host = sender.host
    c._delay_state = None

    index: Dict[Id, int] = {}
    member_ids: List[Id] = []
    hosts: List[int] = []
    levels: List[int] = []
    parent_ids: List[Id] = []
    deliver: List[int] = []  # canonical edge index delivering each member
    e_src: List[int] = []  # forwarder slot (-1 = sender)
    e_rows: List[int] = []
    e_sh: List[int] = []
    e_dh: List[int] = []
    e_src_ids: List[Id] = []
    e_dst_ids: List[Id] = []
    children: Dict[int, List[int]] = {}
    dup = 0
    tables_get = tables.get

    # FIFO of forwarders; the sender's rows follow the server/user rule,
    # members forward rows ``level .. D-1`` (as in the reference drain).
    sender_rows = (0,) if sender_table.is_server_table else range(num_digits)
    work = deque()
    work.append((-1, sender_table, sender_rows, sender_id, sender.host))
    while work:
        slot, table, rows, src_uid, src_host = work.popleft()
        kids = children.setdefault(slot, [])
        for i in rows:
            for _j, nbr in table.row_primaries(i):
                uid = nbr.user_id
                eidx = len(e_src)
                if uid == sender_id:
                    # A copy sent back to the sender: counted as a
                    # duplicate, never forwarded.
                    e_src.append(slot)
                    e_rows.append(i)
                    e_sh.append(src_host)
                    e_dh.append(nbr.host)
                    e_src_ids.append(src_uid)
                    e_dst_ids.append(uid)
                    dup += 1
                    continue
                if uid in index:
                    c.valid = False  # timing-dependent delivery tree
                    return c
                tslot = len(member_ids)
                index[uid] = tslot
                member_ids.append(uid)
                hosts.append(nbr.host)
                levels.append(i + 1)
                parent_ids.append(src_uid)
                deliver.append(eidx)
                kids.append(tslot)
                e_src.append(slot)
                e_rows.append(i)
                e_sh.append(src_host)
                e_dh.append(nbr.host)
                e_src_ids.append(src_uid)
                e_dst_ids.append(uid)
                t = tables_get(uid)
                if t is not None and i + 1 < num_digits:
                    if t.is_server_table:
                        c.valid = False  # a member can't run server rows
                        return c
                    work.append(
                        (tslot, t, range(i + 1, num_digits), uid, nbr.host)
                    )

    n = len(member_ids)
    c.n = n
    c.member_ids = member_ids
    c.member_hosts = hosts
    c.member_levels = levels
    c.parent_ids = parent_ids
    c.e_src = np.array([n if s < 0 else s for s in e_src], dtype=np.intp)
    c.e_src_hosts = np.array(e_sh, dtype=np.intp)
    c.e_dst_hosts = np.array(e_dh, dtype=np.intp)
    c.e_src_host_list = e_sh
    c.e_dst_host_list = e_dh
    c.e_src_ids = e_src_ids
    c.e_dst_ids = e_dst_ids
    c.e_rows = e_rows
    c.children = children
    c.dup_count = dup
    # Integer columns mirrored as arrays: materialization reorders them
    # with one fancy index + tolist instead of a per-element Python loop.
    c.member_hosts_arr = np.array(hosts, dtype=np.int64)
    c.member_levels_arr = np.array(levels, dtype=np.int64)
    c.e_rows_arr = np.array(e_rows, dtype=np.int64)

    max_level = max(levels) if levels else 0
    c.max_level = max_level
    by_level: List[List[int]] = [[] for _ in range(max_level + 1)]
    for m, lvl in enumerate(levels):
        by_level[lvl].append(m)
    c.lvl_dst = [None] * (max_level + 1)
    c.lvl_src = [None] * (max_level + 1)
    c.lvl_edge = [None] * (max_level + 1)
    for lvl in range(1, max_level + 1):
        idx = by_level[lvl]
        c.lvl_dst[lvl] = np.array(idx, dtype=np.intp)
        c.lvl_edge[lvl] = np.array([deliver[m] for m in idx], dtype=np.intp)
        c.lvl_src[lvl] = np.array(
            [n if e_src[deliver[m]] < 0 else e_src[deliver[m]] for m in idx],
            dtype=np.intp,
        )
    return c


def _fanout_for(sender_table, tables) -> Optional[_CompiledFanout]:
    """The compiled fan-out for this pair, recompiled whenever any
    neighbor table mutated (global epoch) or a different tables dict is
    presented.  ``None`` when the structure is timing-dependent."""
    epoch = NeighborTable._mutation_epoch
    c = getattr(sender_table, "_compiled_fanout", None)
    if (
        c is None
        or c.tables_ref is not tables
        or c.epoch != epoch
        or c.tables_len != len(tables)
    ):
        c = _compile_fanout(sender_table, tables)
        c.epoch = epoch
        c.tables_ref = tables
        c.tables_len = len(tables)
        try:
            sender_table._compiled_fanout = c
        except AttributeError:  # table types without __dict__: recompile
            pass
    return c if c.valid else None


def _delays_for(c: _CompiledFanout, topology):
    """Per-canonical-edge one-way delays (plus per-level gathers), cached
    per topology object.  Bitwise the values the reference reads: the
    dense rows are ``rtt_matrix / 2.0`` and the scalar fallback calls
    ``one_way_delay`` pair by pair."""
    state = c._delay_state
    if state is not None and state[0] is topology:
        return state[1], state[2]
    m = topology.rtt_matrix_or_none()
    if m is not None:
        e_delay = m[c.e_src_hosts, c.e_dst_hosts] / 2.0
    else:
        owd = topology.one_way_delay
        e_delay = np.array(
            [
                owd(a, b)
                for a, b in zip(c.e_src_host_list, c.e_dst_host_list)
            ],
            dtype=np.float64,
        )
    lvl_delay: List[Optional[np.ndarray]] = [None] * (c.max_level + 1)
    for lvl in range(1, c.max_level + 1):
        lvl_delay[lvl] = e_delay[c.lvl_edge[lvl]]
    c._delay_state = (topology, e_delay, lvl_delay)
    return e_delay, lvl_delay


def _tie_order(c: _CompiledFanout, recv: "np.ndarray") -> "np.ndarray":
    """Exact delivery order under arrival ties: replay the reference's
    heap over the compiled structure.  Push sequence numbers are
    chronological exactly as the reference assigns them (duplicate
    copies to the sender change absolute sequence values but never the
    relative order of two pushes, so they are skipped)."""
    rl = recv.tolist()
    children = c.children
    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: list = []
    seq = 0
    for m in children.get(-1, ()):
        heappush(heap, (rl[m], seq, m))
        seq += 1
    order: List[int] = []
    while heap:
        _a, _s, m = heappop(heap)
        order.append(m)
        for ch in children.get(m, ()):
            heappush(heap, (rl[ch], seq, ch))
            seq += 1
    return np.array(order, dtype=np.intp)


def _run_fanout_kernel(c: _CompiledFanout, topology, processing_delay: float):
    """Arrival propagation + delivery order: the per-session array work."""
    e_delay, lvl_delay = _delays_for(c, topology)
    n = c.n
    arr = np.empty(n + 1, dtype=np.float64)
    arr[n] = 0.0
    for lvl in range(1, c.max_level + 1):
        # Same association as the reference: (arrival + proc) + delay.
        tmp = arr[c.lvl_src[lvl]] + processing_delay
        arr[c.lvl_dst[lvl]] = tmp + lvl_delay[lvl]
    recv = arr[:n]
    order = np.argsort(recv, kind="stable")
    if n > 1:
        sorted_recv = recv[order]
        if bool((sorted_recv[1:] == sorted_recv[:-1]).any()):
            order = _tie_order(c, recv)
    return arr, recv, order, e_delay


def _materialize_session(c, arr, recv, order, e_delay, processing_delay):
    """Build the Python receipts/edges/duplicates exactly as the
    reference loop would have, from the kernel's arrays."""
    # Reorder every column with one fancy index + tolist, then build the
    # NamedTuples with ``tuple.__new__`` mapped over zipped columns — all
    # C-level, no per-element Python frame.  Object construction is the
    # bulk of a materialized session's cost; ``tuple.__new__(cls, row)``
    # is exactly what ``NamedTuple._make`` does minus the Python call.
    order_l = order.tolist()
    ids = c.member_ids
    parents = c.parent_ids
    mids = [ids[m] for m in order_l]
    receipts: Dict[Id, Receipt] = dict(
        zip(
            mids,
            map(
                tuple.__new__,
                repeat(Receipt),
                zip(
                    mids,
                    c.member_hosts_arr[order].tolist(),
                    recv[order].tolist(),
                    c.member_levels_arr[order].tolist(),
                    [parents[m] for m in order_l],
                ),
            ),
        )
    )

    n = c.n
    pop_rank = np.empty(n + 1, dtype=np.int64)
    pop_rank[order] = np.arange(n, dtype=np.int64)
    pop_rank[n] = -1  # the sender's block leads
    e_order = np.argsort(pop_rank[c.e_src], kind="stable")
    send = arr[c.e_src]
    e_arr = (send + processing_delay) + e_delay
    e_order_l = e_order.tolist()
    src_ids = c.e_src_ids
    dst_ids = c.e_dst_ids
    edges = list(
        map(
            tuple.__new__,
            repeat(OverlayEdge),
            zip(
                [src_ids[e] for e in e_order_l],
                [dst_ids[e] for e in e_order_l],
                c.e_src_hosts[e_order].tolist(),
                c.e_dst_hosts[e_order].tolist(),
                c.e_rows_arr[e_order].tolist(),
                send[e_order].tolist(),
                e_arr[e_order].tolist(),
            ),
        )
    )
    duplicates = {c.sender_id: c.dup_count} if c.dup_count else {}
    return receipts, edges, duplicates


# ----------------------------------------------------------------------
# Splitting structure (per session)
# ----------------------------------------------------------------------
class _SplitPrep:
    """Causally ordered, slot-indexed view of a finished session for the
    batch Theorem-2 kernel.  Slot 0 is the sender; members follow in
    receipts order."""

    __slots__ = (
        "edges_len",
        "edges_sorted",
        "e_src_slot",
        "hp_codes",
        "hp_lens",
        "tree_pos",
        "tree_dst_slot",
        "depth_src",
        "depth_dst",
        "depth_edge",
        "member_ids",
        "n_slots",
    )


def _split_prep(session: SessionResult) -> Optional[_SplitPrep]:
    """Build (or reuse) the splitting view; ``None`` when the session
    falls outside the kernel's preconditions (unpackable IDs, members
    without exactly one tree in-edge, or out-edges causally preceding
    the in-edge under sort ties)."""
    prep = session._split_prep
    edges = session.edges
    if prep is not None and prep.edges_len == len(edges):
        return prep
    receipts = session.receipts
    slot: Dict[Id, int] = {session.sender: 0}
    member_ids = list(receipts)
    for k, mid in enumerate(member_ids):
        slot[mid] = k + 1
    n_slots = len(member_ids) + 1

    order = sorted(range(len(edges)), key=lambda i: (edges[i].send_time, edges[i].arrival_time))
    edges_sorted = [edges[i] for i in order]
    packed = pack_ids([e.dst for e in edges_sorted])
    if packed is None:
        return None
    dst_codes, dst_lens = packed
    hp_lens = np.minimum(
        np.array([e.send_level + 1 for e in edges_sorted], dtype=np.int64),
        dst_lens,
    )
    hp_codes = dst_codes & MASKS[hp_lens]

    e_src_slot = np.empty(len(edges_sorted), dtype=np.intp)
    in_edge: Dict[int, int] = {}  # member slot -> causal tree-edge index
    first_out: Dict[int, int] = {}
    tree_pos: List[int] = []
    tree_dst_slot: List[int] = []
    for pos, edge in enumerate(edges_sorted):
        s = slot.get(edge.src)
        if s is None:
            return None  # a forwarder that never received a copy
        e_src_slot[pos] = s
        first_out.setdefault(s, pos)
        receipt = receipts.get(edge.dst)
        if receipt is not None and receipt.upstream == edge.src:
            d = slot[edge.dst]
            if d in in_edge:
                return None  # holdings assigned twice: timing-dependent
            in_edge[d] = pos
            tree_pos.append(pos)
            tree_dst_slot.append(d)
    for mid in member_ids:
        d = slot[mid]
        if d not in in_edge:
            return None  # a member with no delivering edge
        if d in first_out and first_out[d] < in_edge[d]:
            return None  # out-edges processed before holdings arrive

    # Tree depth per member: parents always precede children here
    # because a parent's in-edge is causally before its out-edges.
    depth = {0: 0}
    buckets: Dict[int, List[int]] = {}
    for pos, d in zip(tree_pos, tree_dst_slot):
        parent = int(e_src_slot[pos])
        dd = depth[parent] + 1
        depth[d] = dd
        buckets.setdefault(dd, []).append(pos)
    prep = _SplitPrep()
    prep.edges_len = len(edges)
    prep.edges_sorted = edges_sorted
    prep.e_src_slot = e_src_slot
    prep.hp_codes = hp_codes
    prep.hp_lens = hp_lens
    prep.tree_pos = tree_pos
    prep.tree_dst_slot = tree_dst_slot
    prep.member_ids = member_ids
    prep.n_slots = n_slots
    prep.depth_src = []
    prep.depth_dst = []
    prep.depth_edge = []
    for dd in sorted(buckets):
        pos_list = buckets[dd]
        prep.depth_edge.append(np.array(pos_list, dtype=np.intp))
        prep.depth_src.append(
            np.array([int(e_src_slot[p]) for p in pos_list], dtype=np.intp)
        )
        prep.depth_dst.append(
            np.array(
                [slot[edges_sorted[p].dst] for p in pos_list], dtype=np.intp
            )
        )
    session._split_prep = prep
    return prep


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class NumpyBackend(ComputeBackend):
    """Vectorized kernels with reference fallback."""

    name = "numpy"

    def __init__(self) -> None:
        self._reference = ReferenceBackend()

    # -- T-mesh FORWARD ------------------------------------------------
    def fanout_session(
        self,
        sender_table,
        tables,
        topology,
        processing_delay: float = 0.0,
        failed_hosts: Optional[set] = None,
    ) -> SessionResult:
        if failed_hosts:
            # Subtree loss makes the delivery tree timing-dependent.
            return self._reference.fanout_session(
                sender_table, tables, topology, processing_delay, failed_hosts
            )
        c = _fanout_for(sender_table, tables)
        if c is None:
            return self._reference.fanout_session(
                sender_table, tables, topology, processing_delay, failed_hosts
            )
        arr, recv, order, e_delay = _run_fanout_kernel(
            c, topology, processing_delay
        )
        return SessionResult.deferred(
            c.sender_id,
            c.sender_host,
            lambda: _materialize_session(
                c, arr, recv, order, e_delay, processing_delay
            ),
        )

    # -- Rekey-message splitting ---------------------------------------
    def split_rekey(
        self, session: SessionResult, message, track_sets: bool = False
    ) -> SplitSessionResult:
        prep = _split_prep(session)
        if prep is None:
            return self._reference.split_rekey(session, message, track_sets)
        enc = message.encryptions
        packed = pack_ids([e.id for e in enc])
        if packed is None:
            return self._reference.split_rekey(session, message, track_sets)
        enc_codes, enc_lens = packed

        # need[e, k]: encryption k passes the Theorem-2 predicate at hop e.
        min_len = np.minimum(prep.hp_lens[:, None], enc_lens[None, :])
        need = (
            (prep.hp_codes[:, None] ^ enc_codes[None, :]) & MASKS[min_len]
        ) == 0
        # Holdings as boolean rows, propagated down the delivery tree.
        hold = np.zeros((prep.n_slots, len(enc)), dtype=bool)
        hold[0] = True
        for src_s, dst_s, edge_i in zip(
            prep.depth_src, prep.depth_dst, prep.depth_edge
        ):
            hold[dst_s] = hold[src_s] & need[edge_i]
        carried = hold[prep.e_src_slot] & need
        loads = np.count_nonzero(carried, axis=1).tolist()

        result = SplitSessionResult()
        forwarded_by_slot = np.zeros(prep.n_slots, dtype=np.int64)
        np.add.at(
            forwarded_by_slot,
            prep.e_src_slot,
            np.asarray(loads, dtype=np.int64),
        )
        fwd_l = forwarded_by_slot.tolist()
        result.forwarded[session.sender] = fwd_l[0]
        member_ids = prep.member_ids
        for k, mid in enumerate(member_ids):
            result.forwarded[mid] = fwd_l[k + 1]
        edges_sorted = prep.edges_sorted
        result.edge_loads = [
            (edges_sorted[i], loads[i]) for i in range(len(edges_sorted))
        ]
        for pos, d in zip(prep.tree_pos, prep.tree_dst_slot):
            result.received[member_ids[d - 1]] = loads[pos]
        if track_sets:
            for pos, d in zip(prep.tree_pos, prep.tree_dst_slot):
                row = carried[pos]
                result.received_sets[member_ids[d - 1]] = {
                    enc[k] for k in np.flatnonzero(row).tolist()
                }
        return result

    # -- Key-tree batch marking ----------------------------------------
    def mark_updated(
        self,
        changed_unodes: Sequence[Id],
        contains: Callable[[Id], bool],
        num_digits: int,
    ) -> List[Id]:
        changed = list(changed_unodes)
        if not changed:
            return []
        packed = pack_ids(changed)
        if packed is None:
            return self._reference.mark_updated(changed, contains, num_digits)
        codes, lens = packed
        if not bool((lens == num_digits).all()) or num_digits > len(MASKS) - 1:
            # Short "u-nodes" would dedup across levels in the reference's
            # marked set; keep that path authoritative.
            return self._reference.mark_updated(changed, contains, num_digits)
        out: List[Id] = []
        for level in range(num_digits):
            prefix_codes = codes & MASKS[level]
            # unique() sorts; for equal-length packed codes, numeric order
            # is the reference's lexicographic digit order.
            _uniq, first = np.unique(prefix_codes, return_index=True)
            for k in first.tolist():
                prefix = changed[k].prefix(level)
                if contains(prefix):
                    out.append(prefix)
        return out


def make_backend() -> NumpyBackend:
    return NumpyBackend()


register_backend("numpy", make_backend)
