"""The ``"reference"`` compute backend: the pure-Python hot loops.

These are the loops that lived inline in :mod:`repro.core.tmesh`,
:mod:`repro.core.splitting`, and :mod:`repro.keytree.modified_tree`
before the compute seam, moved here verbatim.  They are the *semantic
definition* of the seam's operations — every other backend must
reproduce their output bitwise (same receipts in the same order, same
edge lists, same floats; see ``tests/test_compute_backends.py``) — and
the permanent fallback whenever an accelerated backend cannot handle an
input.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.ids import Id
from ..core.splitting import SplitSessionResult, split_for_next_hop
from ..core.tmesh import OverlayEdge, Receipt, SessionResult
from . import ComputeBackend, register_backend


class ReferenceBackend(ComputeBackend):
    """Pure-Python kernels; always available, always correct."""

    name = "reference"

    # ------------------------------------------------------------------
    # T-mesh FORWARD (Fig. 2)
    # ------------------------------------------------------------------
    def fanout_session(
        self,
        sender_table,
        tables,
        topology,
        processing_delay: float = 0.0,
        failed_hosts: Optional[set] = None,
    ) -> SessionResult:
        """One fault-free multicast session (no backups, no injected
        faults): the fast path of ``run_multicast``.

        Copies sent to ``failed_hosts`` are lost along with their whole
        subtree, exactly as in the general event loop.
        """
        ow_rows = topology.one_way_rows()
        if ow_rows is not None:
            return _fanout_dense(
                sender_table, tables, topology, processing_delay, failed_hosts
            )
        return _fanout_scalar(
            sender_table, tables, topology, processing_delay, failed_hosts
        )

    # ------------------------------------------------------------------
    # Rekey-message splitting (Fig. 5 / Theorem 2)
    # ------------------------------------------------------------------
    def split_rekey(
        self, session: SessionResult, message, track_sets: bool = False
    ) -> SplitSessionResult:
        """The pre-seam body of ``run_split_rekey``: process hops in
        causal order, filtering each with the Theorem-2 predicate against
        the forwarder's *received* set."""
        result = SplitSessionResult()
        holdings: Dict[Id, tuple] = {session.sender: tuple(message.encryptions)}
        result.forwarded[session.sender] = 0
        for member in session.receipts:
            result.forwarded.setdefault(member, 0)
        # Hops sorted by send time give a causally consistent processing order.
        for edge in sorted(
            session.edges, key=lambda e: (e.send_time, e.arrival_time)
        ):
            have = holdings.get(edge.src)
            if have is None:
                # A duplicate-delivery artifact: the src never got a first
                # copy before "sending".  Cannot happen with consistent
                # tables.
                have = ()
            carried = split_for_next_hop(have, edge.dst, edge.send_level)
            result.edge_loads.append((edge, len(carried)))
            result.forwarded[edge.src] = result.forwarded.get(edge.src, 0) + len(
                carried
            )
            receipt = session.receipts.get(edge.dst)
            if receipt is not None and receipt.upstream == edge.src:
                holdings[edge.dst] = carried
                result.received[edge.dst] = len(carried)
                if track_sets:
                    result.received_sets[edge.dst] = set(carried)
        return result

    # ------------------------------------------------------------------
    # Key-tree batch rekeying (Section 2.4)
    # ------------------------------------------------------------------
    def mark_updated(
        self,
        changed_unodes: Sequence[Id],
        contains: Callable[[Id], bool],
        num_digits: int,
    ) -> List[Id]:
        """The pre-seam ``ModifiedKeyTree._mark_updated``: every surviving
        k-node on the path from a changed u-node to the root."""
        marked: Set[Id] = set()
        for user_id in changed_unodes:
            for level in range(num_digits):
                prefix = user_id.prefix(level)
                if contains(prefix):
                    marked.add(prefix)
        # Deterministic order: by depth then digits, so crypto-mode secret
        # generation is reproducible for a given rng.
        return sorted(marked, key=lambda n: (len(n), n.digits))


def _fanout_dense(
    sender_table, tables, topology, processing_delay, failed_hosts
) -> SessionResult:
    """The dense-delay fan-out: seed forward + inlined drain loop, moved
    verbatim from ``run_multicast``'s fast path.  A sentinel receipt for
    the sender catches copies sent back to it without a per-pop equality
    test."""
    sender = sender_table.owner
    result = SessionResult(sender=sender.user_id, sender_host=sender.host)
    failed = failed_hosts if failed_hosts is not None else set()
    ow_rows = topology.one_way_rows()
    edges_append = result.edges.append
    heappush = heapq.heappush
    heappop = heapq.heappop
    queue: List[Tuple[float, int, object, int, Id]] = []
    seq = 0
    num_digits = sender_table.scheme.num_digits

    # Seed: the sender's FORWARD at level 0 / time 0.
    member_id = sender.user_id
    member_host = sender.host
    rows = (0,) if sender_table.is_server_table else range(num_digits)
    delays = ow_rows[member_host]
    base = 0.0 + processing_delay
    row_primaries = sender_table.row_primaries
    for i in rows:
        level_up = i + 1
        for j, nbr in row_primaries(i):
            nbr_host = nbr.host
            base_arrival = base + delays[nbr_host]
            edges_append(
                OverlayEdge(
                    member_id, nbr.user_id, member_host, nbr_host, i, 0.0,
                    base_arrival,
                )
            )
            heappush(queue, (base_arrival, seq, nbr, level_up, member_id))
            seq += 1

    receipts = result.receipts
    duplicates = result.duplicate_copies
    sender_id = sender.user_id
    tables_get = tables.get
    receipts[sender_id] = None  # sentinel; removed below
    while queue:
        arrival, _, record, level, upstream = heappop(queue)
        member_id = record.user_id
        if failed and record.host in failed:
            continue
        if member_id in receipts:
            duplicates[member_id] = duplicates.get(member_id, 0) + 1
            continue
        member_host = record.host
        receipts[member_id] = Receipt(
            member_id, member_host, arrival, level, upstream
        )
        if level >= num_digits:
            continue
        table = tables_get(member_id)
        if table is None:
            continue
        delays = ow_rows[member_host]
        base = arrival + processing_delay
        for i in range(level, num_digits):
            level_up = i + 1
            for j, nbr in table.row_primaries(i):
                nbr_host = nbr.host
                base_arrival = base + delays[nbr_host]
                edges_append(
                    OverlayEdge(
                        member_id,
                        nbr.user_id,
                        member_host,
                        nbr_host,
                        i,
                        arrival,
                        base_arrival,
                    )
                )
                heappush(queue, (base_arrival, seq, nbr, level_up, member_id))
                seq += 1
    del receipts[sender_id]
    return result


def _fanout_scalar(
    sender_table, tables, topology, processing_delay, failed_hosts
) -> SessionResult:
    """The scalar-delay fan-out (no dense RTT matrix built): the general
    event loop of ``run_multicast`` restricted to the fault-free case.
    Event keys, receipts, and edges are bitwise those of the general loop
    with ``fault_plan=None`` (whose per-event extra delay is ``+ 0.0``, a
    float no-op on the non-negative arrival times)."""
    sender = sender_table.owner
    result = SessionResult(sender=sender.user_id, sender_host=sender.host)
    failed = failed_hosts if failed_hosts is not None else set()
    one_way_delay = topology.one_way_delay
    edges_append = result.edges.append
    heappush = heapq.heappush
    heappop = heapq.heappop
    queue: List[Tuple[float, int, object, int, Id]] = []
    seq = 0
    num_digits = sender_table.scheme.num_digits

    def forward(member, table, level: int, now: float) -> None:
        nonlocal seq
        if level >= num_digits:
            return
        rows = (0,) if table.is_server_table else range(level, num_digits)
        member_id = member.user_id
        member_host = member.host
        base = now + processing_delay
        for i in rows:
            for j, nbr in table.row_primaries(i):
                nbr_host = nbr.host
                base_arrival = base + one_way_delay(member_host, nbr_host)
                edges_append(
                    OverlayEdge(
                        member_id,
                        nbr.user_id,
                        member_host,
                        nbr_host,
                        i,
                        now,
                        base_arrival,
                    )
                )
                heappush(queue, (base_arrival, seq, nbr, i + 1, member_id))
                seq += 1

    forward(sender, sender_table, 0, 0.0)
    receipts = result.receipts
    duplicates = result.duplicate_copies
    sender_id = sender.user_id
    tables_get = tables.get
    while queue:
        arrival, _, record, level, upstream = heappop(queue)
        member_id = record.user_id
        if record.host in failed:
            continue  # the copy is lost at a crashed member
        if member_id in receipts or member_id == sender_id:
            duplicates[member_id] = duplicates.get(member_id, 0) + 1
            continue
        receipts[member_id] = Receipt(
            member_id, record.host, arrival, level, upstream
        )
        table = tables_get(member_id)
        if table is not None:
            forward(record, table, level, arrival)
    return result


def make_backend() -> ReferenceBackend:
    return ReferenceBackend()


register_backend("reference", make_backend)
