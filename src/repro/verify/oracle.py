"""Differential oracle: replay a T-mesh session against a brute-force
reference multicast and diff the outcomes.

Theorem 1's proof argument is structural: with 1-consistent tables the
delivery tree of a multicast is *uniquely determined by the tables* —
each member has exactly one upstream forwarder, independent of network
delays.  The reference implementation below exploits that: a naive BFS
over the tables (no event queue, no heap, no fast-path tricks) computes
the same receipts, overlay edges, forwarding levels, and arrival times
that :func:`repro.core.tmesh.run_multicast` produces on every compute
backend.  Any divergence means
either the tables were not 1-consistent or an optimized runner drifted
from the paper's FORWARD semantics — exactly what a conformance gate
must catch after hot-path rewrites.

Arrival times are accumulated with the same floating-point operation
order the event loop uses (``(now + processing_delay) + delay``), so the
diff can demand bitwise equality by default.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.ids import Id
from ..core.neighbor_table import NeighborTable
from ..core.tmesh import OverlayEdge, Receipt, SessionResult
from ..net.topology import Topology
from .report import ViolationReport


class DifferentialOracle:
    """Brute-force replay + structured diff for T-mesh sessions.

    ``time_tolerance`` bounds the acceptable absolute difference in
    arrival times; the default ``0.0`` demands bitwise equality, which
    the production runners meet because both sides accumulate delays in
    the same order over the same values.
    """

    name = "differential-oracle"
    citation = "Theorem 1 (delivery-tree uniqueness)"

    def __init__(self, time_tolerance: float = 0.0):
        self.time_tolerance = time_tolerance

    # ------------------------------------------------------------------
    def reference(
        self,
        sender_table: NeighborTable,
        tables: Dict[Id, NeighborTable],
        topology: Topology,
        processing_delay: float = 0.0,
    ) -> SessionResult:
        """The naive BFS multicast over 1-consistent tables.

        Walks the unique delivery tree in breadth-first order, scanning
        every ``(i, j)`` slot with plain :meth:`NeighborTable.primary`
        calls — deliberately sharing no code with the optimized runners.
        """
        sender = sender_table.owner
        result = SessionResult(sender=sender.user_id, sender_host=sender.host)
        receipts = result.receipts
        edges = result.edges
        duplicates = result.duplicate_copies
        one_way = topology.one_way_delay
        seen = {sender.user_id}
        # (record, table, forward level, arrival time at the record)
        queue = deque([(sender, sender_table, 0, 0.0)])
        while queue:
            record, table, level, now = queue.popleft()
            if table is None:
                continue
            scheme = table.scheme
            if level >= scheme.num_digits:
                continue
            rows = (0,) if table.is_server_table else range(level, scheme.num_digits)
            base = now + processing_delay
            for i in rows:
                for j in range(scheme.base):
                    nbr = table.primary(i, j)
                    if nbr is None:
                        continue
                    arrival = base + one_way(record.host, nbr.host)
                    edges.append(
                        OverlayEdge(
                            record.user_id,
                            nbr.user_id,
                            record.host,
                            nbr.host,
                            i,
                            now,
                            arrival,
                        )
                    )
                    nbr_id = nbr.user_id
                    if nbr_id in seen:
                        # A second copy: under 1-consistency this never
                        # happens; record it so the diff (and the
                        # exactly-once checker) flags the table state.
                        duplicates[nbr_id] = duplicates.get(nbr_id, 0) + 1
                        continue
                    seen.add(nbr_id)
                    receipts[nbr_id] = Receipt(
                        nbr_id, nbr.host, arrival, i + 1, record.user_id
                    )
                    queue.append((nbr, tables.get(nbr_id), i + 1, arrival))
        return result

    # ------------------------------------------------------------------
    def diff(
        self, observed: SessionResult, reference: SessionResult
    ) -> List[str]:
        """Human-readable differences between two sessions (empty when
        they agree on receipts, edges, forwarding levels, and times)."""
        problems: List[str] = []
        tol = self.time_tolerance
        if observed.sender != reference.sender:
            problems.append(
                f"sender mismatch: {observed.sender} vs {reference.sender}"
            )
        got, want = set(observed.receipts), set(reference.receipts)
        for member in sorted(want - got):
            problems.append(f"receipt missing for {member}")
        for member in sorted(got - want):
            problems.append(f"unexpected receipt for {member}")
        for member in sorted(got & want):
            o, r = observed.receipts[member], reference.receipts[member]
            if o.forward_level != r.forward_level:
                problems.append(
                    f"{member}: forwarding level {o.forward_level} "
                    f"!= reference {r.forward_level}"
                )
            if o.upstream != r.upstream:
                problems.append(
                    f"{member}: upstream {o.upstream} != reference {r.upstream}"
                )
            if o.host != r.host:
                problems.append(
                    f"{member}: host {o.host} != reference {r.host}"
                )
            if abs(o.arrival_time - r.arrival_time) > tol:
                problems.append(
                    f"{member}: arrival {o.arrival_time!r} != reference "
                    f"{r.arrival_time!r}"
                )
        if observed.duplicate_copies != reference.duplicate_copies:
            problems.append(
                f"duplicate copies {dict(observed.duplicate_copies)} != "
                f"reference {dict(reference.duplicate_copies)}"
            )
        problems.extend(self._diff_edges(observed, reference))
        return problems

    def _diff_edges(
        self, observed: SessionResult, reference: SessionResult
    ) -> List[str]:
        def edge_key(e: OverlayEdge) -> Tuple:
            return (e.src, e.dst, e.src_host, e.dst_host, e.send_level)

        got = sorted(observed.edges, key=edge_key)
        want = sorted(reference.edges, key=edge_key)
        if len(got) != len(want):
            return [f"edge count {len(got)} != reference {len(want)}"]
        problems: List[str] = []
        tol = self.time_tolerance
        for o, r in zip(got, want):
            if edge_key(o) != edge_key(r):
                problems.append(
                    f"edge {o.src}->{o.dst}@{o.send_level} != reference "
                    f"{r.src}->{r.dst}@{r.send_level}"
                )
            elif (
                abs(o.send_time - r.send_time) > tol
                or abs(o.arrival_time - r.arrival_time) > tol
            ):
                problems.append(
                    f"edge {o.src}->{o.dst}@{o.send_level}: times "
                    f"({o.send_time!r}, {o.arrival_time!r}) != reference "
                    f"({r.send_time!r}, {r.arrival_time!r})"
                )
            if len(problems) >= 20:  # keep reports readable
                problems.append("... further edge differences suppressed")
                break
        return problems

    # ------------------------------------------------------------------
    def check(
        self,
        session: SessionResult,
        sender_table: NeighborTable,
        tables: Dict[Id, NeighborTable],
        topology: Topology,
        processing_delay: float = 0.0,
        seed: Optional[int] = None,
        repro: Optional[str] = None,
    ) -> List[ViolationReport]:
        """Replay ``session``'s inputs through the reference and report
        every divergence as a structured violation."""
        reference = self.reference(
            sender_table, tables, topology, processing_delay
        )
        return [
            ViolationReport(
                checker=self.name,
                citation=self.citation,
                detail=problem,
                seed=seed,
                repro=repro,
            )
            for problem in self.diff(session, reference)
        ]
