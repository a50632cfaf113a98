"""T-mesh: the paper's multicast scheme (Section 2.3, Fig. 2).

A multicast session has a sender (the key server for rekey transport, a
user for data transport), a message, and every other member as receiver.
The message carries a ``forward_level`` field.  The sender is at
forwarding level 0; a user is at level ``i`` when it receives the message
with ``forward_level == i``.

``FORWARD`` (Fig. 2): the key server sends a copy with level 1 to each
``(0,j)``-primary neighbor; a user at level ``level`` sends, for each row
``i`` from ``level`` to ``D-1``, a copy with level ``i+1`` to each
``(i,j)``-primary neighbor.

Theorem 1: with 1-consistent tables and no losses, every member other than
the sender receives exactly one copy.  The session runner below records
enough to let the test suite check that theorem, Lemmas 1/2, and every
latency metric of Section 4.1 (user stress, application-layer delay, RDP).

:func:`run_multicast` is the one runner: fault-free sessions go to the
:mod:`repro.compute` backend's fan-out kernel; backup recovery and fault
injection run the general event loop below.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from ..compute import resolve_backend
from ..net.topology import Topology
from ..trace import hooks as _trace_hooks
from ..verify import hooks as _verify_hooks
from .ids import Id, NULL_ID
from .neighbor_table import NeighborTable, UserRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.plan import FaultPlan


class OverlayEdge(NamedTuple):
    """One overlay hop of a multicast session.

    ``send_level`` is the row index ``s`` the sender used when it looked up
    the next hop: the next hop is an ``(s, j)``-primary neighbor of the
    sender and receives the message with ``forward_level = s + 1``
    (``s = 0`` rows for the key server).  The pair (edge, ``send_level``)
    is exactly what the splitting scheme's Theorem-2 predicate consumes.

    A ``NamedTuple`` rather than a dataclass: sessions create one edge per
    member, and tuple construction is the cheapest object creation Python
    offers on that hot path.
    """

    src: Id
    dst: Id
    src_host: int
    dst_host: int
    send_level: int
    send_time: float
    arrival_time: float


class Receipt(NamedTuple):
    """First delivery of the multicast message to one member."""

    member: Id
    host: int
    arrival_time: float  # application-layer delay from the sender (ms)
    forward_level: int
    upstream: Id


class SessionResult:
    """Everything observed during one multicast session.

    The per-member metric accessors (``user_stress``, ``out_edges``) are
    backed by a lazily built source-index over ``edges``, so sweeping a
    metric over all members is O(members + edges) instead of the
    O(members x edges) a per-member scan would cost.  The index is
    rebuilt transparently if ``edges`` grows after a lookup (repair
    layers append edges to finished sessions).

    A result may be *deferred* (:meth:`deferred`): accelerated compute
    backends keep a session as arrays and build the Python
    receipt/edge/duplicate objects only on first access, so pipelines
    that only feed the session onward (or read a handful of metrics)
    never pay for objects they don't look at.  Materialization is
    transparent — every accessor behaves as if the session were built
    eagerly — and happens at most once.
    """

    __slots__ = (
        "sender",
        "sender_host",
        "_receipts",
        "_edges",
        "_duplicates",
        "_build",
        "_src_index",
        "_src_index_size",
        "_split_prep",
    )

    def __init__(
        self,
        sender: Id,
        sender_host: int,
        receipts: Optional[Dict[Id, Receipt]] = None,
        edges: Optional[List[OverlayEdge]] = None,
        duplicate_copies: Optional[Dict[Id, int]] = None,
    ):
        self.sender = sender
        self.sender_host = sender_host
        self._receipts = {} if receipts is None else receipts
        self._edges = [] if edges is None else edges
        self._duplicates = {} if duplicate_copies is None else duplicate_copies
        self._build: Optional[Callable[[], Tuple]] = None
        self._src_index: Optional[Dict[Id, List[OverlayEdge]]] = None
        self._src_index_size = -1
        self._split_prep = None  # cache slot for repro.compute split kernels

    @classmethod
    def deferred(
        cls, sender: Id, sender_host: int, build: Callable[[], Tuple]
    ) -> "SessionResult":
        """A session whose ``build()`` -> ``(receipts, edges,
        duplicate_copies)`` runs on first payload access."""
        result = cls(sender, sender_host)
        result._build = build
        return result

    def _materialize(self) -> None:
        build = self._build
        self._build = None
        self._receipts, self._edges, self._duplicates = build()

    @property
    def receipts(self) -> Dict[Id, Receipt]:
        if self._build is not None:
            self._materialize()
        return self._receipts

    @property
    def edges(self) -> List[OverlayEdge]:
        if self._build is not None:
            self._materialize()
        return self._edges

    @property
    def duplicate_copies(self) -> Dict[Id, int]:
        if self._build is not None:
            self._materialize()
        return self._duplicates

    # Same equality the former dataclass had: payload fields compare,
    # caches don't, unhashable.
    def __eq__(self, other) -> bool:
        if not isinstance(other, SessionResult):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.sender_host == other.sender_host
            and self.receipts == other.receipts
            and self.edges == other.edges
            and self.duplicate_copies == other.duplicate_copies
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"SessionResult(sender={self.sender!r}, "
            f"sender_host={self.sender_host!r}, receipts={self.receipts!r}, "
            f"edges={self.edges!r}, "
            f"duplicate_copies={self.duplicate_copies!r})"
        )

    # Deferred builders close over backend arrays and are not picklable;
    # a session crossing a process boundary ships materialized.
    def __getstate__(self):
        return (
            self.sender,
            self.sender_host,
            self.receipts,
            self.edges,
            self.duplicate_copies,
        )

    def __setstate__(self, state) -> None:
        (
            self.sender,
            self.sender_host,
            self._receipts,
            self._edges,
            self._duplicates,
        ) = state
        self._build = None
        self._src_index = None
        self._src_index_size = -1
        self._split_prep = None

    def _edges_by_src(self) -> Dict[Id, List[OverlayEdge]]:
        index = self._src_index
        if index is None or self._src_index_size != len(self.edges):
            index = {}
            for e in self.edges:
                bucket = index.get(e.src)
                if bucket is None:
                    index[e.src] = [e]
                else:
                    bucket.append(e)
            self._src_index = index
            self._src_index_size = len(self.edges)
        return index

    # -- Section 4.1 metrics ------------------------------------------
    def user_stress(self, member: Id) -> int:
        """Number of messages the member forwards in the session."""
        bucket = self._edges_by_src().get(member)
        return len(bucket) if bucket else 0

    def app_delay(self, member: Id) -> float:
        """Latency from the sender's send to the member's first copy."""
        return self.receipts[member].arrival_time

    def rdp(self, member: Id, topology: Topology) -> float:
        """Relative delay penalty: application-layer delay over the
        one-way unicast delay from the sender to the member."""
        unicast = topology.one_way_delay(self.sender_host, self.receipts[member].host)
        if unicast <= 0:
            return 1.0
        return self.app_delay(member) / unicast

    def copies_received(self, member: Id) -> int:
        return (1 if member in self.receipts else 0) + self.duplicate_copies.get(
            member, 0
        )

    def out_edges(self, member: Id) -> List[OverlayEdge]:
        return list(self._edges_by_src().get(member, ()))

    # -- Reference implementations ------------------------------------
    # O(edges)-per-member scans kept for the equivalence tests and the
    # complexity micro-benchmark; semantically identical to the indexed
    # accessors above.
    def user_stress_scan(self, member: Id) -> int:
        return sum(1 for e in self.edges if e.src == member)

    def out_edges_scan(self, member: Id) -> List[OverlayEdge]:
        return [e for e in self.edges if e.src == member]

    def canonical_receipt_digest(self) -> str:
        """Hex blake2b over the canonical receipt rows (sorted by packed
        member code) — the dense-path half of the scale ladder's
        dense-vs-streaming bitwise equivalence check; see
        :mod:`repro.compute.arraytable`.  Raises ``ValueError`` for
        schemes whose IDs don't bit-pack."""
        from ..compute.arraytable import session_receipt_digest

        return session_receipt_digest(self)

    def downstream_users(self, member: Id) -> List[Id]:
        """All members below ``member`` in the session's delivery tree."""
        children: Dict[Id, List[Id]] = {}
        for e in self.edges:
            receipt = self.receipts.get(e.dst)
            # Only tree edges (the delivering copy) define downstream-ness.
            if receipt is not None and receipt.upstream == e.src:
                children.setdefault(e.src, []).append(e.dst)
        result: List[Id] = []
        stack = list(children.get(member, ()))
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(children.get(node, ()))
        return result


def run_multicast(
    sender_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    failed_hosts: Optional[set] = None,
    use_backups: bool = False,
    fault_plan: Optional["FaultPlan"] = None,
    compute=None,
) -> SessionResult:
    """Run one T-mesh multicast session and record its delivery tree.

    ``sender_table`` is the key server's one-row table for rekey transport
    or the sending user's table for data transport; ``tables`` maps every
    user ID to its neighbor table.  Delivery is simulated with an event
    queue ordered by arrival time; each hop costs the topology's one-way
    delay plus ``processing_delay`` per forward.

    ``failed_hosts`` models crashed members whose records may still be in
    tables: a copy sent to a failed host is lost (and so is its whole
    subtree).  With ``use_backups=True``, forwarders apply the paper's
    K > 1 recovery (Section 2.3): on detecting a failed next hop they
    forward to the next neighbor in the same table entry instead.

    ``fault_plan`` subjects every overlay hop to an injected
    :class:`~repro.faults.FaultPlan` — drops lose the copy (and, without
    repair, its whole subtree), delays/reordering shift its arrival, and
    duplication enqueues extra copies (surfacing as
    ``duplicate_copies``).  This is the *unrepaired* transport; layer
    :class:`repro.alm.reliable.ReliableSession` on top for NACK repair.

    ``compute`` selects the :mod:`repro.compute` backend used for the
    fault-free case (a name, an instance, or ``None`` for the process
    default); backup recovery and fault injection always run the general
    event loop below.
    """
    if not use_backups and fault_plan is None:
        # The pure FORWARD fan-out (with at most lost subtrees) is the
        # compute seam's job; backends are bitwise-equivalent here.
        result = resolve_backend(compute).fanout_session(
            sender_table, tables, topology, processing_delay, failed_hosts
        )
        ctx = _verify_hooks.ACTIVE
        if ctx is not None:
            ctx.observe_session(
                result,
                sender_table,
                tables,
                topology,
                processing_delay,
                lossless=not failed_hosts,
            )
        tctx = _trace_hooks.ACTIVE
        if tctx is not None:
            tctx.observe_session(result, topology)
        return result
    sender = sender_table.owner
    result = SessionResult(sender=sender.user_id, sender_host=sender.host)
    counter = itertools.count()  # tie-breaker for the heap
    queue: List[Tuple[float, int, UserRecord, int, Id]] = []
    failed = failed_hosts if failed_hosts is not None else set()
    # Dense one-way delay rows when the topology has them (same values as
    # one_way_delay, just without a Python call per hop).
    ow_rows = topology.one_way_rows()
    one_way_delay = topology.one_way_delay
    edges_append = result.edges.append
    heappush = heapq.heappush
    next_seq = counter.__next__

    def pick_next_hop(table: NeighborTable, i: int, j: int) -> Optional[UserRecord]:
        """The (i,j)-primary, or — with backups enabled — the closest
        live neighbor of the same entry."""
        entry = table.entry(i, j)
        if not entry:
            return None
        if not use_backups:
            return entry[0]
        return next((r for r in entry if r.host not in failed), None)

    def forward(member: UserRecord, table: NeighborTable, level: int, now: float) -> None:
        """The FORWARD routine of Fig. 2 for one member."""
        num_digits = table.scheme.num_digits
        if level >= num_digits:
            return
        if table.is_server_table:
            rows = (0,)
        else:
            rows = range(level, num_digits)
        member_id = member.user_id
        member_host = member.host
        delays = ow_rows[member_host] if ow_rows is not None else None
        for i in rows:
            for j, primary in table.row_primaries(i):
                nbr = primary
                if use_backups and primary.host in failed:
                    nbr = pick_next_hop(table, i, j)
                    if nbr is None:
                        continue
                if fault_plan is None:
                    extra_delays = (0.0,)
                else:
                    extra_delays = fault_plan.apply(
                        member_host, nbr.host, None, now
                    )
                base_arrival = (
                    now
                    + processing_delay
                    + (
                        delays[nbr.host]
                        if delays is not None
                        else one_way_delay(member_host, nbr.host)
                    )
                )
                edges_append(
                    OverlayEdge(
                        member_id,
                        nbr.user_id,
                        member_host,
                        nbr.host,
                        i,
                        now,
                        base_arrival,
                    )
                )
                for extra in extra_delays:
                    heappush(
                        queue,
                        (
                            base_arrival + extra,
                            next_seq(),
                            nbr,
                            i + 1,
                            member_id,
                        ),
                    )

    forward(sender, sender_table, 0, 0.0)
    receipts = result.receipts
    duplicates = result.duplicate_copies
    sender_id = sender.user_id
    tables_get = tables.get
    heappop = heapq.heappop
    while queue:
        arrival, _, record, level, upstream = heappop(queue)
        member_id = record.user_id
        if record.host in failed:
            continue  # the copy is lost at a crashed member
        if member_id in receipts or member_id == sender_id:
            duplicates[member_id] = duplicates.get(member_id, 0) + 1
            continue  # Theorem 1 says this never fires with consistent tables
        receipts[member_id] = Receipt(
            member_id,
            record.host,
            arrival,
            level,
            upstream,
        )
        table = tables_get(member_id)
        if table is not None:
            forward(record, table, level, arrival)
    ctx = _verify_hooks.ACTIVE
    if ctx is not None:
        ctx.observe_session(
            result,
            sender_table,
            tables,
            topology,
            processing_delay,
            lossless=not failed and not use_backups and fault_plan is None,
        )
    tctx = _trace_hooks.ACTIVE
    if tctx is not None:
        tctx.observe_session(result, topology)
    return result


def rekey_session(
    server_table: NeighborTable,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    compute=None,
) -> SessionResult:
    """A rekey-transport session: the key server is the sender."""
    if not server_table.is_server_table:
        raise ValueError("rekey transport must be sourced at the key server")
    return run_multicast(
        server_table, tables, topology, processing_delay, compute=compute
    )


def data_session(
    sender_id: Id,
    tables: Dict[Id, NeighborTable],
    topology: Topology,
    processing_delay: float = 0.0,
    compute=None,
) -> SessionResult:
    """A data-transport session: a particular user is the sender."""
    if sender_id == NULL_ID or sender_id not in tables:
        raise ValueError(f"sender {sender_id} is not a user in the group")
    return run_multicast(
        tables[sender_id], tables, topology, processing_delay, compute=compute
    )
