"""Group membership: joins, leaves, and failure recovery (Section 3).

:class:`Group` is the live state the simulator maintains: the key server,
every user's record and neighbor table, the server's one-row table, and
the ID tree.  Joins run the full Section-3.1 ID assignment (collect /
measure / percentile-decide / server-complete) against the *current*
group via neighbor-table queries; tables are then maintained
K-consistently, the state the Silk join/leave protocols provably converge
to (the paper itself runs "the Silk protocols, but simplified to improve
simulation efficiency").

Failure recovery: a user detects a failed neighbor by missed pings, tells
the key server, and replaces the neighbor from the same table entry
(Section 3.2).  :meth:`Group.fail` models silent failure; table repair
happens lazily per-owner via :meth:`Group.repair_tables`, letting tests
measure how K > 1 masks failures between repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..net.topology import Topology
from .id_assignment import AssignmentOutcome, IdAssigner, complete_user_id
from .id_tree import IdTree
from .ids import Id, IdScheme, NULL_ID
from .neighbor_table import (
    NeighborTable,
    UserRecord,
    build_server_table,
    common_prefix_lengths,
)

#: The paper's table redundancy parameter (Section 4).
PAPER_K = 4


@dataclass
class JoinResult:
    """Outcome of one join: the new record plus protocol bookkeeping."""

    record: UserRecord
    outcome: Optional[AssignmentOutcome]  # None for the first join


class Group:
    """Key server + users: membership, ID assignment, neighbor tables."""

    def __init__(
        self,
        scheme: IdScheme,
        topology: Topology,
        server_host: int,
        assigner: IdAssigner,
        k: int = PAPER_K,
        rng: Optional[np.random.Generator] = None,
    ):
        self.scheme = scheme
        self.topology = topology
        self.server_host = server_host
        self.assigner = assigner
        self.k = k
        # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
        self.rng = rng if rng is not None else np.random.default_rng()
        self.id_tree = IdTree(scheme)
        self.records: Dict[Id, UserRecord] = {}
        self.tables: Dict[Id, NeighborTable] = {}
        self.server_table = build_server_table(
            scheme, server_host, (), self._rtt, k
        )
        self._clock = 0.0
        # Row m of each array belongs to the m-th member of ``tables``:
        # its ID digits, its host, and its table's admission thresholds
        # (NeighborTable.attach_thresholds).  Capacity grows by doubling.
        self._digits = np.zeros((0, scheme.num_digits), dtype=np.int64)
        self._hosts = np.zeros(0, dtype=np.intp)
        self._thresholds = np.zeros((0, scheme.num_digits, scheme.base))

    # ------------------------------------------------------------------
    def _rtt(self, a: int, b: int) -> float:
        return self.topology.rtt(a, b)

    @property
    def num_users(self) -> int:
        return len(self.records)

    @property
    def user_ids(self) -> List[Id]:
        return list(self.records)

    def record_of(self, user_id: Id) -> UserRecord:
        return self.records[user_id]

    # ------------------------------------------------------------------
    # The query service of Section 3.1.1
    # ------------------------------------------------------------------
    def query(self, responder: UserRecord, target_prefix: Id) -> List[UserRecord]:
        """A user's response to an ID-assignment query: all the neighbors
        in its table whose IDs have the target prefix."""
        table = self.tables.get(responder.user_id)
        if table is None:
            return []
        return table.records_with_prefix(target_prefix)

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def join(self, host: int) -> JoinResult:
        """Admit the user at topology host ``host``: run ID assignment,
        insert the user into the ID tree, build its neighbor table, and
        update everyone else's tables."""
        self._clock += 1.0
        access = self.topology.access_rtt(host)
        if not self.records:
            # First join: D digits of "0" (Section 3.1).
            user_id = self.scheme.first_user_id()
            record = UserRecord(user_id, host, access, self._clock)
            self._admit(record)
            return JoinResult(record, None)

        bootstrap = self._random_record()
        outcome = self.assigner.determine_prefix(
            host, access, self.topology, self.query, bootstrap
        )
        user_id = complete_user_id(self.id_tree, outcome.determined_prefix, self.rng)
        record = UserRecord(user_id, host, access, self._clock)
        self._admit(record)
        return JoinResult(record, outcome)

    def _random_record(self) -> UserRecord:
        ids = list(self.records)
        return self.records[ids[int(self.rng.integers(0, len(ids)))]]

    def _admit(self, record: UserRecord) -> None:
        user_id = record.user_id
        self.id_tree.add_user(user_id)
        others = list(self.records.values())
        self.records[user_id] = record
        tables = list(self.tables.values())
        n = len(tables)
        if n == len(self._hosts):
            self._grow()
        own = np.asarray(user_id.digits)
        self._digits[n] = own
        self._hosts[n] = record.host
        # Build the new user's table from the current population (the
        # consistent state the Silk join converges to).  Both RTT sweeps
        # are batched against the topology's dense matrix when available;
        # operand orientation matches the scalar calls they replace.
        table = NeighborTable(self.scheme, record, self.k)
        table.attach_thresholds(self._thresholds[n])
        self.tables[user_id] = table
        if n:
            digits, hosts = self._digits[:n], self._hosts[:n]
            table.fill(others, digits, self.topology.rtt_many(record.host, hosts))
            # Everyone else learns about the new user.  The record lands in
            # the (lcp, own[lcp])-entry of each table, and only an RTT
            # below that entry's threshold can change the table.
            in_rtts = self.topology.rtt_to_many(record.host, hosts)
            rows = common_prefix_lengths(digits, own)
            limits = self._thresholds[np.arange(n), rows, own[rows]]
            entering = np.flatnonzero(in_rtts < limits)
            for m, rtt in zip(entering.tolist(), in_rtts[entering].tolist()):
                tables[m].insert(record, rtt)
        self.server_table.insert(record, self._rtt(self.server_host, record.host))

    def _grow(self) -> None:
        """Double the capacity of the member arrays."""
        capacity = max(2 * len(self._hosts), 16)
        n = len(self.tables)
        digits = np.zeros((capacity, self.scheme.num_digits), dtype=np.int64)
        hosts = np.zeros(capacity, dtype=np.intp)
        thresholds = np.full(
            (capacity, self.scheme.num_digits, self.scheme.base), np.inf
        )
        digits[:n] = self._digits[:n]
        hosts[:n] = self._hosts[:n]
        thresholds[:n] = self._thresholds[:n]
        self._digits, self._hosts, self._thresholds = digits, hosts, thresholds
        for m, table in enumerate(self.tables.values()):
            table.attach_thresholds(thresholds[m])

    def _drop_table(self, user_id: Id) -> None:
        """Remove a member's table and its row of the member arrays."""
        m = list(self.tables).index(user_id)
        self.tables.pop(user_id).attach_thresholds(None)
        n = len(self.tables)
        for array in (self._digits, self._hosts, self._thresholds):
            array[m:n] = array[m + 1:n + 1]
        self._thresholds[n] = np.inf
        for row, table in enumerate(list(self.tables.values())[m:], start=m):
            table.attach_thresholds(self._thresholds[row])

    # ------------------------------------------------------------------
    # Leave and failure
    # ------------------------------------------------------------------
    def leave(self, user_id: Id) -> None:
        """Graceful leave: the user has its record deleted from all tables
        (Silk leave protocol), with entries re-filled to stay
        K-consistent."""
        self._remove(user_id, repair=True)

    def fail(self, user_id: Id) -> None:
        """Silent failure: the user vanishes but stale records remain in
        other tables until :meth:`repair_tables` runs (neighbors detect the
        failure by missed pings)."""
        if user_id not in self.records:
            raise KeyError(f"user {user_id} not in group")
        del self.records[user_id]
        self.id_tree.remove_user(user_id)
        self._drop_table(user_id)

    def _remove(self, user_id: Id, repair: bool) -> None:
        if user_id not in self.records:
            raise KeyError(f"user {user_id} not in group")
        departed = self.records.pop(user_id)
        self.id_tree.remove_user(user_id)
        self._drop_table(user_id)
        for table in self.tables.values():
            if table.remove(user_id) and repair:
                self._refill(table, departed)
        if self.server_table.remove(user_id) and repair:
            self._refill(self.server_table, departed)

    def _refill(self, table: NeighborTable, departed: UserRecord) -> None:
        """Re-fill the entry a departed user occupied with the closest
        remaining users of that ID subtree."""
        slot = table.slot_for(departed)
        if slot is None:
            return
        i, j = slot
        if table.is_server_table:
            subtree_root = Id((j,))
        else:
            subtree_root = table.owner.user_id.prefix(i).extend(j)
        present = {r.user_id for r in table.entry(i, j)}
        for candidate_id in self.id_tree.users_in_subtree(subtree_root):
            if candidate_id not in present and candidate_id != table.owner.user_id:
                record = self.records[candidate_id]
                table.insert(record, self._rtt(table.owner.host, record.host))

    def repair_tables(self) -> int:
        """Failure recovery sweep: drop records of vanished users from all
        tables and re-fill the holes.  Returns the number of stale records
        removed."""
        removed = 0
        alive = set(self.records)
        for table in list(self.tables.values()) + [self.server_table]:
            for record in list(table.all_records()):
                if record.user_id not in alive:
                    table.remove(record.user_id)
                    self._refill(table, record)
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    def random_id_join(self, host: int) -> JoinResult:
        """Ablation: admit a user with a *random* ID instead of running
        the topology-aware protocol (the Pastry/Tapestry-style assignment
        discussed in Sections 2.6 and 5)."""
        self._clock += 1.0
        while True:
            user_id = self.scheme.random_user_id(self.rng)
            if user_id not in self.records:
                break
        record = UserRecord(
            user_id, host, self.topology.access_rtt(host), self._clock
        )
        self._admit(record)
        return JoinResult(record, None)
