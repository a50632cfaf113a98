"""The array admit of :class:`Group` against a sequential-offer oracle.

``Group._admit`` offers a newcomer to every table through one array
compare against per-entry admission thresholds and builds the
newcomer's table with one sorted :meth:`NeighborTable.fill`.  The oracle
below is the straightforward admit it replaced: the new table is built
by offering every member to :meth:`NeighborTable.insert` in member
order, and the newcomer is offered to every other table, one
``insert`` each.  Over random sequences of joins, random-ID joins,
leaves, silent failures and repair sweeps, both groups must hold
bitwise-identical tables (entry order, neighbor order, RTT floats,
``ids`` sets, server table), and the array group's thresholds must
equal the values recomputed from its tables.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.id_assignment import IdAssigner
from repro.core.ids import IdScheme
from repro.core.membership import Group
from repro.core.neighbor_table import NeighborTable, UserRecord
from repro.experiments.common import _default_thresholds
from repro.net.planetlab import MatrixTopology

SCHEME = IdScheme(num_digits=3, base=4)
N_HOSTS = 14  # 13 user hosts + the key server


class SequentialOfferGroup(Group):
    """:class:`Group` with the one-insert-per-offer admit: no member
    arrays, no thresholds."""

    def _admit(self, record: UserRecord) -> None:
        user_id = record.user_id
        self.id_tree.add_user(user_id)
        self.records[user_id] = record
        table = NeighborTable(self.scheme, record, self.k)
        others = [o for o in self.records.values() if o.user_id != user_id]
        if others:
            out_rtts = self.topology.rtt_many(
                record.host, [o.host for o in others]
            )
            for other, r in zip(others, out_rtts):
                table.insert(other, float(r))
        self.tables[user_id] = table
        other_tables = [
            t for oid, t in self.tables.items() if oid != user_id
        ]
        if other_tables:
            in_rtts = self.topology.rtt_to_many(
                record.host, [t.owner.host for t in other_tables]
            )
            for other_table, r in zip(other_tables, in_rtts):
                other_table.insert(record, float(r))
        self.server_table.insert(record, self._rtt(self.server_host, record.host))

    def _drop_table(self, user_id) -> None:
        self.tables.pop(user_id)


def integer_topology(seed: int) -> MatrixTopology:
    """Symmetric RTTs on a coarse integer grid, so entries see ties."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(1, 9, size=(N_HOSTS, N_HOSTS)) * 25.0
    matrix = np.triu(matrix, 1)
    return MatrixTopology(matrix + matrix.T)


def make(cls, topology, k, seed):
    return cls(
        SCHEME,
        topology,
        server_host=N_HOSTS - 1,
        assigner=IdAssigner(SCHEME, _default_thresholds(SCHEME)),
        k=k,
        rng=np.random.default_rng(seed),
    )


def table_state(table: NeighborTable):
    """Everything observable about a table, floats as exact hex."""
    return [
        (
            slot,
            [(type(rtt), rtt.hex(), record) for rtt, record in e.neighbors],
            sorted(e.ids),
        )
        for slot, e in table._entries.items()
    ]


def group_state(group: Group):
    return (
        list(group.records.items()),
        [(uid, table_state(t)) for uid, t in group.tables.items()],
        table_state(group.server_table),
    )


def table_states(group: Group):
    states = {uid: table_state(t) for uid, t in group.tables.items()}
    states[None] = table_state(group.server_table)
    return states


def recomputed_thresholds(table: NeighborTable) -> np.ndarray:
    expected = np.full((SCHEME.num_digits, SCHEME.base), np.inf)
    for (i, j), e in table._entries.items():
        if len(e.neighbors) >= table.k:
            expected[i, j] = e.neighbors[-1][0]
    return expected


def assert_member_arrays(group: Group) -> None:
    for m, (uid, table) in enumerate(group.tables.items()):
        assert tuple(group._digits[m]) == uid.digits
        assert group._hosts[m] == table.owner.host
        row = group._thresholds[m]
        assert table._thresholds is not None
        assert np.shares_memory(table._thresholds, row)
        np.testing.assert_array_equal(row, recomputed_thresholds(table))
    assert np.all(group._thresholds[len(group.tables):] == np.inf)
    assert group.server_table._thresholds is None


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["join", "random_id_join", "leave", "fail", "repair"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


@given(
    k=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**16),
    operations=OPERATIONS,
)
@settings(max_examples=60, deadline=None)
def test_array_admit_matches_sequential_offers(k, seed, operations):
    topology = integer_topology(seed)
    group = make(Group, topology, k, seed)
    oracle = make(SequentialOfferGroup, topology, k, seed)
    for name, pick in operations:
        members = sorted(group.records)
        if name in ("join", "random_id_join"):
            used = {r.host for r in group.records.values()}
            free = [h for h in range(N_HOSTS - 1) if h not in used]
            if not free:
                continue
            host = free[pick % len(free)]
            before = table_states(group)
            epoch = NeighborTable._mutation_epoch
            getattr(group, name)(host)
            # Every table the admit changed moved the epoch at least once
            # (the compiled fan-out cache relies on it).
            after = table_states(group)
            changed = sum(after[key] != before.get(key, []) for key in after)
            assert NeighborTable._mutation_epoch - epoch >= changed
            getattr(oracle, name)(host)
        elif name in ("leave", "fail"):
            if not members:
                continue
            victim = members[pick % len(members)]
            getattr(group, name)(victim)
            getattr(oracle, name)(victim)
        else:
            assert group.repair_tables() == oracle.repair_tables()
        assert group_state(group) == group_state(oracle)
        assert_member_arrays(group)
