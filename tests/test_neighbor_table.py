"""Tests for neighbor tables and K-consistency (Section 2.2, Def. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.id_tree import IdTree
from repro.core.ids import Id, IdScheme, NULL_ID
from repro.core.neighbor_table import (
    NeighborTable,
    UserRecord,
    build_consistent_tables,
    build_server_table,
    check_k_consistency,
)

SCHEME = IdScheme(num_digits=3, base=4)


def rec(digits, host):
    return UserRecord(Id(digits), host)


@pytest.fixture
def owner_table():
    return NeighborTable(SCHEME, rec([1, 2, 3], 0), k=2)


class TestSlotPlacement:
    def test_slot_is_common_prefix_row(self, owner_table):
        # (i, w.ID[i]) where i = longest common prefix length (Def. 3).
        assert owner_table.slot_for(rec([0, 0, 0], 1)) == (0, 0)
        assert owner_table.slot_for(rec([1, 0, 0], 2)) == (1, 0)
        assert owner_table.slot_for(rec([1, 2, 0], 3)) == (2, 0)

    def test_own_id_has_no_slot(self, owner_table):
        assert owner_table.slot_for(rec([1, 2, 3], 9)) is None

    def test_own_digit_entry_stays_empty(self, owner_table):
        # Def. 3 (1): if j == u.ID[i], the (i,j)-entry is empty — records
        # with that digit land in a deeper row instead.
        owner_table.insert(rec([1, 0, 0], 1), 10.0)
        assert owner_table.entry(0, 1) == []
        assert [r.user_id for r in owner_table.entry(1, 0)] == [Id([1, 0, 0])]


class TestInsertRemove:
    def test_insert_sorted_by_rtt(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 30.0)
        owner_table.insert(rec([0, 1, 0], 2), 10.0)
        assert [r.host for r in owner_table.entry(0, 0)] == [2, 1]
        assert owner_table.primary(0, 0).host == 2
        assert owner_table.entry_rtts(0, 0) == [10.0, 30.0]

    def test_insert_respects_k(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 30.0)
        owner_table.insert(rec([0, 1, 0], 2), 10.0)
        changed = owner_table.insert(rec([0, 2, 0], 3), 20.0)  # evicts host 1
        assert changed
        assert [r.host for r in owner_table.entry(0, 0)] == [2, 3]

    def test_insert_worse_than_k_is_noop(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 10.0)
        owner_table.insert(rec([0, 1, 0], 2), 20.0)
        changed = owner_table.insert(rec([0, 2, 0], 3), 99.0)
        assert not changed
        assert [r.host for r in owner_table.entry(0, 0)] == [1, 2]

    def test_duplicate_user_rejected(self, owner_table):
        assert owner_table.insert(rec([0, 0, 0], 1), 10.0)
        assert not owner_table.insert(rec([0, 0, 0], 1), 5.0)
        assert len(owner_table.entry(0, 0)) == 1

    def test_remove(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 10.0)
        assert owner_table.remove(Id([0, 0, 0]))
        assert owner_table.entry(0, 0) == []
        assert not owner_table.remove(Id([0, 0, 0]))

    def test_contains_and_iteration(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 10.0)
        owner_table.insert(rec([1, 0, 0], 2), 10.0)
        assert owner_table.contains(Id([0, 0, 0]))
        assert owner_table.num_neighbors() == 2
        assert {r.host for r in owner_table.all_records()} == {1, 2}

    def test_row_primaries(self, owner_table):
        owner_table.insert(rec([0, 0, 0], 1), 10.0)
        owner_table.insert(rec([2, 0, 0], 2), 10.0)
        assert [(j, r.host) for j, r in owner_table.row_primaries(0)] == [
            (0, 1),
            (2, 2),
        ]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            NeighborTable(SCHEME, rec([0, 0, 0], 0), k=0)

    def test_bad_slot_indices(self, owner_table):
        with pytest.raises(IndexError):
            owner_table.entry(3, 0)
        with pytest.raises(IndexError):
            owner_table.entry(0, 4)


class TestServerTable:
    def test_single_row(self):
        table = NeighborTable(SCHEME, UserRecord(NULL_ID, 99), k=2)
        assert table.is_server_table
        assert table.num_rows == 1

    def test_entries_keyed_by_first_digit(self):
        # Section 2.2: the (0,j)-entry holds the K users closest to the
        # server among those whose IDs start with digit j.
        records = [rec([0, 0, 0], 0), rec([0, 1, 0], 1), rec([2, 0, 0], 2)]
        rtts = {0: 30.0, 1: 10.0, 2: 5.0}
        table = build_server_table(
            SCHEME, 99, records, lambda s, h: rtts[h], k=1
        )
        assert table.primary(0, 0).host == 1  # closest of the two 0-prefix
        assert table.primary(0, 2).host == 2
        assert table.primary(0, 1) is None


def _random_population(rng, n):
    ids = set()
    while len(ids) < n:
        ids.add(tuple(int(rng.integers(0, SCHEME.base)) for _ in range(3)))
    return [UserRecord(Id(t), i) for i, t in enumerate(sorted(ids))]


class TestConsistency:
    def test_oracle_tables_are_k_consistent(self):
        rng = np.random.default_rng(1)
        records = _random_population(rng, 20)
        rtt = lambda a, b: abs(a - b) + 1.0
        tables = build_consistent_tables(SCHEME, records, rtt, k=2)
        tree = IdTree(SCHEME, [r.user_id for r in records])
        assert check_k_consistency(tables, tree, 2) == []

    def test_checker_flags_missing_neighbor(self):
        rng = np.random.default_rng(2)
        records = _random_population(rng, 12)
        rtt = lambda a, b: 1.0
        tables = build_consistent_tables(SCHEME, records, rtt, k=1)
        tree = IdTree(SCHEME, [r.user_id for r in records])
        # break one table
        victim = records[0].user_id
        other = next(iter(tables[victim].all_records()))
        tables[victim].remove(other.user_id)
        problems = check_k_consistency(tables, tree, 1)
        assert problems and str(victim) in problems[0]

    def test_checker_flags_foreign_record(self):
        records = [rec([0, 0, 0], 0), rec([1, 0, 0], 1), rec([2, 0, 0], 2)]
        tables = build_consistent_tables(
            SCHEME, records, lambda a, b: 1.0, k=1
        )
        tree = IdTree(SCHEME, [r.user_id for r in records])
        # smuggle a wrong-subtree record directly into an entry
        table = tables[Id([0, 0, 0])]
        entry = table._entries[(0, 1)]
        entry.neighbors.append((0.5, rec([2, 0, 0], 2)))
        problems = check_k_consistency(tables, tree, 1)
        assert any("outside subtree" in p or "neighbors" in p for p in problems)

    @given(st.integers(min_value=2, max_value=25), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_consistency_property(self, n, seed):
        rng = np.random.default_rng(seed)
        records = _random_population(rng, n)
        hosts = {r.host: rng.uniform(0, 100, size=2) for r in records}
        rtt = lambda a, b: float(np.linalg.norm(hosts[a] - hosts[b])) + 0.1
        for k in (1, 3):
            tables = build_consistent_tables(SCHEME, records, rtt, k=k)
            tree = IdTree(SCHEME, [r.user_id for r in records])
            assert check_k_consistency(tables, tree, k) == []


# ----------------------------------------------------------------------
# Fast paths held to their brute-force definitions
# ----------------------------------------------------------------------
_digits = st.tuples(*(st.integers(0, SCHEME.base - 1),) * SCHEME.num_digits)

#: One offer: (user digits, host, RTT).  Few distinct RTTs, so ties and
#: offers equal to an entry's worst RTT are common.
_offers = st.lists(
    st.tuples(
        _digits, st.integers(0, 50), st.sampled_from([1.0, 2.0, 2.5, 4.0, 7.0])
    ),
    max_size=60,
)


def _owner(digits):
    return UserRecord(Id(digits) if digits is not None else NULL_ID, 99)


class _ReferenceTable:
    """The append/sort/pop insert rule, written out plainly."""

    def __init__(self, table):
        self.slot_for = table.slot_for
        self.k = table.k
        self.entries = {}

    def insert(self, record, rtt):
        slot = self.slot_for(record)
        if slot is None:
            return False
        neighbors = self.entries.setdefault(slot, [])
        if any(r.user_id == record.user_id for _, r in neighbors):
            return False
        neighbors.append((rtt, record))
        neighbors.sort(key=lambda pair: pair[0])
        if len(neighbors) > self.k:
            dropped = neighbors.pop()
            return dropped[1].user_id != record.user_id
        return True


class TestFastPathsMatchBruteForce:
    @given(
        st.one_of(st.none(), _digits),
        st.integers(1, 3),
        _offers,
    )
    @settings(max_examples=200, deadline=None)
    def test_insert_matches_append_sort_pop(self, owner, k, offers):
        table = NeighborTable(SCHEME, _owner(owner), k=k)
        reference = _ReferenceTable(table)
        for digits, host, rtt in offers:
            record = UserRecord(Id(digits), host)
            assert table.insert(record, rtt) == reference.insert(record, rtt)
        for (i, j), neighbors in reference.entries.items():
            kept = list(zip(table.entry_rtts(i, j), table.entry(i, j)))
            assert kept == neighbors

    @given(_digits, st.integers(1, 3), _offers)
    @settings(max_examples=200, deadline=None)
    def test_fill_matches_inserts_and_keeps_thresholds(self, owner, k, offers):
        """One fill equals the same offers inserted one by one (the
        owner's own ID, when offered, is skipped), and the attached
        threshold row holds each full entry's worst RTT, else inf."""
        distinct = list({digits: (digits, host, rtt) for digits, host, rtt in offers}.values())
        records = [UserRecord(Id(digits), host) for digits, host, _ in distinct]
        rtts = np.array([rtt for _, _, rtt in distinct])
        sequential = NeighborTable(SCHEME, _owner(owner), k=k)
        for record, rtt in zip(records, rtts.tolist()):
            sequential.insert(record, rtt)
        batched = NeighborTable(SCHEME, _owner(owner), k=k)
        row = np.full((SCHEME.num_digits, SCHEME.base), np.inf)
        batched.attach_thresholds(row)
        epoch = NeighborTable._mutation_epoch
        digits = np.array([d for d, _, _ in distinct], dtype=np.int64)
        digits = digits.reshape(len(distinct), SCHEME.num_digits)
        batched.fill(records, digits, rtts)
        assert NeighborTable._mutation_epoch == epoch + 1
        assert list(batched._entries) == list(sequential._entries)
        expected = np.full_like(row, np.inf)
        for slot, entry in sequential._entries.items():
            assert batched._entries[slot].neighbors == entry.neighbors
            assert batched._entries[slot].ids == entry.ids
            if len(entry.neighbors) == k:
                expected[slot] = entry.neighbors[-1][0]
        np.testing.assert_array_equal(row, expected)
        if batched._entries:
            with pytest.raises(ValueError):
                batched.fill(records, digits, rtts)

    @given(
        st.one_of(st.none(), _digits),
        st.integers(1, 3),
        _offers,
        st.lists(_digits, max_size=6),
        st.lists(st.integers(0, SCHEME.base - 1), max_size=SCHEME.num_digits),
    )
    @settings(max_examples=200, deadline=None)
    def test_records_with_prefix_matches_scan(
        self, owner, k, offers, removals, prefix_digits
    ):
        table = NeighborTable(SCHEME, _owner(owner), k=k)
        for digits, host, rtt in offers:
            table.insert(UserRecord(Id(digits), host), rtt)
        for digits in removals:
            table.remove(Id(digits))
        # Prefixes both on and off the owner's own path.
        prefixes = [Id(prefix_digits)]
        if owner is not None:
            prefixes += [Id(owner[:n]) for n in range(SCHEME.num_digits + 1)]
        for prefix in prefixes:
            scan = [
                r for r in table.all_records() if prefix.is_prefix_of(r.user_id)
            ]
            assert table.records_with_prefix(prefix) == scan
