"""Micro-benchmarks of the hot protocol operations.

Unlike the figure benchmarks (one expensive run each), these exercise the
tight loops many times so pytest-benchmark's statistics are meaningful:
the FORWARD fan-out, the Theorem-2 predicate, batch rekeying, and ID
assignment for a single joiner.
"""

import numpy as np
import pytest

import time

from repro.core.ids import Id, PAPER_SCHEME
from repro.core.splitting import next_hop_needs, run_split_rekey
from repro.core.tmesh import rekey_session
from repro.experiments.common import build_group, build_topology
from repro.keytree.modified_tree import ModifiedKeyTree
from repro.keytree.original_tree import OriginalKeyTree


@pytest.fixture(scope="module")
def world():
    topology = build_topology("gtitm", 128, seed=20)
    group = build_group(topology, 128, seed=20)
    tree = ModifiedKeyTree(group.scheme)
    for uid in group.user_ids:
        tree.request_join(uid)
    tree.process_batch()
    rng = np.random.default_rng(20)
    for i in rng.choice(128, size=32, replace=False):
        tree.request_leave(list(group.user_ids)[int(i)])
    message = tree.process_batch()
    return topology, group, message


def test_bench_tmesh_session(benchmark, world):
    topology, group, _ = world
    session = benchmark(
        rekey_session, group.server_table, group.tables, topology
    )
    assert len(session.receipts) == group.num_users


def test_bench_split_predicate(benchmark):
    hop = Id([17, 3, 200, 9, 1])
    encryption_ids = [Id([17, 3]), Id([18]), Id([17, 3, 200, 9, 1]), Id([])]

    def many():
        hits = 0
        for _ in range(250):
            for e in encryption_ids:
                hits += next_hop_needs(e, hop, 2)
        return hits

    assert benchmark(many) > 0


def test_bench_split_session(benchmark, world):
    topology, group, message = world
    session = rekey_session(group.server_table, group.tables, topology)
    split = benchmark(run_split_rekey, session, message)
    assert split.received


def test_bench_modified_tree_batch(benchmark):
    ids = [
        Id([a, b, 0, 0, 0])
        for a in range(16)
        for b in range(16)
    ]

    def batch():
        tree = ModifiedKeyTree(PAPER_SCHEME)
        for uid in ids:
            tree.request_join(uid)
        tree.process_batch()
        for uid in ids[::4]:
            tree.request_leave(uid)
        return tree.process_batch().rekey_cost

    assert benchmark(batch) > 0


def test_bench_original_tree_batch(benchmark):
    def batch():
        tree = OriginalKeyTree(degree=4)
        tree.initialize_balanced(list(range(256)))
        for u in range(64):
            tree.request_leave(u)
        for j in range(64):
            tree.request_join(f"n{j}")
        return tree.process_batch(np.random.default_rng(0)).rekey_cost

    assert benchmark(batch) > 0


@pytest.fixture(scope="module")
def world_1024():
    topology = build_topology("gtitm", 1024, seed=20)
    group = build_group(topology, 1024, seed=20)
    session = rekey_session(group.server_table, group.tables, topology)
    return topology, group, session


def test_bench_user_stress_indexed_1024(benchmark, world_1024):
    """The src-indexed user_stress sweep at 1024 users, plus a proof that
    the index changed the complexity class: one full sweep is O(E) via the
    index versus O(U * E) via the reference scan."""
    _, group, session = world_1024

    def indexed_sweep():
        total = 0
        for member in session.receipts:
            total += session.user_stress(member)
        return total

    indexed_total = benchmark(indexed_sweep)

    t0 = time.perf_counter()
    scan_total = sum(
        session.user_stress_scan(member) for member in session.receipts
    )
    scan_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    indexed_sweep()
    indexed_time = time.perf_counter() - t0

    assert indexed_total == scan_total
    # The asymptotic gap at 1024 users is ~three orders of magnitude; 5x
    # keeps the assertion robust on slow or noisy machines.
    assert scan_time > 5 * indexed_time, (
        f"index no faster than scan: {indexed_time:.6f}s vs {scan_time:.6f}s"
    )
    benchmark.extra_info["scan_over_indexed"] = scan_time / indexed_time


def test_bench_single_join_id_assignment(benchmark, world):
    topology, group, _ = world

    def one_join_cost():
        outcome = group.assigner.determine_prefix(
            100,
            topology.access_rtt(100),
            topology,
            group.query,
            group.records[next(iter(group.records))],
        )
        return len(outcome.determined_prefix)

    benchmark(one_join_cost)
