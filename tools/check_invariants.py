#!/usr/bin/env python
"""Run the invariant-checker oracle suite over fixed seed scenarios.

Scenarios (each runs under a full :mod:`repro.verify` context — every
T-mesh session is checked against Theorem 1, Lemmas 1-2, and the
brute-force differential oracle; tables against Definition 3; key trees
against Section 2.4):

* ``static-rekey``    — a protocol-built group (default 1024 users, the
                        paper's headline size) serving one rekey and one
                        data multicast, plus the batch-rekey key tree.
* ``fig7-latency``    — the Fig. 7 latency workload (GT-ITM, rekey mode)
                        with verification hooks active.
* ``churn``           — interleaved joins/leaves with table repair and a
                        verified multicast after every batch.
* ``distributed``     — the message-level protocol world, audited for
                        emergent 1-consistency and duplicate-free
                        interval delivery at quiescence.
* ``traced-rekey``    — verification and tracing hooks composed on a
                        256-user rekey, with the trace-determinism
                        invariant (same seed => byte-identical trace)
                        checked over two runs.
* ``compute-backends`` — the same fixed-seed session replayed through
                        every :mod:`repro.compute` backend under full
                        verification, then diffed backend against
                        backend: the bitwise-equivalence contract.
* ``sharded-scale``   — the 10k rung of the scale ladder under full
                        verification: the dense object path (trie-derived
                        tables, differential oracle included) against the
                        streaming array path, held to one canonical
                        receipt digest; includes its own corruption
                        canary (a server table with a dropped row-0
                        entry MUST trip the checkers at 10k).
* ``corruption-canary`` — a deliberately corrupted server table; this
                        scenario MUST trip the checkers.  It proves the
                        gate can fail, so a silently broken verification
                        layer cannot masquerade as a green suite.

Exit status: 0 all green; 1 a scenario raised an InvariantViolation;
2 the corruption canary went undetected (the verification layer itself is
broken).  ``--csv`` archives any violation reports via
:func:`repro.metrics.export.write_violation_reports`.

Usage::

    PYTHONPATH=src python tools/check_invariants.py
    PYTHONPATH=src python tools/check_invariants.py --users 256 --seed 7
    PYTHONPATH=src python tools/check_invariants.py --only corruption-canary
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))  # for tests.conftest (canary world builder)

import numpy as np  # noqa: E402

from repro.core.ids import Id, IdScheme  # noqa: E402
from repro.core.tmesh import data_session, rekey_session  # noqa: E402
from repro.keytree.modified_tree import ModifiedKeyTree  # noqa: E402
from repro.metrics.export import write_violation_reports  # noqa: E402
from repro.verify import InvariantViolation, verification  # noqa: E402

SMALL_SCHEME = IdScheme(num_digits=3, base=4)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_static_rekey(seed: int, users: int) -> str:
    from repro.experiments.common import build_group, build_topology

    topology = build_topology("gtitm", users, seed=seed)
    with verification(seed=seed) as ctx:
        group = build_group(topology, users, seed=seed)  # observed: Def. 3
        rekey_session(group.server_table, group.tables, topology)
        sender = sorted(group.records)[seed % group.num_users]
        data_session(sender, group.tables, topology)
        tree = ModifiedKeyTree(group.scheme)
        for uid in group.records:
            tree.request_join(uid)
        message = tree.process_batch()
        ctx.observe_key_tree(tree)
        ctx.observe_rekey(message, tree.user_ids, group.scheme)
        return ctx.summary()


def scenario_fig7_latency(seed: int, users: int) -> str:
    from repro.experiments.latency_experiments import run_latency_experiment

    with verification(seed=seed) as ctx:
        run_latency_experiment(
            "Fig 7 (verified)", "gtitm", min(users, 128), mode="rekey",
            runs=2, seed=seed,
        )
        return ctx.summary()


def scenario_churn(seed: int, users: int) -> str:
    from repro.core.id_assignment import IdAssigner
    from repro.core.membership import Group
    from repro.experiments.common import _default_thresholds
    from repro.net.planetlab import MatrixTopology

    n_hosts = 24
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, size=(n_hosts, 2))
    matrix = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    topology = MatrixTopology(matrix)
    scheme = IdScheme(num_digits=3, base=3)
    with verification(seed=seed) as ctx:
        group = Group(
            scheme, topology, server_host=n_hosts - 1,
            assigner=IdAssigner(scheme, _default_thresholds(scheme)),
            k=2, rng=np.random.default_rng(seed),
        )
        free = list(range(n_hosts - 1))
        members = []
        for step in range(60):
            if free and (not members or rng.random() < 0.6):
                host = free.pop(int(rng.integers(0, len(free))))
                members.append(group.join(host).record.user_id)
            else:
                uid = members.pop(int(rng.integers(0, len(members))))
                host = group.records[uid].host
                group.leave(uid)
                group.repair_tables()
                free.append(host)
            if len(members) >= 2 and step % 5 == 0:
                ctx.observe_group(group)
                rekey_session(group.server_table, group.tables, topology)
        return ctx.summary()


def scenario_distributed(seed: int, users: int) -> str:
    from repro.distributed import DistributedGroup
    from repro.net import TransitStubParams, TransitStubTopology

    params = TransitStubParams(
        transit_domains=3, transit_per_domain=3,
        stubs_per_transit=2, stub_size=6,
    )
    topology = TransitStubTopology(num_hosts=41, params=params, seed=seed)
    world = DistributedGroup(topology, server_host=40, seed=seed)
    for i in range(12):
        world.schedule_join(i, at=1.0 + i * 300.0)
    world.end_interval(at=5000.0)
    for i in range(3):
        world.schedule_leave_of_host(i, at=6000.0 + i * 200.0)
    world.schedule_recovery_round(at=7000.0)
    world.end_interval(at=8000.0)
    with verification(seed=seed) as ctx:
        world.run()  # quiescent audit fires automatically
        world.verify_invariants()
        return ctx.summary()


def scenario_traced_rekey(seed: int, users: int) -> str:
    """Verification and tracing hooks composed on one workload, plus the
    trace-determinism invariant: the same seed must render the same
    bytes, run to run (docs/OBSERVABILITY.md)."""
    from repro.trace import tracing
    from repro.verify.report import ViolationReport

    def one_run() -> tuple:
        from repro.experiments.common import build_group, build_topology

        size = min(users, 256)
        topology = build_topology("gtitm", size, seed=seed)
        with verification(seed=seed) as vctx, tracing(
            seed=seed, label="traced-rekey"
        ) as tctx:
            group = build_group(topology, size, seed=seed)
            rekey_session(group.server_table, group.tables, topology)
            tree = ModifiedKeyTree(group.scheme)
            for uid in sorted(group.records):
                tree.request_join(uid)
            message = tree.process_batch()
            vctx.observe_key_tree(tree)
            vctx.observe_rekey(message, tree.user_ids, group.scheme)
        return vctx.summary(), tctx.render()

    verify_summary, first = one_run()
    _, second = one_run()
    if first != second:
        diverging = next(
            (i for i, (a, b) in enumerate(
                zip(first.splitlines(), second.splitlines())
            ) if a != b),
            min(len(first.splitlines()), len(second.splitlines())),
        )
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="trace-determinism",
                    citation="docs/OBSERVABILITY.md",
                    detail=f"same-seed traces diverge at line {diverging}",
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only traced-rekey --seed {seed}",
                )
            ]
        )
    return (f"{verify_summary}; trace stable over 2 runs "
            f"({len(first.splitlines())} lines)")


def scenario_compute_backends(seed: int, users: int) -> str:
    """Replay one fixed-seed session through every compute backend under
    full verification (each run is checked against the brute-force
    differential oracle), then diff the backends against each other: the
    bitwise-equivalence contract of :mod:`repro.compute`
    (docs/PERFORMANCE.md)."""
    import pickle

    from repro.experiments.common import build_group, build_topology
    from repro.verify.report import ViolationReport

    size = min(users, 256)
    topology = build_topology("gtitm", size, seed=seed)
    group = build_group(topology, size, seed=seed)
    states = {}
    summaries = []
    for name in ("reference", "numpy"):
        with verification(seed=seed) as ctx:
            session = rekey_session(
                group.server_table, group.tables, topology, compute=name
            )
            states[name] = pickle.dumps(
                (session.receipts, session.edges, session.duplicate_copies)
            )
            summaries.append(f"{name}: {ctx.summary()}")
    if states["reference"] != states["numpy"]:
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="compute-equivalence",
                    citation="docs/PERFORMANCE.md (compute backends)",
                    detail="reference and numpy backends produced "
                    "different session bytes",
                    seed=seed,
                    repro="PYTHONPATH=src python tools/check_invariants.py "
                    f"--only compute-backends --seed {seed}",
                )
            ]
        )
    return "; ".join(summaries) + "; backends bitwise-equal"


def scenario_sharded_scale(seed: int, users: int) -> str:
    """The 10k rung of the scale ladder under full verification
    (docs/PERFORMANCE.md, "Scale ladder").

    The dense object path runs a complete verified rekey session —
    Theorem 1, Lemmas 1-2, *and* the brute-force differential oracle,
    which until this rung was only exercised up to 1024 users — then the
    streaming array path replays the same world and the two canonical
    receipt digests must match bitwise.  A final internal canary proves
    the checkers still bite at this size: a server table with one row-0
    entry dropped cuts off a top-level subtree and MUST raise."""
    from repro.core.neighbor_table import StaticPrimaryTable
    from repro.perf.scale import (
        build_array_world,
        build_scale_world,
        run_streaming_rekey,
    )
    from repro.verify.report import ViolationReport

    size = 10_000
    repro_cmd = ("PYTHONPATH=src python tools/check_invariants.py "
                 f"--only sharded-scale --seed {seed}")
    topology, server_table, tables = build_scale_world(size, seed=seed)
    with verification(seed=seed) as ctx:
        session = rekey_session(server_table, tables, topology)
        dense_digest = session.canonical_receipt_digest()
        dense_summary = ctx.summary()

    world = build_array_world(size, seed=seed)
    with verification(seed=seed) as ctx:
        stream = run_streaming_rekey(world)
        stream_summary = ctx.summary()
    if dense_digest != stream.digest:
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="scale-digest-equivalence",
                    citation="docs/PERFORMANCE.md (Scale ladder)",
                    detail=f"dense digest {dense_digest} != streaming "
                    f"digest {stream.digest} at N={size}",
                    seed=seed,
                    repro=repro_cmd,
                )
            ]
        )

    # Internal corruption canary at 10k: drop one row-0 entry from the
    # server table; the subtree behind it never hears the rekey and the
    # exactly-once checker must notice.
    crippled = StaticPrimaryTable(
        server_table.scheme, server_table.owner,
        [server_table.row_primaries(0)[1:]],
    )
    try:
        with verification(seed=seed):
            rekey_session(crippled, tables, topology)
    except InvariantViolation:
        pass
    else:
        raise InvariantViolation(
            [
                ViolationReport(
                    checker="sharded-scale-canary",
                    citation="Theorem 1",
                    detail=f"a dropped server row-0 entry went undetected "
                    f"at N={size}",
                    seed=seed,
                    repro=repro_cmd,
                )
            ]
        )
    return (f"dense [{dense_summary}] == streaming [{stream_summary}], "
            f"digest {dense_digest[:12]}..., {stream.num_shards} shard(s), "
            "canary tripped")


def scenario_corruption_canary(seed: int, users: int) -> str:
    """MUST raise: a server table with one entry emptied cuts off a
    level-1 subtree, violating Theorem 1 on the next multicast."""
    from tests.conftest import make_static_world

    rng = np.random.default_rng(seed)
    ids = set()
    while len(ids) < 30:
        ids.add(
            tuple(int(rng.integers(0, SMALL_SCHEME.base))
                  for _ in range(SMALL_SCHEME.num_digits))
        )
    ids = [Id(t) for t in sorted(ids)]
    topology, _, tables, server_table = make_static_world(
        SMALL_SCHEME, ids, seed=seed, k=2
    )
    for j in range(SMALL_SCHEME.base):
        victims = [r.user_id for r in list(server_table.entry(0, j))]
        if victims:
            for uid in victims:
                server_table.remove(uid)
            break
    with verification(seed=seed):
        rekey_session(server_table, tables, topology)
    return "corruption went UNDETECTED"


SCENARIOS = [
    ("static-rekey", scenario_static_rekey, False),
    ("fig7-latency", scenario_fig7_latency, False),
    ("churn", scenario_churn, False),
    ("distributed", scenario_distributed, False),
    ("traced-rekey", scenario_traced_rekey, False),
    ("compute-backends", scenario_compute_backends, False),
    ("sharded-scale", scenario_sharded_scale, False),
    ("corruption-canary", scenario_corruption_canary, True),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Invariant-checker oracle suite (docs/VERIFY.md)"
    )
    parser.add_argument("--seed", type=int, default=7, help="base scenario seed")
    parser.add_argument(
        "--users", type=int, default=1024,
        help="group size for the static-rekey scenario (paper headline: 1024)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        choices=[name for name, _, _ in SCENARIOS],
        help="run only the named scenario(s)",
    )
    parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="archive violation reports (if any) as CSV",
    )
    args = parser.parse_args(argv)

    failures = []
    collected = []
    canary_ok = True
    for name, fn, expect_violation in SCENARIOS:
        if args.only and name not in args.only:
            continue
        start = time.perf_counter()
        try:
            summary = fn(args.seed, args.users)
        except InvariantViolation as violation:
            elapsed = time.perf_counter() - start
            collected.extend(violation.reports)
            if expect_violation:
                checkers = ", ".join(sorted(set(violation.checkers)))
                print(f"[ OK ] {name:18s} ({elapsed:6.1f}s)  "
                      f"canary tripped as required: {checkers}")
            else:
                failures.append(name)
                print(f"[FAIL] {name:18s} ({elapsed:6.1f}s)")
                print(str(violation))
        else:
            elapsed = time.perf_counter() - start
            if expect_violation:
                canary_ok = False
                print(f"[FAIL] {name:18s} ({elapsed:6.1f}s)  {summary}")
            else:
                print(f"[ OK ] {name:18s} ({elapsed:6.1f}s)  {summary}")

    if args.csv and collected:
        write_violation_reports(args.csv, collected)
        print(f"archived {len(collected)} report(s) to {args.csv}")
    if not canary_ok:
        print("FATAL: the corruption canary went undetected — the "
              "verification layer is broken", file=sys.stderr)
        return 2
    if failures:
        print(f"{len(failures)} scenario(s) violated invariants: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
