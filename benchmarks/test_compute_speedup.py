"""Bench-lane guard: the numpy compute backend must stay fast.

The point of :mod:`repro.compute.numpy_backend` is speed — bitwise
equivalence is enforced elsewhere (``tests/test_compute_backends.py``).
This lane asserts the speed is real, on the canonical 1024-member rekey
workload, measured back to back in the same process so both sides see
the same machine regime:

* the session call itself (the operation ``rekey_session_1024`` in
  ``BENCH_PR2.json``/``BENCH_PR7.json`` times: the vectorized kernel
  runs eagerly, Receipt/edge objects stay lazy) must be at least
  ``MIN_KERNEL_SPEEDUP``x faster than the reference backend.  PR 7
  measured ~48x here; the 2x floor catches a backend that silently
  stopped vectorizing (e.g. a precondition check routing every session
  down the reference fallback) without flaking on ambient noise.
* the fully *materialized* session (receipts read back) must still win
  by ``MIN_MATERIALIZED_SPEEDUP``x.  Both backends build the same ~2k
  NamedTuples there, so the ceiling is Amdahl-bound (~1.9x measured);
  this floor catches regressions in the lazy-materialization path.

Run with the bench lane::

    PYTHONPATH=src pytest benchmarks/test_compute_speedup.py -m bench
"""

from __future__ import annotations

import pytest

from repro.compute import create_backend
from repro.perf.workloads import measure

#: Required numpy-over-reference ratio of best-of-N session-call times
#: (the committed workload's operation).  Deliberately far below the
#: measured ~48x: this guards "the vectorized path stopped engaging",
#: not single-digit drift.
MIN_KERNEL_SPEEDUP = 2.0

#: Required ratio with materialization included.  Object construction
#: dominates both backends there (measured ~1.9x), so the floor is low;
#: dropping under it means the lazy path or the array-reorder
#: materialization regressed.
MIN_MATERIALIZED_SPEEDUP = 1.2

REPEATS = 9


@pytest.fixture(scope="module")
def numpy_backend():
    return create_backend("numpy")


@pytest.fixture(scope="module")
def world_1024():
    from repro.experiments.common import build_group, build_topology

    topology = build_topology("gtitm", 1024, seed=20)
    return topology, build_group(topology, 1024, seed=20)


def test_numpy_kernel_at_least_2x_reference_at_1024(numpy_backend, world_1024):
    from repro.core.tmesh import rekey_session

    topology, group = world_1024

    def run(compute):
        return rekey_session(
            group.server_table, group.tables, topology, compute=compute
        )

    run(numpy_backend).receipts  # prime the one-time structure compile
    vec = measure(lambda: run(numpy_backend), REPEATS)
    ref = measure(lambda: run("reference"), REPEATS)
    speedup = ref["min_ms"] / vec["min_ms"]
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"numpy backend only {speedup:.2f}x reference at 1024 members "
        f"(reference {ref['min_ms']:.3f} ms vs numpy {vec['min_ms']:.3f} ms); "
        "is the vectorized path falling back to reference?"
    )


def test_numpy_materialized_still_wins_at_1024(numpy_backend, world_1024):
    from repro.core.tmesh import rekey_session

    topology, group = world_1024

    def run(compute):
        session = rekey_session(
            group.server_table, group.tables, topology, compute=compute
        )
        return session.receipts  # force full materialization

    run(numpy_backend)
    vec = measure(lambda: run(numpy_backend), REPEATS)
    ref = measure(lambda: run("reference"), REPEATS)
    speedup = ref["min_ms"] / vec["min_ms"]
    assert speedup >= MIN_MATERIALIZED_SPEEDUP, (
        f"materialized numpy session only {speedup:.2f}x reference at 1024 "
        f"members (reference {ref['min_ms']:.3f} ms vs numpy "
        f"{vec['min_ms']:.3f} ms); the lazy-materialization path regressed"
    )
