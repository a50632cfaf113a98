"""Pinned outputs of the Section-3.1 ID assignment and the Fig. 12 driver.

The values below were captured from the straightforward implementation
of :meth:`IdAssigner.determine_prefix` (one query per loop iteration,
one record at a time, one RTT batch per pool) and of the centralized
controller.  The fast join path must reproduce them bitwise: the same
IDs, the same per-digit decisions (pools, percentiles, chosen digit)
and the same query counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.id_assignment import IdAssigner
from repro.core.ids import PAPER_SCHEME
from repro.core.membership import Group
from repro.experiments.common import (
    CentralizedController,
    _default_thresholds,
    build_topology,
    server_host_of,
)
from repro.experiments.config import SMALL_GTITM, TINY_GTITM
from repro.experiments.rekey_cost import default_grid, run_rekey_cost


def _decision_rows(outcome):
    """One hashable row per digit decision; percentiles as exact hex."""
    return [
        (
            d.digit_index,
            tuple(d.pools.items()),
            tuple((j, float(v).hex()) for j, v in d.percentiles.items()),
            d.chosen,
            d.queries,
        )
        for d in outcome.decisions
    ]


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _recording(controller):
    """Record every outcome the controller's assigner produces."""
    outcomes = []
    real = controller.assigner.determine_prefix

    def determine_prefix(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    controller.assigner.determine_prefix = determine_prefix
    return outcomes


def controller_run(num_users=160, seed=9, sample_limit=32):
    """Join ``num_users`` hosts through a centralized controller; returns
    the assigned IDs and the recorded outcomes."""
    topology = build_topology(
        "gtitm", num_users, 3, gtitm_params=SMALL_GTITM
    )
    controller = CentralizedController(
        PAPER_SCHEME, topology, seed, sample_limit=sample_limit
    )
    outcomes = _recording(controller)
    order = np.random.default_rng(seed).permutation(num_users)
    ids = [controller.join(int(h)) for h in order]
    return ids, outcomes


def group_run(num_users=64, seed=4):
    """Join ``num_users`` hosts through :class:`Group` (neighbor-table
    queries); returns the join results."""
    topology = build_topology("gtitm", num_users, 5, gtitm_params=TINY_GTITM)
    group = Group(
        PAPER_SCHEME,
        topology,
        server_host_of(topology),
        IdAssigner(PAPER_SCHEME, _default_thresholds(PAPER_SCHEME)),
        k=4,
        rng=np.random.default_rng(seed),
    )
    order = np.random.default_rng(seed + 1).permutation(num_users)
    return [group.join(int(h)) for h in order]


def surface_rows():
    topology = build_topology("gtitm", 48, 3, gtitm_params=TINY_GTITM)
    surface = run_rekey_cost(
        48, grid=default_grid(48, 3), runs=2, seed=5, topology=topology
    )
    return [
        (p.joins, p.leaves, p.modified, p.original, p.cluster)
        for p in surface.points
    ]


# ----------------------------------------------------------------------
# Pinned values
# ----------------------------------------------------------------------
PINNED_SURFACE = [
    (0, 0, 0.0, 0.0, 0.0),
    (0, 24, 44.0, 33.5, 28.0),
    (0, 48, 0.0, 0.0, 0.0),
    (24, 0, 91.0, 43.0, 0.0),
    (24, 24, 78.0, 63.0, 35.5),
    (24, 48, 50.5, 35.0, 38.0),
    (48, 0, 118.5, 83.0, 0.0),
    (48, 24, 104.0, 95.0, 34.5),
    (48, 48, 77.5, 63.0, 44.0),
]
PINNED_CONTROLLER_IDS = (
    '1e39120418c9928f9750cfcf565f0593fe8f3755b43751e0fa469165fe0841a3'
)
PINNED_CONTROLLER_FIRST_IDS = [
    (0, 0, 0, 0, 0),
    (0, 108, 0, 0, 0),
    (0, 108, 246, 0, 0),
    (0, 108, 246, 0, 30),
    (0, 171, 0, 0, 0),
    (0, 164, 0, 0, 0),
    (0, 0, 234, 0, 0),
    (0, 237, 0, 0, 0),
]
PINNED_CONTROLLER_QUERIES = [
    2, 5, 9, 8, 10, 13, 14, 17, 18, 11, 15, 19,
    17, 16, 17, 21, 24, 27, 22, 31, 26, 25, 31, 27,
    37, 27, 37, 33, 35, 33, 34, 37, 43, 41, 36, 46,
    50, 35, 33, 35, 44, 32, 48, 34, 40, 48, 34, 30,
    38, 35, 34, 48, 35, 51, 36, 44, 40, 41, 43, 48,
    44, 48, 48, 54, 53, 40, 50, 42, 40, 54, 56, 54,
    57, 44, 56, 60, 41, 47, 53, 54, 47, 58, 47, 47,
    52, 50, 69, 54, 55, 71, 58, 56, 66, 59, 46, 63,
    61, 62, 66, 51, 52, 58, 58, 70, 51, 62, 74, 51,
    68, 56, 47, 54, 43, 53, 43, 54, 52, 53, 50, 65,
    68, 57, 53, 52, 53, 49, 50, 55, 56, 46, 55, 52,
    51, 47, 53, 46, 56, 51, 57, 59, 58, 59, 58, 53,
    48, 52, 44, 45, 39, 51, 37, 52, 41, 32, 45, 40,
    51, 36, 46,
]
PINNED_CONTROLLER_DECISIONS = (
    '743f4e4f7994b1670084b4f9d04d1ed5e3af034a01d5517ba730895ea205e910'
)
PINNED_SAMPLED_IDS = (
    '411376bef990dec3f62f9a298ca48f1150a6c20b9536f76082153dde284ac95f'
)
PINNED_SAMPLED_DECISIONS = (
    'e9961626cd25e8b2fc169709a6101e89e8d2403c0f71125527508fbb360a57cb'
)
PINNED_GROUP_IDS = (
    '6c8dbde1d4c3ffc43c77e02ea29028dfe77ca8828d126d103f13054c348c1cbd'
)
PINNED_GROUP_QUERIES = [
    2, 5, 7, 11, 12, 17, 18, 16, 23, 17, 14, 18,
    19, 22, 21, 24, 27, 24, 29, 32, 31, 31, 35, 33,
    38, 34, 33, 32, 33, 29, 28, 26, 28, 29, 22, 30,
    30, 22, 31, 29, 33, 24, 28, 30, 24, 27, 36, 28,
    33, 17, 4, 31, 40, 27, 18, 27, 22, 6, 22, 9,
    12, 30, 28,
]
PINNED_GROUP_DECISIONS = (
    '0343d206b177fe769fea2be4e6f6e0b2aa53317343b0360eb93010142de912c7'
)


def test_rekey_cost_surface_is_pinned():
    assert surface_rows() == PINNED_SURFACE


def test_controller_ids_and_decisions_are_pinned():
    ids, outcomes = controller_run()
    assert [uid.digits for uid in ids[:8]] == PINNED_CONTROLLER_FIRST_IDS
    assert _digest([uid.digits for uid in ids]) == PINNED_CONTROLLER_IDS
    assert [o.total_queries for o in outcomes] == PINNED_CONTROLLER_QUERIES
    rows = [_decision_rows(o) for o in outcomes]
    assert _digest(rows) == PINNED_CONTROLLER_DECISIONS


def test_sampling_controller_is_pinned():
    # A small sample limit makes most subtrees answer with a random
    # sample, so the pin covers the controller's rng.choice draws too.
    ids, outcomes = controller_run(num_users=120, seed=2, sample_limit=3)
    assert _digest([uid.digits for uid in ids]) == PINNED_SAMPLED_IDS
    rows = [_decision_rows(o) for o in outcomes]
    assert _digest(rows) == PINNED_SAMPLED_DECISIONS


def test_group_join_decisions_are_pinned():
    results = group_run()
    ids = [r.record.user_id.digits for r in results]
    assert _digest(ids) == PINNED_GROUP_IDS
    outcomes = [r.outcome for r in results[1:]]
    assert [o.total_queries for o in outcomes] == PINNED_GROUP_QUERIES
    rows = [_decision_rows(o) for o in outcomes]
    assert _digest(rows) == PINNED_GROUP_DECISIONS



# ----------------------------------------------------------------------
# The exhaustive capability changes nothing but the queries issued
# ----------------------------------------------------------------------
class _CountingController(CentralizedController):
    """Counts the queries the assigner actually issues."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = 0

    def _query(self, responder, prefix):
        self.issued += 1
        return super()._query(responder, prefix)


class _PlainQueryController(_CountingController):
    """The same controller offering only the plain query callable, so the
    assigner runs every query of every refinement loop."""

    exhaustive = None


@pytest.mark.parametrize(
    "num_users,seed,sample_limit",
    [(160, 9, 32), (120, 2, 3), (200, 31, 8)],
)
def test_exhaustive_capability_matches_plain_query(num_users, seed, sample_limit):
    topology = build_topology("gtitm", num_users, 3, gtitm_params=SMALL_GTITM)
    order = [int(h) for h in np.random.default_rng(seed).permutation(num_users)]
    runs = []
    for cls in (_CountingController, _PlainQueryController):
        controller = cls(PAPER_SCHEME, topology, seed, sample_limit=sample_limit)
        outcomes = _recording(controller)
        ids = [controller.join(h) for h in order]
        runs.append((controller, ids, outcomes))
    (fast, fast_ids, fast_out), (plain, plain_ids, plain_out) = runs
    assert fast_ids == plain_ids
    assert fast_out == plain_out
    assert [_decision_rows(o) for o in fast_out] == [
        _decision_rows(o) for o in plain_out
    ]
    assert fast.rng.bit_generator.state == plain.rng.bit_generator.state
    counted = sum(o.total_queries for o in plain_out)
    assert plain.issued == counted
    # The capability skips queries without changing the count reported.
    assert fast.issued < counted
