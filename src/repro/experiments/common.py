"""Shared experiment plumbing: topology construction, group building,
NICE building, and the centralized ID-assignment controller the paper uses
for its rekey-cost simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..alm.nice import NiceHierarchy
from ..core.id_assignment import IdAssigner, complete_user_id
from ..core.id_tree import IdTree
from ..core.ids import Id, IdScheme
from ..core.membership import Group
from ..core.neighbor_table import UserRecord
from ..net.gtitm import TransitStubParams, TransitStubTopology
from ..net.planetlab import PlanetLabTopology
from ..net.topology import Topology
from ..verify import hooks as _verify_hooks
from .config import SCHEME, Scale, current_scale


#: Host count above which build_topology skips the dense RTT cache
#: (quadratic memory: 4096 hosts ~ 128 MiB of float64).
DENSE_RTT_HOST_LIMIT = 4096


def build_topology(
    kind: str,
    num_users: int,
    seed: int,
    gtitm_params: Optional[TransitStubParams] = None,
    dense_rtt: Optional[bool] = None,
) -> Topology:
    """A topology with ``num_users + 1`` hosts; by convention the last
    host index is the key server.

    ``dense_rtt`` controls the host-to-host RTT cache the simulation hot
    paths read: ``None`` (default) builds it up to
    :data:`DENSE_RTT_HOST_LIMIT` hosts, ``True`` forces it, ``False``
    keeps the scalar on-demand path (the cache never changes results —
    its entries are bitwise-equal to the scalar computation — so this is
    purely a speed/memory knob, used by the perf harness to time both
    paths)."""
    num_hosts = num_users + 1
    if kind == "planetlab":
        topology: Topology = PlanetLabTopology(num_hosts=num_hosts, seed=seed)
    elif kind == "gtitm":
        params = gtitm_params if gtitm_params is not None else current_scale().gtitm_params
        topology = TransitStubTopology(num_hosts=num_hosts, params=params, seed=seed)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    if dense_rtt is None:
        dense_rtt = num_hosts <= DENSE_RTT_HOST_LIMIT
    if dense_rtt:
        topology.ensure_rtt_matrix()
    return topology


def server_host_of(topology: Topology) -> int:
    """The host index reserved for the key server (the last one)."""
    return topology.num_hosts - 1


def build_group(
    topology: Topology,
    num_users: int,
    seed: int,
    scheme: IdScheme = SCHEME,
    thresholds: Optional[Sequence[float]] = None,
    k: int = 4,
    random_ids: bool = False,
) -> Group:
    """Join ``num_users`` users (hosts 0..num_users-1 in random order)
    using the full Section-3.1 protocol (or random IDs for ablations)."""
    rng = np.random.default_rng(seed)
    assigner = (
        IdAssigner(scheme, thresholds)
        if thresholds is not None
        else IdAssigner(scheme, _default_thresholds(scheme))
    )
    group = Group(
        scheme, topology, server_host_of(topology), assigner, k=k, rng=rng
    )
    order = rng.permutation(num_users)
    for host in order:
        if random_ids:
            group.random_id_join(int(host))
        else:
            group.join(int(host))
    ctx = _verify_hooks.ACTIVE
    if ctx is not None:
        # Audit the finished group's tables against Definition 3 before
        # any experiment multicasts over them.
        ctx.observe_group(group)
    return group


def _default_thresholds(scheme: IdScheme) -> Tuple[float, ...]:
    """The paper's R values for D=5, or the Section-4.4 heuristic for
    other D: R1 ~ 150 ms, R_{D-1} a few ms, ratio >= 2 between levels."""
    from ..core.id_assignment import PAPER_THRESHOLDS

    if scheme.num_digits == 5:
        return PAPER_THRESHOLDS
    need = scheme.num_digits - 1
    values: List[float] = [150.0]
    while len(values) < need:
        values.append(max(3.0, values[-1] / 3.0))
    return tuple(values[:need])


def build_nice(
    topology: Topology, hosts: Sequence[int], seed: int, k: int = 3
) -> NiceHierarchy:
    """Sequentially join hosts into a NICE hierarchy, in the given order
    (the paper uses the same join order for T-mesh and NICE)."""
    hierarchy = NiceHierarchy(topology, k=k)
    for host in hosts:
        hierarchy.join(int(host))
    return hierarchy


def join_order(num_users: int, seed: int) -> List[int]:
    """The shared join order for one run: hosts 0..N-1 permuted."""
    rng = np.random.default_rng(seed)
    return [int(h) for h in rng.permutation(num_users)]


# ----------------------------------------------------------------------
# Centralized ID assignment (the paper's Fig. 12 controller)
# ----------------------------------------------------------------------
class CentralizedController:
    """Assigns IDs without building neighbor tables.

    The paper (Section 4.2): "For efficiency, we use a centralized
    controller to simulate the J joins and L leaves in that rekey
    interval."  The controller runs the same digit-by-digit percentile
    protocol but answers record queries from global knowledge of the ID
    tree, which yields the same kind of topology-aware IDs at a fraction
    of the cost.
    """

    def __init__(
        self,
        scheme: IdScheme,
        topology: Topology,
        seed: int,
        thresholds: Optional[Sequence[float]] = None,
        sample_limit: int = 32,
    ):
        self.scheme = scheme
        self.topology = topology
        self.rng = np.random.default_rng(seed)
        self.assigner = IdAssigner(
            scheme, thresholds if thresholds is not None else _default_thresholds(scheme)
        )
        self.sample_limit = sample_limit
        self.id_tree = IdTree(scheme)
        self.records: Dict[Id, UserRecord] = {}

    def _query(self, responder: UserRecord, prefix: Id) -> List[UserRecord]:
        """The subtree's users minus the responder, sampled down to
        ``sample_limit`` records when larger."""
        uids = self.id_tree.users_in_subtree(prefix)  # a fresh set copy
        # Discarding leaves the iteration order of the rest unchanged.
        uids.discard(responder.user_id)
        members = list(uids)
        if len(members) > self.sample_limit:
            picks = self.rng.choice(len(members), self.sample_limit, replace=False)
            return [self.records[members[k]] for k in picks.tolist()]
        return list(map(self.records.__getitem__, members))

    def exhaustive(self, prefix: Id) -> bool:
        """The query service's exhaustive capability
        (:data:`repro.core.id_assignment.ExhaustiveFn`): a subtree of at
        most ``sample_limit + 1`` users is answered in full to any of its
        members and draws no randomness."""
        return self.id_tree.subtree_size(prefix) <= self.sample_limit + 1

    def join(self, host: int) -> Id:
        access = self.topology.access_rtt(host)
        if not self.records:
            user_id = self.scheme.first_user_id()
        else:
            ids = list(self.records)
            bootstrap = self.records[ids[int(self.rng.integers(0, len(ids)))]]
            outcome = self.assigner.determine_prefix(
                host,
                access,
                self.topology,
                self._query,
                bootstrap,
                exhaustive=self.exhaustive,
            )
            user_id = complete_user_id(
                self.id_tree, outcome.determined_prefix, self.rng
            )
        self.id_tree.add_user(user_id)
        self.records[user_id] = UserRecord(user_id, host, access)
        return user_id

    def leave(self, user_id: Id) -> None:
        self.id_tree.remove_user(user_id)
        del self.records[user_id]
