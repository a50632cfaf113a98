"""Property-based conformance tests for the verification subsystem.

Random membership churn at varying branching factor ``B``, depth ``D``,
and redundancy ``K`` must keep every invariant checker green: Theorem 1's
exactly-once delivery, Lemmas 1-2's prefix relations, Definition 3's
K-consistency, Section 2.4's key-tree agreement and key-ID resolution,
and the differential oracle's brute-force replay.  A fault-marked class
additionally pins the NACK layer's contract under seeded loss: recovery
must restore *exactly-once* (no duplicates surfaced, no holes left), not
merely eventual delivery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from tests.conftest import make_static_world
from repro.alm.reliable import ReliabilityConfig, ReliableSession
from repro.core.id_assignment import IdAssigner
from repro.core.ids import Id, IdScheme
from repro.core.membership import Group
from repro.core.tmesh import data_session, rekey_session, run_multicast
from repro.experiments.common import _default_thresholds
from repro.faults import FaultPlan
from repro.keytree.modified_tree import ModifiedKeyTree
from repro.net.planetlab import MatrixTopology
from repro.verify import verification

pytestmark = pytest.mark.verify

#: The (D, B) grid the properties sweep: shallow/wide, deep/narrow, and
#: the small square the rest of the suite uses.
SCHEMES = [IdScheme(2, 5), IdScheme(3, 3), IdScheme(3, 4), IdScheme(4, 2)]


def random_ids(n, seed, scheme):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < n:
        seen.add(
            tuple(int(rng.integers(0, scheme.base)) for _ in range(scheme.num_digits))
        )
    return [Id(t) for t in sorted(seen)]


class TestSessionConformance:
    @given(
        scheme=st.sampled_from(SCHEMES),
        k=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=2, max_value=28),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_rekey_and_data_sessions_pass_all_checkers(self, scheme, k, n, seed):
        n = min(n, scheme.base**scheme.num_digits - 1)
        ids = random_ids(n, seed, scheme)
        topology, _, tables, server_table = make_static_world(
            scheme, ids, seed=seed, k=k
        )
        with verification(seed=seed) as ctx:
            rekey_session(server_table, tables, topology, processing_delay=0.001)
            data_session(ids[seed % len(ids)], tables, topology)
            rekey_session(
                server_table, tables, topology, 0.001, compute="numpy"
            )
        assert ctx.sessions_checked == 3
        assert ctx.reports == []

    @given(
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=10, deadline=None)
    def test_lossy_transport_keeps_lemma1_and_skips_theorem1(self, k, seed):
        """Under injected loss only Lemma 1 is checkable — the hook must
        neither raise on legitimate loss nor skip the session."""
        scheme = IdScheme(3, 4)
        ids = random_ids(24, seed, scheme)
        topology, _, tables, server_table = make_static_world(
            scheme, ids, seed=seed, k=k
        )
        plan = FaultPlan(seed=seed).drop(0.3)
        with verification(seed=seed) as ctx:
            run_multicast(
                server_table, tables, topology, fault_plan=plan
            )
        assert ctx.sessions_checked == 1
        assert ctx.reports == []


class TestKeyTreeConformance:
    @given(
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(min_value=0, max_value=2**20),
        churn=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_churn_keeps_key_tree_checkers_green(self, scheme, seed, churn):
        rng = np.random.default_rng(seed)
        tree = ModifiedKeyTree(scheme)
        members = []
        with verification(seed=seed) as ctx:
            for join, pick in churn:
                if join or not members:
                    uid = Id(
                        tuple(
                            int(rng.integers(0, scheme.base))
                            for _ in range(scheme.num_digits)
                        )
                    )
                    if uid in tree.user_ids:
                        continue
                    tree.request_join(uid)
                    members.append(uid)
                else:
                    tree.request_leave(members.pop(pick % len(members)))
                message = tree.process_batch()
                ctx.observe_key_tree(tree)
                if members:
                    ctx.observe_rekey(message, tree.user_ids, scheme)
        assert ctx.reports == []


class VerifiedChurnMachine(RuleBasedStateMachine):
    """Protocol-maintained tables under joins/leaves/crashes: after every
    batch the full checker suite (including the differential oracle) runs
    against a rekey multicast over the *live* tables."""

    SCHEME = IdScheme(num_digits=3, base=3)
    N_HOSTS = 14

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 100, size=(self.N_HOSTS, 2))
        matrix = np.sqrt(
            ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        )
        matrix = (matrix + matrix.T) / 2
        np.fill_diagonal(matrix, 0.0)
        self.topology = MatrixTopology(matrix)
        self.group = Group(
            self.SCHEME,
            self.topology,
            server_host=self.N_HOSTS - 1,
            assigner=IdAssigner(self.SCHEME, _default_thresholds(self.SCHEME)),
            k=2,
            rng=np.random.default_rng(1),
        )
        self.free_hosts = set(range(self.N_HOSTS - 1))
        self.host_of = {}

    @rule(data=st.data())
    def join(self, data):
        if not self.free_hosts:
            return
        host = data.draw(st.sampled_from(sorted(self.free_hosts)), label="host")
        uid = self.group.join(host).record.user_id
        self.host_of[uid] = host
        self.free_hosts.discard(host)

    @rule(data=st.data())
    def leave(self, data):
        members = sorted(self.group.records)
        if not members:
            return
        uid = data.draw(st.sampled_from(members), label="leaver")
        self.group.leave(uid)
        self.free_hosts.add(self.host_of.pop(uid))

    @precondition(lambda self: len(self.group.records) >= 2)
    @rule()
    def multicast_under_full_verification(self):
        with verification(seed=0) as ctx:
            rekey_session(
                self.group.server_table, self.group.tables, self.topology
            )
            ctx.observe_group(self.group)
        assert ctx.reports == []


TestVerifiedChurnMachine = VerifiedChurnMachine.TestCase
TestVerifiedChurnMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)


@pytest.mark.faults
class TestNackRecoveryRestoresExactlyOnce:
    """The reliability layer's contract under the verification lens:
    unless the transport *explicitly* gives a hole up after exhausting
    its bounded NACK budget, repair must restore Theorem 1's
    exactly-once delivery — full payload coverage with zero surfaced
    duplicates, not merely 'delivery'.  Holes are never silent: a
    member short of payloads implies ``gave_up`` ticked."""

    PAYLOADS = [f"rekey-{i}" for i in range(6)]
    #: A deep repair budget so full restoration is the overwhelmingly
    #: common branch; the give-up escape hatch stays legal (pinned by
    #: test_reliable_tmesh.py::test_gave_up_counter_and_termination).
    CONFIG = ReliabilityConfig(max_source_nacks=16, heartbeat_rounds=24)

    @given(
        drop=st.floats(min_value=0.05, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**16),
        k=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_seeded_loss_fully_repaired_without_duplicates(self, drop, seed, k):
        scheme = IdScheme(3, 4)
        ids = random_ids(24, seed, scheme)
        topology, _, tables, server_table = make_static_world(
            scheme, ids, seed=seed, k=k
        )
        plan = FaultPlan(seed=seed).drop(drop)
        session = ReliableSession(
            tables, server_table, topology, plan=plan, config=self.CONFIG
        )
        outcome = session.multicast(self.PAYLOADS)
        # Duplicates must never surface, repaired or not (Theorem 1's
        # "at most once" half is unconditional).
        assert outcome.duplicates_surfaced == 0
        if outcome.stats.gave_up == 0:
            # Exactly-once restored: every member has every payload,
            # exactly one surfaced copy of each, and no holes remain.
            assert outcome.delivery_ratio == 1.0
            assert outcome.members_short() == []
            assert all(not holes for holes in outcome.missing.values())
            for got in outcome.delivered.values():
                assert got == self.PAYLOADS
        else:
            # A hole may only exist where the transport audited it:
            # every remaining hole corresponds to an explicit give-up.
            # (A give-up can still be healed by a later heartbeat round,
            # so the reverse implication does not hold.)
            holes = sum(len(h) for h in outcome.missing.values())
            assert holes <= outcome.stats.gave_up
