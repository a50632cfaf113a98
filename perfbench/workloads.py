"""The four benchmark workloads.

Every workload is a closed loop in one thread: the next pass starts only
when the previous one has returned.  A workload (see :class:`Workload`)
builds its inputs in ``setup(seed)``, runs pass ``i`` in ``op(state, i)``
and checks each pass in ``check`` outside its timed region.

``units`` is how many *operations* (the unit of ``attempted``) one pass
holds: fig7 counts replications, fig12 grid points, service_rekey
intervals, service_maintenance rounds.  ``passes_per_s`` turns
``--seconds`` into a fixed pass count (about that many seconds of passes
on the machine the baseline was measured on), so two commits always
measure the same inputs however fast each one is.

Sizes come from :data:`SIZES`; ``"full"`` is what the benchmark runs and
``"tiny"`` is for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.experiments import common, latency_experiments, rekey_cost
from repro.experiments.config import current_scale
from repro.service import RekeyService
from repro.service.server import expected_intervals

#: Per-size parameters.  ``full`` follows the benchmark's definition;
#: ``tiny`` only exists so the benchmark's tests finish in seconds.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "fig7_users": 256,
        "fig12_users": 256,
        "rekey_members": 128,
        "maintenance_members": 48,
        "joins": 4,
        # service_rekey joins hosts that were never members: enough
        # for 80 intervals.
        "rekey_fresh_hosts": 320,
    },
    "tiny": {
        "fig7_users": 32,
        "fig12_users": 24,
        "rekey_members": 12,
        "maintenance_members": 8,
        "joins": 2,
        "rekey_fresh_hosts": 160,
    },
}

#: The network every fig12 and service run shares: the GT-ITM topology
#: drawn from this seed.  ``--seed`` draws what happens on it (grid
#: runs, membership, join order, joiners).  With a topology per seed,
#: the service moved 1.7k to 3.0k frames an interval depending on the
#: seed alone; on one topology, 2.4k to 2.5k.  Fig. 7 keeps a topology
#: per pass, as ``run_latency_experiment`` draws it from its seed.
TOPOLOGY_SEED = 7

#: Virtual length of one rekey interval (ms), as in the soak harness.
INTERVAL_MS = 512.0
#: Virtual spacing of the initial joins during admission (ms).
ADMISSION_SPACING_MS = 40.0


def op_seed(seed: int, i: int) -> int:
    """The input seed of pass ``i`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0] >> 1)


@dataclass
class OpResult:
    """One pass: its output plus what the loop measured around it."""

    output: Any = None
    #: The latency the workload's user waits for (s); defaults to the
    #: whole pass.
    latency_s: Optional[float] = None
    frames: int = 0
    #: service_rekey: the whole interval (s), churn included.
    interval_s: Optional[float] = None


class Workload:
    """Defaults for the optional steps; subclasses define ``name``,
    ``units``, ``setup_repeats``, ``passes_per_s``, ``setup``, ``op``,
    ``check`` and ``corrupt``."""

    def pre_check(self, state: Dict[str, Any]) -> int:
        """Failed operations found before the first pass."""
        return 0

    def verify(self, state: Dict[str, Any], i: int, result: OpResult) -> int:
        """Failed operations found by re-checking pass ``i`` after the
        loop (the expensive check, run once)."""
        return 0

    def final_check(self, state: Dict[str, Any]) -> int:
        """Failed operations found after the last pass."""
        return 0

    def local_deliveries(self, state: Dict[str, Any]) -> int:
        """The transport's in-process deliveries so far (service only)."""
        return 0

    def close(self, state: Dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
# Figure experiments
# ----------------------------------------------------------------------
def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Fig7(Workload):
    """Fig. 7: ``run_latency_experiment("Fig 7", "gtitm", N, mode="rekey")``.

    One pass is one experiment call with :attr:`replications`
    replications on a topology and join orders drawn from the pass seed.
    """

    name = "fig7"
    replications = 1
    setup_repeats = 3
    passes_per_s = 1.4

    def __init__(self, size: str = "full"):
        self.users = SIZES[size]["fig7_users"]
        self.units = self.replications

    def setup(self, seed: int) -> Dict[str, Any]:
        # The experiment builds its own topology from the pass seed; set-up
        # builds pass 0's once so lazy imports on that path (scipy's
        # shortest paths) have happened before timing starts.
        common.build_topology("gtitm", self.users, op_seed(seed, 0))
        return {"seed": seed}

    def run(self, pass_seed: int):
        return latency_experiments.run_latency_experiment(
            "Fig 7",
            "gtitm",
            self.users,
            mode="rekey",
            runs=self.replications,
            seed=pass_seed,
        )

    def op(self, state: Dict[str, Any], i: int) -> OpResult:
        return OpResult(self.run(op_seed(state["seed"], i)))

    def digest(self, cmp) -> str:
        return _digest(
            *(
                getattr(getattr(cmp, scheme), metric).mean
                for scheme in ("tmesh", "nice")
                for metric in ("stress", "app_delay", "rdp")
            )
        )

    def check(self, state: Dict[str, Any], result: OpResult) -> int:
        """Every user is reached (one ranked sample per user), delays are
        positive and finite, and no overlay path beats the unicast path
        (RDP >= 1)."""
        cmp = result.output
        for scheme in (cmp.tmesh, cmp.nice):
            for ranked in (scheme.stress, scheme.app_delay, scheme.rdp):
                if len(ranked.mean) != self.users or not np.all(
                    np.isfinite(ranked.mean)
                ):
                    return self.units
            if not (
                np.all(scheme.app_delay.mean > 0)
                and np.all(scheme.rdp.mean >= 1.0 - 1e-9)
                and np.all(scheme.stress.mean >= 0)
            ):
                return self.units
        return 0

    def verify(self, state: Dict[str, Any], i: int, result: OpResult) -> int:
        """Re-run pass ``i`` under ``repro.verify.verification()``: no
        invariant may break and the output must be bit-identical."""
        return _verified_rerun(
            self, lambda: self.run(op_seed(state["seed"], i)), result
        )

    def corrupt(self, state: Dict[str, Any], result: OpResult) -> None:
        result.output.tmesh.rdp.mean[0] = 0.5


def _verified_rerun(workload, rerun, result: OpResult) -> int:
    from repro.verify import InvariantViolation, verification

    try:
        with verification():
            again = rerun()
    except InvariantViolation:
        return workload.units
    same = workload.digest(again) == workload.digest(result.output)
    return 0 if same else workload.units


class Fig12(Workload):
    """Fig. 12: ``run_rekey_cost`` with N members on the default grid of
    the ``small`` scale.  One pass is one call (one run, every grid
    point) with the pass seed, on the fixed topology, as the paper keeps
    its topology across runs."""

    name = "fig12"
    setup_repeats = 3
    passes_per_s = 0.27

    def __init__(self, size: str = "full"):
        self.users = SIZES[size]["fig12_users"]
        self.grid = rekey_cost.default_grid(
            self.users, current_scale().rekey_cost_grid
        )
        self.units = len(self.grid)

    def setup(self, seed: int) -> Dict[str, Any]:
        topology = common.build_topology("gtitm", self.users, TOPOLOGY_SEED)
        return {"seed": seed, "topology": topology}

    def run(self, state: Dict[str, Any], pass_seed: int):
        return rekey_cost.run_rekey_cost(
            self.users,
            grid=self.grid,
            runs=1,
            seed=pass_seed,
            topology=state["topology"],
        )

    def op(self, state: Dict[str, Any], i: int) -> OpResult:
        return OpResult(self.run(state, op_seed(state["seed"], i)))

    def digest(self, surface) -> str:
        return _digest(
            np.array(
                [
                    (p.joins, p.leaves, p.modified, p.original, p.cluster)
                    for p in surface.points
                ]
            )
        )

    def check(self, state: Dict[str, Any], result: OpResult) -> int:
        """One point per grid cell, each cost a whole non-negative number
        of encryptions (one run per point); no churn costs nothing, and
        admitting joiners costs the modified and original trees at least
        one encryption."""
        failed = 0
        points = {(p.joins, p.leaves): p for p in result.output.points}
        for cell in self.grid:
            p = points.get(cell)
            if p is None:
                failed += 1
                continue
            costs = (p.modified, p.original, p.cluster)
            ok = all(np.isfinite(c) and c >= 0 and c == int(c) for c in costs)
            if cell == (0, 0):
                ok = ok and costs == (0.0, 0.0, 0.0)
            elif cell[0] > 0:
                ok = ok and p.modified >= 1 and p.original >= 1
            failed += 0 if ok else 1
        return failed

    def verify(self, state: Dict[str, Any], i: int, result: OpResult) -> int:
        """As :meth:`Fig7.verify`."""
        return _verified_rerun(
            self, lambda: self.run(state, op_seed(state["seed"], i)), result
        )

    def corrupt(self, state: Dict[str, Any], result: OpResult) -> None:
        result.output.points.pop()


# ----------------------------------------------------------------------
# The live service
# ----------------------------------------------------------------------
def start_service(seed: int, members: int, spare: int) -> Dict[str, Any]:
    """A :class:`RekeyService` over loopback sockets with ``members``
    admitted through the join protocol and converged.  Hosts
    ``0..members+spare-1`` are member hosts (``unused_hosts`` lists the
    ones not admitted, in seeded order); the last host is the key
    server."""
    topology = common.build_topology("gtitm", members + spare, TOPOLOGY_SEED)
    server_host = common.server_host_of(topology)
    service = RekeyService(topology, server_host=server_host, seed=seed)
    service.start()
    if not service.use_sockets:
        service.stop()
        raise RuntimeError("loopback sockets are unavailable")
    rng = np.random.default_rng(seed)
    order = [int(h) for h in rng.permutation(members + spare)]
    hosts, rest = order[:members], order[members:]
    for j, host in enumerate(hosts):
        service.join(host, delay=1.0 + ADMISSION_SPACING_MS * j)
    service.end_interval(
        delay=1.0 + ADMISSION_SPACING_MS * members + INTERVAL_MS
    )
    service.drain()
    service.converge()
    return {"service": service, "rng": rng, "unused_hosts": rest}


#: Virtual time the interval's multicast needs to reach every member.
DELIVERY_WINDOW_MS = INTERVAL_MS
#: Virtual time a stepped drain advances before it waits for the wire.
DRAIN_STEP_MS = INTERVAL_MS / 16
#: Real seconds a stepped drain waits for frames before giving up.
WIRE_WAIT_S = 10.0


def _drain_in_step(service: RekeyService, until: float) -> None:
    """``drain(until=...)`` in steps of :data:`DRAIN_STEP_MS`, waiting
    after each step until no frame is left on the wire.

    On the virtual clock a drain fires timers without waiting for frames
    in flight, so a far timer (a 5 s retry, a probe timeout) can fire
    before a multicast copy dispatched earlier has been read off its
    socket.  Stepping keeps virtual time within one step of the wire."""
    step = service.scheduler.now
    while step < until:
        step = min(step + DRAIN_STEP_MS, until)
        service.drain(until=step)
        deadline = time.perf_counter() + WIRE_WAIT_S
        while service.scheduler.inflight:
            if time.perf_counter() > deadline:
                raise RuntimeError("frames stayed on the wire past WIRE_WAIT_S")
            service.drain(until=step)


class _ServiceWorkload(Workload):
    units = 1

    def local_deliveries(self, state: Dict[str, Any]) -> int:
        return state["service"].transport.local_deliveries

    def close(self, state: Dict[str, Any]) -> None:
        state["service"].stop()


class ServiceRekey(_ServiceWorkload):
    """Rekey intervals through a live :class:`RekeyService` on the
    virtual clock: per interval, one recovery round, seeded joins, the
    interval end, and a drain to quiescence.

    The group grows by :attr:`joins` members an interval.  It does not
    also lose members: with seeded leaves (:attr:`leaves` > 0), some
    intervals miss members through defects in the leave and recovery
    paths (README.md, "Defects found"), and a benchmark run must not
    fail.  ``tests/test_perfbench.py`` pins that failure."""

    name = "service_rekey"
    # Admission plus convergence of 128 members takes ~15 s; once is all
    # a run can afford.
    setup_repeats = 1
    passes_per_s = 2.0
    #: Seeded leaves per interval; see the class docstring.
    leaves = 0

    def __init__(self, size: str = "full"):
        self.members = SIZES[size]["rekey_members"]
        self.spare = SIZES[size]["rekey_fresh_hosts"]
        self.joins = SIZES[size]["joins"]

    def setup(self, seed: int) -> Dict[str, Any]:
        return start_service(seed, self.members, self.spare)

    def op(self, state: Dict[str, Any], i: int) -> OpResult:
        service: RekeyService = state["service"]
        rng: np.random.Generator = state["rng"]
        transport = service.transport
        frames_before = transport.frames_sent
        started = time.perf_counter()
        active = sorted(u.host for u in service.world.active_users())
        leavers = [active[int(k)] for k in rng.choice(len(active), self.leaves, replace=False)]
        # Joiners are hosts that were never members, as in a population
        # much larger than the group.
        unused = state["unused_hosts"]
        if len(unused) < self.joins:
            raise RuntimeError("service_rekey ran out of never-used hosts")
        joiners, unused[:] = unused[: self.joins], unused[self.joins :]
        # Recovery runs first, so every request reaches the key server
        # long before the interval ends (README.md, "Defects found");
        # leaves wait until its responses are in.
        service.recovery_round()
        for host in leavers:
            service.leave(host, delay=float(rng.uniform(0.5, 0.6) * INTERVAL_MS))
        for host in joiners:
            service.join(host, delay=float(rng.uniform(0, 0.6) * INTERVAL_MS))
        interval_end = service.scheduler.now + INTERVAL_MS
        service.end_interval(delay=INTERVAL_MS)
        # Everything due before the interval-end timer, then time the
        # rekey itself to quiescence (see _drain_in_step).
        _drain_in_step(service, interval_end - 1e-6)
        timer_due = time.perf_counter()
        _drain_in_step(service, interval_end + DELIVERY_WINDOW_MS)
        service.drain()
        done = time.perf_counter()
        return OpResult(
            output=service.world.server.interval - 1,
            latency_s=done - timer_due,
            frames=transport.frames_sent - frames_before,
            interval_s=done - started,
        )

    def check(self, state: Dict[str, Any], result: OpResult) -> int:
        """Each member the interval should reach holds exactly one copy.

        Those members are the ones ``expected_intervals`` owes interval
        ``k`` that had not departed before it.  A member whose join and
        departure are announced by the same interval is not among them:
        it was never a member, and a leaving node detaches on the first
        update it recovers, so it holds no copy of ``k``."""
        world = state["service"].world
        k = result.output
        if not state["service"].quiescent:
            return 1
        departed: Dict[Any, int] = {}
        for log in world.intervals:
            for uid in log.update.leaves:
                departed.setdefault(uid, log.update.interval)
        should_reach = {
            uid
            for uid, intervals in expected_intervals(world).items()
            if k in intervals
            and departed.get(uid, k + 1) >= k
            and not (departed.get(uid) == k and min(intervals) == k)
        }
        report = world.delivery_report(k)
        missing = should_reach - report["received"]
        duplicated = should_reach & set(report["duplicates"])
        return 1 if (missing or duplicated or not should_reach) else 0

    def corrupt(self, state: Dict[str, Any], result: OpResult) -> None:
        """Give one reached member a second copy of the interval."""
        world = state["service"].world
        member = next(
            u for u in world.active_users() if result.output in u.copies_received
        )
        member.copies_received.append(result.output)

    def final_check(self, state: Dict[str, Any]) -> int:
        from repro.verify import InvariantViolation, VerificationContext

        try:
            VerificationContext(oracle=False).observe_key_tree(
                state["service"].world.server.key_tree
            )
        except InvariantViolation:
            return 1
        return 0


class ServiceMaintenance(Workload):
    """Table upkeep in converged live groups: one pass is one probe
    round plus one refill sweep in each of :attr:`groups` groups, each
    drained to quiescence.

    The rounds of one group repeat exactly, but their size depends on
    the seed: 45k to 58k frames a round over ten seeds, and the round
    time follows the frame count.  A pass therefore covers
    :attr:`groups` groups drawn from sub-seeds of ``--seed``, and every
    group has all the hosts of the topology as members, so the seed
    draws the join order and the service's own choices, not which hosts
    belong."""

    name = "service_maintenance"
    groups = 2
    setup_repeats = 1
    passes_per_s = 0.16

    def __init__(self, size: str = "full"):
        self.members = SIZES[size]["maintenance_members"]
        self.units = self.groups

    def setup(self, seed: int) -> Dict[str, Any]:
        groups = []
        for g in range(self.groups):
            group = start_service(op_seed(seed, g), self.members, 0)
            group["round_frames"] = None
            groups.append(group)
        return {"groups": groups}

    def pre_check(self, state: Dict[str, Any]) -> int:
        """Converged and passing ``checkpoint()`` before the first round."""
        return sum(self._audit(g["service"]) for g in state["groups"])

    @staticmethod
    def _audit(service: RekeyService) -> int:
        from repro.verify import InvariantViolation

        if service.world.check_one_consistency():
            return 1
        try:
            service.checkpoint()
        except InvariantViolation:
            return 1
        return 0

    def op(self, state: Dict[str, Any], i: int) -> OpResult:
        started = time.perf_counter()
        frames = 0
        for group in state["groups"]:
            service: RekeyService = group["service"]
            frames_before = service.transport.frames_sent
            service.probe_round()
            service.refill_sweep(delay=0.5 * INTERVAL_MS)
            service.drain()
            group["last_frames"] = service.transport.frames_sent - frames_before
            frames += group["last_frames"]
        return OpResult(
            latency_s=(time.perf_counter() - started) / self.groups,
            frames=frames,
        )

    def check(self, state: Dict[str, Any], result: OpResult) -> int:
        """Quiescent, and every round of a group moves the same number of
        frames (the group is converged, so probes and empty refills
        repeat)."""
        failed = 0
        for group in state["groups"]:
            if group["round_frames"] is None:
                group["round_frames"] = group["last_frames"]
            ok = (
                group["service"].quiescent
                and group["last_frames"] == group["round_frames"]
            )
            failed += 0 if ok else 1
        return failed

    def corrupt(self, state: Dict[str, Any], result: OpResult) -> None:
        """Empty one table entry of one member: the group is no longer
        converged, and the next sweep sends an extra refill query."""
        service = state["groups"][0]["service"]
        table = service.world.active_users()[0].table
        slot = table.slot_for(next(table.all_records()))
        for record in list(table.entry(*slot)):
            table.remove(record.user_id)

    def final_check(self, state: Dict[str, Any]) -> int:
        """Still converged and passing ``checkpoint()`` after the last."""
        return sum(self._audit(g["service"]) for g in state["groups"])

    def local_deliveries(self, state: Dict[str, Any]) -> int:
        return sum(g["service"].transport.local_deliveries for g in state["groups"])

    def close(self, state: Dict[str, Any]) -> None:
        for group in state["groups"]:
            group["service"].stop()


WORKLOADS = {
    w.name: w for w in (Fig7, Fig12, ServiceRekey, ServiceMaintenance)
}
