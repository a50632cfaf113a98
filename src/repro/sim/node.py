"""Message-passing nodes on top of the event loop.

A :class:`Network` binds a :class:`~repro.net.eventloop.EventLoop` to a
:class:`~repro.net.topology.Topology`; nodes attach at topology hosts and
exchange messages that arrive after the topology's one-way delay.  This is
the substrate the secure-group application examples run on.

The delivery logic itself lives in :class:`repro.net.scheduling.
Transport` — the scheduling seam every backend shares — and
:class:`Network` is the simulator-flavoured adapter over it (see
:mod:`repro.sim.adapter`): it adds nothing but the ``simulator``
attribute name the orchestration layers address the loop by.

Faults: a :class:`~repro.faults.FaultPlan` installed with
:meth:`Network.install_faults` intercepts every send — it may drop the
message, add latency (delay/reorder), or deliver extra copies — and
models crash windows: a host that is down neither sends nor receives.
"""

from __future__ import annotations

from ..net.eventloop import EventLoop
from ..net.scheduling import MessageStats, Transport, TransportNode
from ..net.topology import Topology

__all__ = ["MessageStats", "Network", "Node"]


class Network(Transport):
    """Hosts exchanging messages over a topology with simulated delay."""

    def __init__(self, simulator: EventLoop, topology: Topology):
        super().__init__(simulator, topology)
        self.simulator = simulator


class Node(TransportNode):
    """A host attached to a network; subclass and override
    :meth:`on_message`."""

    def __init__(self, network: Network, host: int):
        super().__init__(network, host)
        self.network = network
