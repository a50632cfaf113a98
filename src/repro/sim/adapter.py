"""The ``"simulator"`` scheduling backend: the virtual-clock
:class:`~repro.net.eventloop.EventLoop` behind a
:class:`~repro.sim.node.Network`.

The adapter is deliberately thin — :class:`~repro.sim.node.Network`
subclasses the shared :class:`~repro.net.scheduling.Transport` fabric
without overriding its delivery logic, so the backend differs from
``"eventloop"`` only in the ``simulator`` attribute name the
orchestration layers (:class:`~repro.distributed.harness.
DistributedGroup`, :class:`~repro.alm.reliable.ReliableSession`, whose
default backend it is) address the loop by.  The committed golden
traces (``tests/fixtures/trace_*.jsonl``), the fixed-seed oracle suite
(``tools/check_invariants.py``) and the cross-backend conformance suite
hold it to the same observable behaviour as every other backend.
"""

from __future__ import annotations

from ..net.eventloop import EventLoop
from ..net.scheduling import SchedulingBackend, register_backend
from ..net.topology import Topology
from .node import Network


def simulator_backend(topology: Topology) -> SchedulingBackend:
    """A fresh :class:`EventLoop` plus a :class:`Network` bound to it."""
    loop = EventLoop()
    return SchedulingBackend("simulator", loop, Network(loop, topology))


register_backend("simulator", simulator_backend)
