"""Message-passing nodes over the virtual-clock event loop, and the
``"simulator"`` backend of the :mod:`repro.net.scheduling` seam."""

from .adapter import simulator_backend
from .node import MessageStats, Network, Node

__all__ = [
    "MessageStats",
    "Network",
    "Node",
    "simulator_backend",
]
