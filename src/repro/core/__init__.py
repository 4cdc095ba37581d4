"""MBus core: the paper's primary contribution.

Two complementary models live here:

* An **edge-accurate model** (:class:`~repro.core.bus.MBusSystem`)
  built on :mod:`repro.sim`: every CLK/DATA transition of the two
  shoot-through rings is simulated, including arbitration, priority
  arbitration, hierarchical wakeup, interjection and control — the
  behaviour shown in Figures 3, 5, 6 and 7 of the paper.  (The clock
  cycles of a transfer that no node or one transmitter drives are
  advanced in bulk, counting the same events; see
  :class:`~repro.core.bus.QuietRing`.)
* An **analytic transaction model**
  (:mod:`repro.core.transaction`) implementing the paper's closed
  forms — 19/43 + 8·n cycle counts and the per-message energy formula
  of Section 6.2 — used for the large parameter sweeps in the
  benchmark harness and cross-validated against the edge-accurate
  model by the test suite.
"""

from repro.core.addresses import (
    Address,
    BROADCAST_PREFIX,
    FULL_ADDR_MARKER,
    FullPrefix,
    ShortPrefix,
)
from repro.core.bus import MBusSystem, TransactionResult
from repro.core.constants import MBusTiming, ProtocolOverheads
from repro.core.errors import (
    AddressError,
    BusLockedError,
    ConfigurationError,
    MBusError,
    ProtocolError,
)
from repro.core.fairness import RotatingPriority, fairness_index
from repro.core.messages import ControlCode, Message
from repro.core.monitor import ProtocolMonitor, Violation
from repro.core.node import MBusNode, NodeConfig, PowerDomain
from repro.core.resumable import ResumableReceiver, ResumableSender
from repro.core.transaction import TransactionModel

__all__ = [
    "Address",
    "BROADCAST_PREFIX",
    "FULL_ADDR_MARKER",
    "FullPrefix",
    "ShortPrefix",
    "MBusSystem",
    "TransactionResult",
    "MBusTiming",
    "ProtocolOverheads",
    "MBusError",
    "AddressError",
    "ProtocolError",
    "BusLockedError",
    "ConfigurationError",
    "ControlCode",
    "Message",
    "MBusNode",
    "NodeConfig",
    "PowerDomain",
    "TransactionModel",
    "RotatingPriority",
    "fairness_index",
    "ProtocolMonitor",
    "Violation",
    "ResumableReceiver",
    "ResumableSender",
]
