"""Protocol constants and timing parameters.

Everything here is traceable to a specific statement in the paper;
the section reference is given next to each constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.sim.scheduler import NS

# --------------------------------------------------------------------------
# Protocol structure (Section 6.1: "MBus transactions require arbitration
# (3 cycles), addressing (8 or 32 cycles), interjection (5 cycles), and
# control (3 cycles), an overhead of 19 or 43 cycles").
# --------------------------------------------------------------------------
ARBITRATION_CYCLES = 3
ADDR_CYCLES_SHORT = 8
ADDR_CYCLES_FULL = 32
INTERJECTION_CYCLES = 5
CONTROL_CYCLES = 3

OVERHEAD_CYCLES_SHORT = (
    ARBITRATION_CYCLES + ADDR_CYCLES_SHORT + INTERJECTION_CYCLES + CONTROL_CYCLES
)
OVERHEAD_CYCLES_FULL = (
    ARBITRATION_CYCLES + ADDR_CYCLES_FULL + INTERJECTION_CYCLES + CONTROL_CYCLES
)
assert OVERHEAD_CYCLES_SHORT == 19
assert OVERHEAD_CYCLES_FULL == 43

# --------------------------------------------------------------------------
# Addressing (Sections 4.6, 4.7).
# --------------------------------------------------------------------------
SHORT_PREFIX_BITS = 4
FULL_PREFIX_BITS = 20
FU_ID_BITS = 4
SHORT_ADDR_BITS = SHORT_PREFIX_BITS + FU_ID_BITS            # 8
FULL_ADDR_BITS = 32                                          # RX_ADDR[31:0]
BROADCAST_PREFIX_VALUE = 0x0       # prefix 0 reserved for broadcast
FULL_ADDR_MARKER_VALUE = 0xF       # short prefix 0xF flags a full address
USABLE_SHORT_PREFIXES = 14         # 16 minus broadcast minus 0xF marker
GLOBAL_ADDRESS_SPACE = 2 ** (FULL_PREFIX_BITS + FU_ID_BITS)  # 2^24 (Table 1)

# --------------------------------------------------------------------------
# Wakeup (Section 3, "Power-Aware": four successive edges).
# --------------------------------------------------------------------------
WAKEUP_EDGES = 4
WAKEUP_STEPS = ("power_gate", "clock", "isolation", "reset")

# --------------------------------------------------------------------------
# Policy (Section 7).
# --------------------------------------------------------------------------
MIN_PROGRESS_BYTES = 4             # arbitration winner may send >= 4 bytes
MIN_MAX_MESSAGE_BYTES = 1024       # runaway watchdog: minimum maximum length


def clamp_max_message_bytes(n_bytes: int) -> int:
    """Runaway-watchdog limit floor (Section 7), shared by both
    backends so the cutoff can never diverge between modes."""
    return max(n_bytes, MIN_MAX_MESSAGE_BYTES)


#: Settle delay between a node observing a transaction boundary and it
#: acting (re-requesting, pulsing, auto-sleeping), in node delays.
#: Shared by MBusNode._settle_ps and the transaction-level planner so
#: the two backends agree on inter-transaction spacing.
NODE_SETTLE_FACTOR = 4

# --------------------------------------------------------------------------
# Physical timing (Section 6.1: max node-to-node delay 10 ns; Section
# 6.3.2: implemented clock tunable 10 kHz .. 6.67 MHz, default 400 kHz).
# --------------------------------------------------------------------------
MAX_NODE_TO_NODE_DELAY_NS = 10
DEFAULT_CLOCK_HZ = 400_000
MIN_CLOCK_HZ = 10_000
MAX_IMPLEMENTED_CLOCK_HZ = 6_670_000
MAX_SHORT_ADDRESSED_NODES = 14

# Interjection detector: DATA toggles counted while CLK is held high
# (Section 4.9, "a saturating counter clocked by DATA and reset by CLK").
INTERJECTION_DETECT_TOGGLES = 3


@dataclass(frozen=True)
class ProtocolOverheads:
    """Cycle overheads for one MBus transaction (Section 6.1)."""

    arbitration: int = ARBITRATION_CYCLES
    addressing_short: int = ADDR_CYCLES_SHORT
    addressing_full: int = ADDR_CYCLES_FULL
    interjection: int = INTERJECTION_CYCLES
    control: int = CONTROL_CYCLES

    def total(self, full_address: bool = False) -> int:
        """Total non-data cycles: 19 short / 43 full."""
        addressing = self.addressing_full if full_address else self.addressing_short
        return self.arbitration + addressing + self.interjection + self.control


@dataclass(frozen=True)
class MBusTiming:
    """Physical timing configuration for the edge-accurate simulator.

    The default clock is deliberately slow relative to the ring delay
    (as in the real 400 kHz systems of Section 6.3) so that functional
    behaviour is insensitive to propagation skew; the analytic maximum
    frequency model lives in :mod:`repro.timing.ring_timing`.
    """

    clock_hz: float = DEFAULT_CLOCK_HZ
    node_delay_ps: int = MAX_NODE_TO_NODE_DELAY_NS * NS
    drive_delay_ps: int = 1 * NS        # pad driver turn-on
    mediator_wakeup_ps: int = 2_000 * NS  # mediator self-start latency
    #: Interjection-detector depth (DATA toggles while CLK high).
    interjection_threshold: int = INTERJECTION_DETECT_TOGGLES

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")
        if self.node_delay_ps <= 0:
            raise ValueError("node_delay_ps must be positive")

    # Computed once per instance (the mediator reads the half period
    # on every clock edge); a clock change builds a new instance via
    # dataclasses.replace, which starts with empty caches.
    @functools.cached_property
    def period_ps(self) -> int:
        """Full bus clock period in picoseconds."""
        return int(round(1e12 / self.clock_hz))

    @functools.cached_property
    def half_period_ps(self) -> int:
        return self.period_ps // 2

    def ring_delay_ps(self, n_nodes: int) -> int:
        """Worst-case propagation once around a ring of ``n_nodes``.

        Deliberately a bare multiply: a per-count memo dict was
        benchmarked here and lost (dict lookup + branch costs ~2x the
        integer multiplication it would avoid).
        """
        return n_nodes * self.node_delay_ps
