"""MBus addressing: short prefixes, full prefixes, FU-IDs, broadcast.

Section 4.6 of the paper: an address is a *prefix* naming a physical
MBus interface plus a 4-bit *functional unit ID* (FU-ID) naming a
sub-component behind that interface.  Prefix 0x0 is reserved for
broadcast (the FU-ID is then a broadcast channel); short prefix 0xF
flags a 32-bit full address carrying a globally unique 20-bit full
prefix (Section 4.7).

Wire formats (most significant bit transmitted first):

* short address, 8 bits::

      [7:4] short prefix   [3:0] FU-ID

* full address, 32 bits::

      [31:28] 0xF   [27:8] full prefix   [7:4] reserved   [3:0] FU-ID
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional, Tuple

from repro.core import constants
from repro.core.errors import AddressError
from repro.core.schema import Document

BROADCAST_PREFIX = constants.BROADCAST_PREFIX_VALUE
FULL_ADDR_MARKER = constants.FULL_ADDR_MARKER_VALUE


class ShortPrefix(int):
    """A 4-bit short prefix (0x1 .. 0xE assignable; 0x0/0xF reserved)."""

    def __new__(cls, value: int) -> "ShortPrefix":
        if not 0 <= value <= 0xF:
            raise AddressError(f"short prefix {value:#x} outside 4-bit range")
        return super().__new__(cls, value)

    @property
    def is_broadcast(self) -> bool:
        return int(self) == BROADCAST_PREFIX

    @property
    def is_full_marker(self) -> bool:
        return int(self) == FULL_ADDR_MARKER

    @property
    def is_assignable(self) -> bool:
        """True for the 14 prefixes a member node may actually hold."""
        return not (self.is_broadcast or self.is_full_marker)


class FullPrefix(int):
    """A globally unique 20-bit full prefix (one per chip design)."""

    def __new__(cls, value: int) -> "FullPrefix":
        if not 0 <= value < (1 << constants.FULL_PREFIX_BITS):
            raise AddressError(f"full prefix {value:#x} outside 20-bit range")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class Address(Document):
    """A resolved MBus destination.

    Exactly one of ``short_prefix`` / ``full_prefix`` must be given.
    ``fu_id`` addresses the functional unit (or, for broadcast, names
    the broadcast channel).  A workload document carries it as its
    fields (:class:`~repro.core.schema.Document`).
    """

    fu_id: int = 0
    short_prefix: int = None
    full_prefix: int = None

    def __post_init__(self) -> None:
        if not 0 <= self.fu_id < (1 << constants.FU_ID_BITS):
            raise AddressError(f"FU-ID {self.fu_id:#x} outside 4-bit range")
        if (self.short_prefix is None) == (self.full_prefix is None):
            raise AddressError(
                "exactly one of short_prefix / full_prefix must be set"
            )
        if self.short_prefix is not None:
            prefix = ShortPrefix(self.short_prefix)
            if prefix.is_full_marker:
                raise AddressError(
                    "short prefix 0xF is reserved to flag full addresses"
                )
        else:
            FullPrefix(self.full_prefix)

    # -- classification ----------------------------------------------------
    @property
    def is_short(self) -> bool:
        return self.short_prefix is not None

    @property
    def is_broadcast(self) -> bool:
        return self.is_short and self.short_prefix == BROADCAST_PREFIX

    @property
    def n_bits(self) -> int:
        """Bits on the wire: 8 for short, 32 for full (Section 6.1)."""
        return (
            constants.SHORT_ADDR_BITS if self.is_short else constants.FULL_ADDR_BITS
        )

    # -- constructors --------------------------------------------------------
    @staticmethod
    def broadcast(channel: int) -> "Address":
        """A broadcast address on ``channel`` (Section 4.6)."""
        return Address(fu_id=channel, short_prefix=BROADCAST_PREFIX)

    @staticmethod
    def short(prefix: int, fu_id: int = 0) -> "Address":
        return Address(fu_id=fu_id, short_prefix=prefix)

    @staticmethod
    def full(prefix: int, fu_id: int = 0) -> "Address":
        return Address(fu_id=fu_id, full_prefix=prefix)

    # -- wire format ---------------------------------------------------------
    def encode(self) -> int:
        """Encode to the integer transmitted MSB-first on the DATA ring."""
        if self.is_short:
            return (self.short_prefix << 4) | self.fu_id
        return (
            (FULL_ADDR_MARKER << 28)
            | (self.full_prefix << 8)
            | self.fu_id
        )

    def bits(self) -> Tuple[int, ...]:
        """The address as a tuple of bits, MSB first."""
        word = self.encode()
        n = self.n_bits
        return tuple((word >> (n - 1 - i)) & 1 for i in range(n))

    def matches(
        self,
        short_prefix: Optional[int],
        full_prefix: Optional[int],
        broadcast_channels: Container[int],
    ) -> bool:
        """Would a node with these identifiers accept this address?

        The single matching predicate shared by the edge-accurate
        engine (MemberEngine) and the transaction-level planner, so
        the two backends can never resolve different receiver sets.
        """
        if self.is_broadcast:
            return self.fu_id in broadcast_channels
        if self.is_short:
            return (
                short_prefix is not None
                and self.short_prefix == short_prefix
            )
        return full_prefix is not None and self.full_prefix == full_prefix

    @staticmethod
    def decode(word: int, n_bits: int) -> "Address":
        """Decode a received address word of 8 or 32 bits."""
        if n_bits == constants.SHORT_ADDR_BITS:
            return Address(fu_id=word & 0xF, short_prefix=(word >> 4) & 0xF)
        if n_bits == constants.FULL_ADDR_BITS:
            marker = (word >> 28) & 0xF
            if marker != FULL_ADDR_MARKER:
                raise AddressError(
                    f"full address word {word:#010x} lacks 0xF marker"
                )
            return Address(
                fu_id=word & 0xF,
                full_prefix=(word >> 8) & ((1 << constants.FULL_PREFIX_BITS) - 1),
            )
        raise AddressError(f"addresses are 8 or 32 bits, not {n_bits}")

    def __str__(self) -> str:
        if self.is_broadcast:
            return f"broadcast(ch={self.fu_id})"
        if self.is_short:
            return f"short({self.short_prefix:#x}.{self.fu_id:#x})"
        return f"full({self.full_prefix:#07x}.{self.fu_id:#x})"
