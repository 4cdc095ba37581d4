"""Messages, control codes, and byte alignment.

Section 4.9: every transaction ends with an interjection followed by a
two-cycle control sequence explaining *why* the bus was interjected.
The paper specifies the end-of-message case ("the transmitter signals
a complete message by driving Control Bit 0 high; the receiver ACKs
the message by driving Control Bit 1 low") and names a "General Error"
code for mediator-raised conditions (Figure 6); the remaining code is
used for receiver-initiated aborts, matching the released MBus
specification's layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.addresses import Address
from repro.core.errors import ProtocolError


class ControlCode(enum.Enum):
    """The two control bits latched at the end of every transaction.

    The tuple is ``(bit0, bit1)`` in transmission order.
    """

    EOM_ACK = (1, 0)        # complete message, receiver acknowledged
    EOM_NAK = (1, 1)        # complete message, receiver refused / absent
    GENERAL_ERROR = (0, 0)  # mediator-raised (null transaction, runaway)
    RX_ABORT = (0, 1)       # receiver interjected mid-message (e.g. overrun)

    @property
    def bit0(self) -> int:
        return self.value[0]

    @property
    def bit1(self) -> int:
        return self.value[1]

    @property
    def is_success(self) -> bool:
        return self is ControlCode.EOM_ACK

    @staticmethod
    def from_bits(bit0: int, bit1: int) -> "ControlCode":
        code = _CODE_BY_BITS.get((bit0, bit1))
        if code is None:
            raise ProtocolError(f"no control code for bits ({bit0}, {bit1})")
        return code


_CODE_BY_BITS = {code.value: code for code in ControlCode}


def pad_to_byte(bits: Tuple[int, ...]) -> Tuple[int, ...]:
    """Pad a bit sequence with zeros up to the next byte boundary.

    Section 4.9: interjection requests make nodes observe a varying
    number of clock edges, so MBus requires byte-aligned messages,
    "potentially requiring a small amount (up to 7 bits) of padding".
    """
    remainder = len(bits) % 8
    if remainder == 0:
        return tuple(bits)
    return tuple(bits) + (0,) * (8 - remainder)


#: ``bytes.translate`` tables between bit values and the ASCII binary
#: digits ``int`` reads and ``format`` writes, so a payload converts in
#: C instead of bit by bit.
_BIT_DIGITS = bytes(ord("0") | (value & 1) for value in range(256))
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def bytes_to_bits(payload: bytes) -> Tuple[int, ...]:
    """Expand bytes into bits, MSB first, as driven on the DATA ring."""
    if not payload:
        return ()
    digits = format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")
    return tuple(digits.encode("ascii").translate(_DIGIT_BITS))


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack byte-aligned bits back into bytes (MSB first).

    Trailing bits beyond the last byte boundary are discarded, exactly
    as a receiver discards non-byte-aligned bits after an interjection
    (Figure 7, note 4).
    """
    n_bytes = len(bits) // 8
    if not n_bytes:
        return b""
    digits = bytes(bits[: 8 * n_bytes]).translate(_BIT_DIGITS)
    return int(digits, 2).to_bytes(n_bytes, "big")


@dataclass(frozen=True)
class Message:
    """One MBus message: destination address plus a byte payload."""

    dest: Address
    payload: bytes = b""
    priority: bool = False   # request the priority arbitration slot (4.3)

    def __post_init__(self) -> None:
        if not isinstance(self.payload, (bytes, bytearray)):
            raise ProtocolError("payload must be bytes")
        # Immutable bytes: round keys hash the message, and a caller
        # may reuse its bytearray once the message is posted.
        object.__setattr__(self, "payload", bytes(self.payload))

    @property
    def n_bytes(self) -> int:
        return len(self.payload)

    @property
    def n_data_bits(self) -> int:
        return 8 * len(self.payload)

    def data_bits(self) -> Tuple[int, ...]:
        return bytes_to_bits(self.payload)

    def address_bits(self) -> Tuple[int, ...]:
        return self.dest.bits()


@dataclass(slots=True)
class ReceivedMessage:
    """What a layer controller sees after a successful reception."""

    source_hint: str          # simulator-side provenance (not on the wire)
    dest: Address
    payload: bytes
    broadcast: bool = False
    control: ControlCode = ControlCode.EOM_ACK
    arrived_at_ps: int = 0
