"""Unit tests for messages, control codes, and byte alignment."""

import random

import pytest

from repro.core.addresses import Address
from repro.core.errors import ProtocolError
from repro.core.messages import (
    ControlCode,
    Message,
    bits_to_bytes,
    bytes_to_bits,
    pad_to_byte,
)


class TestControlCode:
    def test_paper_end_of_message_semantics(self):
        """Figure 7: transmitter drives bit0 high for a complete
        message; the receiver ACKs by driving bit1 low."""
        assert ControlCode.EOM_ACK.value == (1, 0)
        assert ControlCode.EOM_ACK.is_success

    def test_all_four_codes_distinct(self):
        values = {code.value for code in ControlCode}
        assert len(values) == 4

    def test_from_bits_roundtrip(self):
        for code in ControlCode:
            assert ControlCode.from_bits(*code.value) is code

    def test_from_bits_invalid(self):
        with pytest.raises(ProtocolError):
            ControlCode.from_bits(2, 0)

    def test_only_eom_ack_is_success(self):
        successes = [c for c in ControlCode if c.is_success]
        assert successes == [ControlCode.EOM_ACK]


class TestBitPacking:
    def test_bytes_to_bits_msb_first(self):
        assert bytes_to_bits(b"\x80") == (1, 0, 0, 0, 0, 0, 0, 0)
        assert bytes_to_bits(b"\x01") == (0, 0, 0, 0, 0, 0, 0, 1)

    def test_roundtrip(self):
        payload = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(payload)) == payload

    def test_bits_to_bytes_discards_partial_byte(self):
        """Receivers discard non-byte-aligned bits (Figure 7 note 4)."""
        bits = bytes_to_bits(b"\xAB") + (1, 0, 1)
        assert bits_to_bytes(bits) == b"\xAB"

    def test_conversions_equal_the_bit_loops(self):
        # The bit-by-bit loops the C-level conversions replaced.
        def reference_bits(payload):
            return tuple(
                (byte >> i) & 1 for byte in payload for i in range(7, -1, -1)
            )

        def reference_bytes(bits):
            out = bytearray()
            for i in range(0, len(bits) - len(bits) % 8, 8):
                byte = 0
                for bit in bits[i:i + 8]:
                    byte = (byte << 1) | bit
                out.append(byte)
            return bytes(out)

        rng = random.Random(7)
        # 0 to 2,048 bits, each count of trailing bits 0-7 alike.
        lengths = [0, 2048] + [
            8 * rng.randint(0, 255) + trailing
            for trailing in range(8) for _ in range(25)
        ]
        for n_bits in lengths:
            bits = [rng.getrandbits(1) for _ in range(n_bits)]
            packed = bits_to_bytes(bits)
            assert packed == reference_bytes(bits), n_bits
            assert bits_to_bytes(tuple(bits)) == packed
            assert bytes_to_bits(packed) == reference_bits(packed)
            assert bytes_to_bits(packed) == tuple(bits[:8 * len(packed)])
        assert bits_to_bytes(()) == b"" and bytes_to_bits(b"") == ()

    def test_pad_to_byte(self):
        assert pad_to_byte((1,) * 8) == (1,) * 8
        padded = pad_to_byte((1, 1, 1))
        assert len(padded) == 8
        assert padded[3:] == (0,) * 5

    def test_pad_never_exceeds_seven_bits(self):
        """Section 4.9: up to 7 bits of padding."""
        for n in range(1, 25):
            padding = len(pad_to_byte((1,) * n)) - n
            assert 0 <= padding <= 7


class TestMessage:
    def test_payload_must_be_bytes(self):
        with pytest.raises(ProtocolError):
            Message(dest=Address.short(2), payload="text")

    def test_data_bits_match_payload(self):
        message = Message(dest=Address.short(2), payload=b"\xF0\x0F")
        assert message.n_data_bits == 16
        assert message.data_bits() == bytes_to_bits(b"\xF0\x0F")

    def test_address_bits_forwarded(self):
        message = Message(dest=Address.full(0x12345, 1))
        assert len(message.address_bits()) == 32

    def test_empty_payload_allowed(self):
        message = Message(dest=Address.short(2))
        assert message.n_bytes == 0
        assert message.data_bits() == ()
