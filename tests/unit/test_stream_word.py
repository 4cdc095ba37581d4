"""The planner reads a transmitter's driven bit stream as one integer.

``_stream_word`` packs the address and payload bits MSB first into
``(word, n_bits)``; the planner takes the last driven bit with a shift
and the DATA transition count of a cut prefix from a popcount.  Both
must equal what the bit tuple gives — ``message.address_bits() +
message.data_bits()``, the stream the edge engine's bus controller
drives — for every address kind, payload length and cut.
"""

import random

from repro.core import Address, Message
from repro.core.tlm_engine import _stream_transitions, _stream_word


def tuple_transitions(bits):
    """DATA transitions while driving ``bits``: idle-high, then
    arbitration-low, then one per change between neighbours."""
    count, prev = 0, 1
    for value in (0,) + tuple(bits):
        count += value != prev
        prev = value
    return count


def messages():
    """Random short, full and broadcast messages of 0-12 bytes, then
    the runs a popcount must count exactly: all zeros, all ones and
    alternating payloads behind the shortest and longest addresses."""
    rng = random.Random(20)
    for _ in range(300):
        kind = rng.choice(("short", "full", "broadcast"))
        if kind == "short":
            dest = Address.short(rng.randrange(2, 15), rng.randrange(16))
        elif kind == "full":
            dest = Address.full(rng.randrange(1 << 20), rng.randrange(16))
        else:
            dest = Address.broadcast(rng.randrange(16))
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(13)))
        yield Message(dest, payload)
    for payload in (b"", b"\x00" * 4, b"\xff" * 4, b"\x55\xaa", b"\x80"):
        for dest in (Address.short(0x2), Address.full(0xFFFFF, 15)):
            yield Message(dest, payload)


def test_integer_stream_equals_the_driven_bit_tuple():
    for message in messages():
        bits = message.address_bits() + message.data_bits()
        word, n_bits = _stream_word(message)
        assert n_bits == len(bits)
        assert word < 1 << n_bits
        assert [
            (word >> (n_bits - 1 - i)) & 1 for i in range(n_bits)
        ] == list(bits)
        for m in range(n_bits + 1):
            assert _stream_transitions(word, n_bits, m) == (
                tuple_transitions(bits[:m])
            ), (message, m)
