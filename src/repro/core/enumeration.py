"""Run-time enumeration: assigning short prefixes (Section 4.7).

Enumeration is a series of broadcast messages.  A controller (in
practice the microcontroller) broadcasts an ENUMERATE command carrying
a candidate short prefix; every unassigned node attempts to reply with
an identification message carrying its unique 20-bit full prefix; the
arbitration winner takes the candidate prefix.  As the paper notes, a
node's resulting short prefix therefore encodes its topological
priority.

Enumeration is optional: devices may self-assign static prefixes and
skip it when there are no conflicts — but two copies of the same chip
design (identical full prefixes) *require* enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import constants
from repro.core.addresses import Address
from repro.core.bus import MBusSystem
from repro.core.errors import ProtocolError
from repro.core.messages import Message, ReceivedMessage
from repro.core.node import MBusNode

#: Broadcast channel assignments used across this reproduction.
CHANNEL_CONFIG = 0
CHANNEL_ENUMERATION = 1

CMD_ENUMERATE = 0x01
CMD_ID_REPLY = 0x02
CMD_INVALIDATE = 0x03


@dataclass
class EnumerationAgent:
    """Per-node hardware behaviour for the enumeration protocol.

    Attach one agent to every node that should participate.  The agent
    listens on the enumeration broadcast channel, replies to ENUMERATE
    when its node is unassigned, withdraws its reply when another node
    wins, and claims the candidate prefix when its own reply succeeds.
    """

    node: MBusNode
    assigned_prefix: Optional[int] = None
    _candidate: Optional[int] = None
    _replying: bool = False

    def __post_init__(self) -> None:
        self.assigned_prefix = self.node.config.short_prefix
        channels = set(self.node.config.broadcast_channels)
        channels.add(CHANNEL_ENUMERATION)
        self.node.config.broadcast_channels = frozenset(channels)
        self.node.layer.register_broadcast_handler(
            CHANNEL_ENUMERATION, self._on_channel
        )
        previous = self.node.on_result
        self.node.on_result = self._chain_result(previous)

    # -- message handling -------------------------------------------------
    def _on_channel(self, message: ReceivedMessage) -> None:
        if not message.payload:
            return
        command = message.payload[0]
        if command == CMD_ENUMERATE:
            self._on_enumerate(message.payload[1])
        elif command == CMD_ID_REPLY:
            self._on_id_reply()
        elif command == CMD_INVALIDATE:
            self._on_invalidate(message.payload[1])

    def _on_enumerate(self, candidate: int) -> None:
        if self.assigned_prefix is not None:
            return
        self._candidate = candidate
        self._replying = True
        full_prefix = self.node.config.full_prefix or 0
        payload = bytes([CMD_ID_REPLY]) + full_prefix.to_bytes(3, "big")
        # Replies race via normal arbitration (Section 4.7).
        self.node.post(
            Message(dest=Address.broadcast(CHANNEL_ENUMERATION), payload=payload)
        )

    def _on_id_reply(self) -> None:
        """Another node's reply got through first: withdraw ours."""
        if self._replying:
            self._withdraw()

    def _on_invalidate(self, prefix: int) -> None:
        if self.assigned_prefix == prefix:
            self.assigned_prefix = None
            self.node.config.short_prefix = None

    def _withdraw(self) -> None:
        self._replying = False
        self._candidate = None
        pending = self.node.engine.pending
        for message in list(pending):
            if message.payload[:1] == bytes([CMD_ID_REPLY]):
                pending.remove(message)

    # -- claiming the prefix --------------------------------------------------
    def _chain_result(self, previous):
        def _on_result(node: MBusNode, outcome) -> None:
            if (
                self._replying
                and outcome.message.payload[:1] == bytes([CMD_ID_REPLY])
            ):
                if outcome.success:
                    self.assigned_prefix = self._candidate
                    self.node.config.short_prefix = self._candidate
                self._replying = False
                self._candidate = None
            if previous is not None:
                previous(node, outcome)

        return _on_result


class Enumerator:
    """Controller-side enumeration driver (run from any node)."""

    def __init__(self, system: MBusSystem, controller: str):
        self.system = system
        self.controller = controller
        self.agents: Dict[str, EnumerationAgent] = {}
        system.build()
        for node in system.nodes:
            self.agents[node.name] = EnumerationAgent(node)

    def available_prefixes(self) -> List[int]:
        in_use = {
            agent.assigned_prefix
            for agent in self.agents.values()
            if agent.assigned_prefix is not None
        }
        return [
            p
            for p in range(1, constants.FULL_ADDR_MARKER_VALUE)
            if p != constants.BROADCAST_PREFIX_VALUE and p not in in_use
        ]

    def enumerate(self) -> Dict[str, int]:
        """Assign short prefixes to every unassigned node.

        Returns the complete name -> prefix map after enumeration.
        One ENUMERATE round is run per candidate prefix until a round
        draws no reply (all nodes assigned).
        """
        for candidate in self.available_prefixes():
            if not self._unassigned_remain():
                break
            replies_before = self._replies_seen()
            self.system.broadcast(
                self.controller,
                CHANNEL_ENUMERATION,
                bytes([CMD_ENUMERATE, candidate]),
            )
            self.system.run_until_idle()
            if self._replies_seen() == replies_before:
                break
        if self._unassigned_remain():
            raise ProtocolError("ran out of short prefixes before all "
                                "nodes were enumerated")
        return {
            name: agent.assigned_prefix
            for name, agent in self.agents.items()
            if agent.assigned_prefix is not None
        }

    def _unassigned_remain(self) -> bool:
        return any(a.assigned_prefix is None for a in self.agents.values())

    def _replies_seen(self) -> int:
        count = 0
        for result in self.system.transactions:
            if (
                result.ok
                and result.message is not None
                and result.message.payload[:1] == bytes([CMD_ID_REPLY])
            ):
                count += 1
        return count
