"""Wire controller: the always-on shoot-through forwarding element.

Section 4.1: with no local clock, the rings are "shoot-through" —
signals pass through only a minimal amount of combinational logic from
one node to the next.  Section 5 / Figure 8: the wire controller is one
of the always-powered green modules (7 gates, 0 flip-flops in the
paper's synthesis), a two-input mux per ring line:

    OUT = forwarding ? IN : driven_value

Switching between driving and forwarding may glitch the line
momentarily; the paper notes such glitches "are resolved before the
next rising clock edge" (Figure 5), which the event model reproduces
via transition superseding in :class:`repro.sim.signals.Net`.
"""

from __future__ import annotations

from repro.sim.signals import EdgeType, Net


class LineController:
    """Forward-or-drive control for one ring line (CLK or DATA).

    Parameters
    ----------
    in_net / out_net:
        The node's IN pad net and OUT pad net for this ring line.
    forward_delay_ps:
        Node-to-node propagation delay through the forwarding mux,
        pads, and bond wire (spec max 10 ns).
    drive_delay_ps:
        Pad driver delay when locally driving.
    """

    def __init__(
        self,
        in_net: Net,
        out_net: Net,
        forward_delay_ps: int,
        drive_delay_ps: int,
    ):
        self.in_net = in_net
        self.out_net = out_net
        self.forward_delay_ps = forward_delay_ps
        self.drive_delay_ps = drive_delay_ps
        self.forwarding = True
        self.driven_value = 1
        # Output transitions are counted by ``out_net`` itself; each
        # forward/drive switch credits the ones since the previous
        # switch to the mode that just ended.
        self._switch_mark = out_net.transitions
        self._forwarded = 0
        self._driven = 0
        in_net.on_edge(self._on_input_edge)

    # -- activity counters (consumed by the activity-based power model) -------
    @property
    def forward_transitions(self) -> int:
        """Output transitions made while forwarding."""
        if self.forwarding:
            return self._forwarded + self.out_net.transitions - self._switch_mark
        return self._forwarded

    @property
    def drive_transitions(self) -> int:
        """Output transitions made while driving (or holding)."""
        if self.forwarding:
            return self._driven
        return self._driven + self.out_net.transitions - self._switch_mark

    def _switch_mode(self) -> None:
        mark = self.out_net.transitions
        if self.forwarding:
            self._forwarded += mark - self._switch_mark
        else:
            self._driven += mark - self._switch_mark
        self._switch_mark = mark
        self.forwarding = not self.forwarding

    # -- event plumbing -------------------------------------------------------
    def _on_input_edge(self, net: Net, _edge: EdgeType) -> None:
        # Hot path: once per node per ring transition.  Reads the
        # level straight from the net's slot (no property call).
        if self.forwarding:
            self.out_net.set(net._value, self.forward_delay_ps)

    # -- mode control -----------------------------------------------------------
    def forward(self) -> None:
        """Resume forwarding: output snaps to (delayed) input value."""
        if not self.forwarding:
            self._switch_mode()
        self.out_net.set(self.in_net.value, self.forward_delay_ps)

    def drive(self, value: int) -> None:
        """Break the ring and drive ``value`` onto the output."""
        if self.forwarding:
            self._switch_mode()
        self.driven_value = 1 if value else 0
        self.out_net.set(self.driven_value, self.drive_delay_ps)

    def hold(self) -> None:
        """Break the ring, freezing the output at its current value.

        This is how a node requests an interjection on the CLK line:
        it simply stops forwarding while CLK is high (Section 4.9).
        """
        if self.forwarding:
            self._switch_mode()
        self.driven_value = self.out_net.value
