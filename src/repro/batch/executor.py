"""Batch executor: whole-campaign bus-round replay over flat arrays.

The fast path realises each bus round as simulator events (a start, a
few power-ons, a finalize).  This executor removes the event queue and
the object graph entirely: it merges three integer streams — the
compiled workload arrays, a single pending round-start slot, and a
heap of pending auto-sleeps — in exactly the ``(time, seq)`` order the
:class:`~repro.sim.scheduler.Simulator` would have used, and realises
each round's :class:`~repro.core.tlm_engine.RoundTemplate` at its
start ``t0`` by integer addition.

Rounds resolve exactly as on the fast path: the executor builds the
round's :class:`~repro.core.tlm_engine.RoundKey` and resolves it in
the compiled system's :class:`~repro.core.tlm_engine.RoundTable`
(:meth:`~repro.core.tlm_engine.RoundTable.resolve`: a kept template,
else an overlay of the plan of the key's message shape, else a plan
at ``t0 = 0``).  The table lives on the
:class:`~repro.batch.compiler.CompiledSystem`, so trials sharing a
compiled spec share warm templates, a campaign of one-off payloads
plans each message shape once, and campaign bursts resolve to a
handful of templates executed thousands of times.

A run records its rounds as two flat arrays, ``starts`` (each round's
``t0``) and ``rounds`` (its template), so a run of ``k`` replayed
rounds is two list extends and the log holds no per-round objects.
Workload events that land inside a round are cut off the compiled
arrays by bisection.  A run's report is built by :func:`materialize`:
one ``TransactionResult`` per round and one ``ReceivedMessage`` per
delivery, with every field that does not depend on ``t0`` taken from
the template, and automatic garbage collection paused while the list
is built.

Equivalence contract (enforced by ``tests/integration`` and the
three-way diffcheck fuzz): byte-identical transaction signatures,
delivery sets and wake counts versus the fast path.  Both tiers run
one round resolver and one post-round policy — round starts from
idle, re-requests, null pulses, auto-sleep suppression by in-flight
request falls — written once in :mod:`repro.core.tlm_engine`; the
steady-state replay below is an optimisation on top of them.
"""

from __future__ import annotations

import gc
import time as _time
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import count, islice, repeat, starmap, takewhile
from typing import Dict, Iterator, List, Optional, Tuple

from repro.batch.compiler import (
    KIND_POST,
    CompiledSystem,
    CompiledWorkload,
)
from repro.core.bus import TransactionResult
from repro.core.errors import BusLockedError, WallClockTimeout
from repro.core.messages import ReceivedMessage
from repro.core.tlm_engine import (
    RoundKey,
    RoundTemplate,
    plan_round,
    post_round,
    raise_from_idle,
)
from repro.obs.state import OBS
from repro.sim.scheduler import SimulationError

#: Same runaway guard as ``Simulator.run(max_events=...)``.
MAX_STEPS = 50_000_000

class BatchResult:
    """Raw executor output, before report materialisation.

    The round log is two parallel arrays: ``starts[i]`` is round
    ``i``'s start ``t0`` (integer ps) and ``rounds[i]`` its
    :class:`RoundTemplate`.
    """

    __slots__ = (
        "starts", "rounds", "hit_counts", "end_ps", "steps",
        "bus_on_ps", "layer_on_ps", "bus_wakeups", "layer_wakeups",
    )

    def __init__(self, starts, rounds, hit_counts, end_ps, steps,
                 bus_on_ps, layer_on_ps, bus_wakeups, layer_wakeups):
        self.starts = starts                  # [t0, ...]
        self.rounds = rounds                  # [RoundTemplate, ...]
        self.hit_counts = hit_counts          # {RoundTemplate: executions}
        self.end_ps = end_ps
        self.steps = steps
        self.bus_on_ps = bus_on_ps            # per-position totals
        self.layer_on_ps = layer_on_ps
        self.bus_wakeups = bus_wakeups
        self.layer_wakeups = layer_wakeups

    @property
    def round_log(self) -> "RoundLog":
        """The rounds as ``(t0, template)`` pairs, read-only."""
        return RoundLog(self)


class RoundLog:
    """A read-only ``(t0, template)`` view over a :class:`BatchResult`'s
    two arrays: its length is the round count, and iterating it zips
    the arrays without building a list of pairs."""

    __slots__ = ("_result",)

    def __init__(self, result: BatchResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return len(self._result.rounds)

    def __iter__(self) -> Iterator[Tuple[int, RoundTemplate]]:
        return zip(self._result.starts, self._result.rounds)


class BatchExecutor:
    """Merge-loop executor over one compiled (system, workload) pair."""

    def __init__(self, csys: CompiledSystem, cwl: CompiledWorkload) -> None:
        self.csys = csys
        self.cwl = cwl
        n = csys.n
        self.queues: List[deque] = [deque() for _ in range(n)]
        self.backlog: set = set()
        self.pulsers: set = set()
        # The coming round's DATA falls (repro.core.tlm_engine).
        self.falls: Dict[int, int] = {}
        self.pending = [False] * n
        self.pending_set: set = set()
        # Power state; non-gated domains come up at t=0 exactly like
        # PowerDomain construction ("not-power-gated" → wake_count 1).
        self.bus_on = [g == 0 for g in csys.power_gated]
        self.layer_on = [g == 0 for g in csys.power_gated]
        self.bus_since = [0] * n
        self.layer_since = [0] * n
        self.bus_total = [0] * n
        self.layer_total = [0] * n
        self.bus_wakes = [0 if g else 1 for g in csys.power_gated]
        self.layer_wakes = [0 if g else 1 for g in csys.power_gated]
        # Positions whose (bus, layer, pending) state differs from the
        # always-on default — the only ones a template key must name.
        self.dirty: set = {p for p in range(n) if csys.power_gated[p]}
        # Event sources.  Workload events occupy seqs [0, len) — they
        # were "scheduled" before the run, so at equal timestamps they
        # fire before anything scheduled at runtime, exactly like the
        # event-loop runner.  Runtime seqs count up from len(cwl).
        self.wi = 0
        self.wl_n = len(cwl)
        self.seq = self.wl_n
        self.start_t0: Optional[int] = None
        self.start_seq = 0
        self.sleeps: List[Tuple[int, int, int]] = []
        self.now = 0
        self.steps = 0
        self.until: Optional[int] = None
        self.max_steps = MAX_STEPS
        self.starts: List[int] = []
        self.rounds: List[RoundTemplate] = []
        self.hit_counts: Dict[RoundTemplate, int] = {}

    # ------------------------------------------------------------------
    # Main merge loop.
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        wall_deadline: Optional[float] = None,
        max_steps: int = MAX_STEPS,
    ) -> BatchResult:
        wl_t, wl_pos, wl_kind, wl_ref = (
            self.cwl.t_ps, self.cwl.pos, self.cwl.kind, self.cwl.ref
        )
        self.until = until
        self.max_steps = max_steps
        check_wall = wall_deadline is not None
        sleeps = self.sleeps
        while True:
            if self.wi < self.wl_n:
                best_t, best_seq, src = wl_t[self.wi], self.wi, 1
            else:
                best_t = best_seq = None
                src = 0
            start_t0 = self.start_t0
            if start_t0 is not None and (
                src == 0
                or start_t0 < best_t
                or (start_t0 == best_t and self.start_seq < best_seq)
            ):
                best_t, best_seq, src = start_t0, self.start_seq, 2
            if sleeps:
                sleep_t, sleep_seq, _p = sleeps[0]
                if (
                    src == 0
                    or sleep_t < best_t
                    or (sleep_t == best_t and sleep_seq < best_seq)
                ):
                    best_t, best_seq, src = sleep_t, sleep_seq, 3
            if src == 0:
                break
            if until is not None and best_t > until:
                break
            self.steps += 1
            if self.steps > max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} events; likely oscillation"
                )
            if check_wall and not self.steps & 255:
                if _time.perf_counter() > wall_deadline:
                    raise WallClockTimeout(
                        f"batch execution exceeded its wall-clock budget "
                        f"after {self.steps} steps at t={best_t} ps"
                    )
            self.now = best_t
            if src == 1:
                i = self.wi
                self.wi += 1
                if wl_kind[i] == KIND_POST:
                    self._post(best_t, wl_pos[i], wl_ref[i])
                else:
                    self._interrupt(best_t, wl_pos[i])
            elif src == 2:
                self.start_t0 = None
                self._run_round(best_t)
            else:
                _t, _s, p = heappop(sleeps)
                self._auto_sleep(best_t, p)
        # Simulator.run(until=...) ends at max(now, until) whether the
        # queue drained or stopped at the horizon: time never rewinds.
        end_ps = until if until is not None and until > self.now else self.now
        if not self._is_idle():
            raise BusLockedError(
                "bus did not return to idle: traffic still queued "
                "on the batch backend"
            )
        bus_on_ps = list(self.bus_total)
        layer_on_ps = list(self.layer_total)
        for p in range(self.csys.n):
            if self.bus_on[p]:
                bus_on_ps[p] += end_ps - self.bus_since[p]
            if self.layer_on[p]:
                layer_on_ps[p] += end_ps - self.layer_since[p]
        self.csys.last_run_templates = len(self.hit_counts)
        if OBS.enabled:
            OBS.metrics.inc("batch.run_calls")
            OBS.metrics.set("batch.steps", self.steps)
            OBS.metrics.set("batch.rounds", len(self.rounds))
        return BatchResult(
            starts=self.starts,
            rounds=self.rounds,
            hit_counts=self.hit_counts,
            end_ps=end_ps,
            steps=self.steps,
            bus_on_ps=bus_on_ps,
            layer_on_ps=layer_on_ps,
            bus_wakeups=list(self.bus_wakes),
            layer_wakeups=list(self.layer_wakes),
        )

    def _is_idle(self) -> bool:
        return (
            self.start_t0 is None
            and not self.backlog
            and not self.pending_set
        )

    # ------------------------------------------------------------------
    # Out-of-round event handlers (post / interrupt / auto-sleep).
    # ------------------------------------------------------------------
    def _refresh(self, p: int) -> None:
        if self.bus_on[p] and self.layer_on[p] and not self.pending[p]:
            self.dirty.discard(p)
        else:
            self.dirty.add(p)

    def _post(self, t: int, p: int, ref: int) -> None:
        self.queues[p].append(ref)
        self.backlog.add(p)
        self._raise(t, p, pulse=not (self.bus_on[p] and self.layer_on[p]))

    def _interrupt(self, t: int, p: int) -> None:
        self.pending[p] = True
        self.pending_set.add(p)
        self.dirty.add(p)
        self._raise(t, p, pulse=True)

    def _raise(self, t: int, p: int, pulse: bool) -> None:
        t0 = raise_from_idle(self.csys.topology, self.falls, p, t, pulse)
        if t0 is None:
            return
        if pulse:
            self.pending[p] = True
            self.pending_set.add(p)
            self.dirty.add(p)
            self.pulsers.add(p)
        self._schedule_start(t0)

    def _schedule_start(self, t0: int) -> None:
        # Keep-earliest merge of the single start slot; a reschedule
        # takes a fresh seq like the cancelled-and-replaced event.
        if self.start_t0 is not None and self.start_t0 <= t0:
            return
        self.start_t0 = t0
        self.seq += 1
        self.start_seq = self.seq

    def _auto_sleep(self, t: int, p: int) -> None:
        if self.queues[p] or self.pending[p]:
            return
        if self.layer_on[p]:
            self.layer_on[p] = False
            self.layer_total[p] += t - self.layer_since[p]
        if self.bus_on[p]:
            self.bus_on[p] = False
            self.bus_total[p] += t - self.bus_since[p]
        self.dirty.add(p)

    # ------------------------------------------------------------------
    # Round execution.
    # ------------------------------------------------------------------
    def _template(self) -> RoundTemplate:
        csys = self.csys
        bus_on, layer_on = self.bus_on, self.layer_on
        pulsers = self.pulsers
        falls = self.falls
        queues = self.queues
        messages = csys.message_table
        dirty = self.dirty
        # A member requests only if its own fall is among the round's.
        key = RoundKey(
            tuple(
                (p, messages[queues[p][0]])
                for p in sorted(self.backlog)
                if bus_on[p] and layer_on[p] and p not in pulsers
                and (p == 0 or p in falls)
            ),
            tuple(sorted(
                (p, bus_on[p], layer_on[p], self.pending[p])
                for p in dirty
            )) if dirty else (),
            tuple(sorted(pulsers)) if pulsers else (),
        )
        templates = csys.templates
        if OBS.enabled:
            OBS.metrics.inc(
                "batch.template_hits" if key in templates
                else "batch.template_misses"
            )
        return templates.resolve(key, plan_round)

    def _run_round(self, t0: int) -> None:
        csys = self.csys
        tpl = self._template()
        fin_t = t0 + tpl.fin_off
        if self.until is not None and fin_t > self.until:
            # The event-loop tiers stop at the horizon with this round
            # still in flight, which leaves their bus busy.
            raise BusLockedError(
                "bus did not return to idle: a round was still in flight "
                "at the horizon on the batch backend"
            )
        self.pulsers.clear()
        # Hierarchical wakeups, applied eagerly: nothing reads power
        # state again until the round has finished.
        for p, off, _reason in tpl.bus_wake:
            self.bus_on[p] = True
            self.bus_wakes[p] += 1
            self.bus_since[p] = t0 + off
            self.steps += 1
            self._refresh(p)
        for p, off, _reason in tpl.layer_wake:
            self.layer_on[p] = True
            self.layer_wakes[p] += 1
            self.layer_since[p] = t0 + off
            self.steps += 1
            self._refresh(p)
        # Workload arriving while the round is in flight is absorbed
        # passively (post/interrupt on an active fast path only queue):
        # every event up to the finalize, cut off the sorted arrays.
        wi = self.wi
        wl_t = self.cwl.t_ps
        if wi < self.wl_n and wl_t[wi] <= fin_t:
            cut = bisect_right(wl_t, fin_t, wi)
            wl_pos, wl_kind, wl_ref = self.cwl.pos, self.cwl.kind, self.cwl.ref
            queues, backlog = self.queues, self.backlog
            pending, pending_set = self.pending, self.pending_set
            dirty = self.dirty
            for i in range(wi, cut):
                p = wl_pos[i]
                if wl_kind[i] == KIND_POST:
                    queues[p].append(wl_ref[i])
                    backlog.add(p)
                else:
                    pending[p] = True
                    pending_set.add(p)
                    dirty.add(p)
            self.wi = cut
            self.steps += cut - wi
        # Auto-sleeps that fire inside the round are no-ops there (the
        # backend is busy); they predate this round's finalize, so any
        # heap entry at or before fin_t is spent.
        while self.sleeps and self.sleeps[0][0] <= fin_t:
            heappop(self.sleeps)
            self.steps += 1
        # Finalize.
        self.steps += 1
        queues = self.queues
        backlog = self.backlog
        if tpl.winner is not None:
            queue = queues[tpl.winner]
            queue.popleft()
            if not queue:
                backlog.discard(tpl.winner)
        self.starts.append(t0)
        self.rounds.append(tpl)
        self.hit_counts[tpl] = self.hit_counts.get(tpl, 0) + 1
        bus_on, layer_on = self.bus_on, self.layer_on
        pending, pending_set = self.pending, self.pending_set
        # Interrupt servicing at each node's observed transaction end.
        if pending_set:
            for p in tpl.end_order:
                if pending[p] and bus_on[p] and layer_on[p]:
                    pending[p] = False
                    pending_set.discard(p)
                    self._refresh(p)
        # The post-round policy (repro.core.tlm_engine): re-arm what
        # remains queued, then schedule the idle gated nodes' sleeps.
        ready, waking = [], []
        for p in (
            sorted(backlog) if not pending_set
            else sorted(backlog | pending_set)
        ):
            if bus_on[p] and layer_on[p] and queues[p]:
                ready.append(p)
            else:
                waking.append(p)
        rearm = post_round(
            csys.topology, t0, tpl.end_off, tpl.node_end_off, ready, waking,
            fin_t,
        )
        for p in waking:
            pending[p] = True
            pending_set.add(p)
            self.dirty.add(p)
        self.pulsers.update(rearm.pulsers)
        self.falls = rearm.falls
        if rearm.start_ps is not None:
            self._schedule_start(rearm.start_ps)
        for p, at in rearm.sleeps:
            self.seq += 1
            heappush(self.sleeps, (at, self.seq, p))
        self.now = fin_t
        # Steady-state replay: when the round leaves the system in a
        # state that reproduces it — one active requester, no pending
        # pulses, no dirty power state — each following identical-
        # message round is this template shifted by a constant period,
        # so a whole run of them resolves with integer arithmetic
        # instead of re-entering the merge loop per round.  Two shapes
        # qualify: the all-on steady state (fleet campaigns), and the
        # wake/sleep limit cycle (the fig14 burst: one gated receiver
        # wakes for each delivery and auto-sleeps between rounds).
        w = tpl.winner
        start_t0 = self.start_t0
        if (
            w is None
            or start_t0 is None
            or pending_set
            or self.pulsers
            or self.dirty
            or backlog != {w}
        ):
            return
        sleeps = self.sleeps
        queue = queues[w]
        head = queue[0]
        head_request = ((w, self.csys.message_table[head]),)
        if sleeps:
            # Limit-cycle shape: exactly one gated node sleeps between
            # rounds and is rewoken by each delivery.  The sleep must
            # genuinely fire before the next start (strictly earlier),
            # and the template must wake exactly that node.
            if len(sleeps) != 1:
                return
            t_sl, _sseq, p_s = sleeps[0]
            if (
                p_s == w
                or t_sl >= start_t0
                or len(tpl.bus_wake) != 1
                or len(tpl.layer_wake) != 1
                or tpl.bus_wake[0][0] != p_s
                or tpl.layer_wake[0][0] != p_s
                or tpl.key != (
                    head_request, ((p_s, False, False, False),), ()
                )
            ):
                return
            # sleep + start + two wakes + finalize per cycle.
            steps_per = 5
        else:
            if tpl.bus_wake or tpl.layer_wake:
                return
            if tpl.key != (head_request, (), ()):
                return
            p_s = None
            steps_per = 2     # start dispatch + finalize per round
        delta = start_t0 - t0
        if delta <= 0:
            return
        # Bound the window: stay inside the horizon, stop before any
        # round that would absorb a workload event (absorption uses
        # ``<= fin_t``, hence the strict inequality), and always leave
        # one queued message so the closing round runs the full
        # post-round choreography — its pump decides what the steady
        # state suppresses or schedules next.
        k = len(queue) - 1
        if self.until is not None:
            k = min(k, (self.until - t0) // delta)
        if self.wi < self.wl_n:
            te = wl_t[self.wi]
            k = min(k, (te - t0 - tpl.fin_off - 1) // delta)
        if k <= 0:
            return
        # Only the leading refs equal to the head replay this template.
        k = len(list(takewhile(head.__eq__, islice(queue, k))))
        self.steps += steps_per * k
        if self.steps > self.max_steps:
            raise SimulationError(
                f"exceeded {self.max_steps} events; likely oscillation"
            )
        if OBS.enabled:
            OBS.metrics.inc("batch.steady_replays")
            OBS.metrics.inc("batch.steady_rounds", k)
        s = t0 + k * delta
        self.starts.extend(range(t0 + delta, s + 1, delta))
        self.rounds.extend(repeat(tpl, k))
        # Pop the k replayed refs: popleft called k times inside C.
        deque(starmap(queue.popleft, repeat((), k)), maxlen=0)
        self.hit_counts[tpl] += k
        self.seq += 1
        self.start_t0 = s + delta
        self.start_seq = self.seq
        if self.falls:
            # w's re-request fall, as round k's post-round step left it.
            self.falls = {w: self.falls[w] + (s - t0)}
        if p_s is not None:
            # Each cycle the sleeper is on from its wake offset until
            # the sleep instant — a constant span — and both domains
            # wake exactly once.  Leave the node powered with a fresh
            # pending sleep, exactly as round k's pump would have.
            off_b = tpl.bus_wake[0][1]
            off_l = tpl.layer_wake[0][1]
            d_sleep = t_sl - t0
            self.bus_total[p_s] += k * (d_sleep - off_b)
            self.layer_total[p_s] += k * (d_sleep - off_l)
            self.bus_wakes[p_s] += k
            self.layer_wakes[p_s] += k
            self.bus_since[p_s] = s + off_b
            self.layer_since[p_s] = s + off_l
            self.seq += 1
            sleeps[0] = (s + d_sleep, self.seq, p_s)
        self.now = s + tpl.fin_off


# ----------------------------------------------------------------------
# Report materialisation.
# ----------------------------------------------------------------------
def materialize(csys: CompiledSystem, result: BatchResult):
    """Expand a run's round arrays into the event-loop backends' report
    shape: (transactions, power report, wire activity).

    Every field but ``index`` and the times comes ready-made from the
    round's template, so each round only builds its
    :class:`TransactionResult` and one ``ReceivedMessage`` per
    delivery, positionally in field order (a single delivery as a list
    literal: a comprehension is one more call per round).  The build
    allocates a few acyclic containers per round and frees none, so
    automatic garbage collection is paused while it runs: each
    collection would only rescan the list built so far."""
    transactions: List[TransactionResult] = []
    append = transactions.append
    collecting = gc.isenabled()
    gc.disable()
    try:
        for index, t0, tpl in zip(count(), result.starts, result.rounds):
            rx = tpl.rx
            if len(rx) == 1:
                name, dest, payload, broadcast, control, arr_off = rx[0]
                delivered = [(name, ReceivedMessage(
                    "", dest, payload, broadcast, control, t0 + arr_off
                ))]
            else:
                delivered = [
                    (name, ReceivedMessage(
                        "", dest, payload, broadcast, control, t0 + arr_off
                    ))
                    for name, dest, payload, broadcast, control, arr_off
                    in rx
                ]
            append(TransactionResult(
                index, tpl.ok, tpl.control, tpl.tx_node, tpl.message,
                delivered, tpl.clock_cycles, tpl.control_cycles, t0,
                t0 + tpl.end_off, tpl.general_error, tpl.error_reason,
            ))
    finally:
        if collecting:
            gc.enable()
    power, wire = tallies(csys, result)
    return transactions, power, wire


def tallies(csys: CompiledSystem, result: BatchResult):
    """A run's power report and wire activity, in the event-loop
    backends' shapes, built fresh on every call."""
    power = {}
    for name in csys.spec_order_names:
        p = csys.position_of[name]
        power[name] = {
            "bus_on_s": result.bus_on_ps[p] / 1e12,
            "layer_on_s": result.layer_on_ps[p] / 1e12,
            "bus_wakeups": result.bus_wakeups[p],
            "layer_wakeups": result.layer_wakeups[p],
        }
    totals = [0] * csys.n
    for tpl, hits in result.hit_counts.items():
        for p, count in enumerate(tpl.wire_row):
            totals[p] += hits * count
    wire = {name: totals[p] for p, name in enumerate(csys.names)}
    return power, wire
