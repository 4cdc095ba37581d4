"""The four benchmark workloads, each run in a fresh interpreter.

``run.py`` starts this module once per measured run (and a few more
times with ``--setup-only`` to sample set-up time).  It prints
``READY`` once the first operation can start, measures for
``--seconds``, checks every output, and prints one JSON line with the
raw figures.  Everything is driven through the public API; the program
never sees the seed, only the documents built from it.

Every workload is a loop of *steps*; a step is one cold operation on a
document the program has not seen, then the same document again (the
repeat, which the program may answer from its caches):

* ``fleet-run``   one ``run(backend="batch")`` of the 100-node fleet
                  with the compile cache cleared, then a repeat with
                  the compiled system and round templates warm;
* ``campaign-batch``  a serial 40-trial ``Campaign.run`` into a fresh
                  on-disk store (op = one trial), then a resume pass
                  that reopens the store (op = one cached trial);
* ``faults-pool`` the 16-trial glitch-rate grid on a 2-worker process
                  pool into a fresh store (op = one trial, latency =
                  the pass's wall time spread over its trials), then a
                  resume pass;
* ``serve-mixed`` one new 8-trial campaign submitted to a separate
                  ``python -m repro serve`` process and streamed to the
                  last record (op = the round trip), then the identical
                  document again (all trials dedupe against the store).

See README.md for why each exists and which layers it stresses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, SRC)

FLEET_NODES = 100
FLEET_BURST = 102            # 99 members x 102 posts = 10,098 transactions
CAMPAIGN_TRIALS = 40
POOL_WORKERS = 2
POOL_RATES_HZ = (0.0, 1000.0, 4000.0, 16000.0)
POOL_SEEDS_PER_PASS = 4      # 4 rates x 4 glitch seeds = 16 trials
SERVE_TRIALS = 8
#: The server rehashes every earlier job's request on each submit, so
#: round trips slow as its history grows; a fresh server every this
#: many steps keeps the history (and so the figures) independent of
#: how many steps a run manages.
SERVE_STEPS_PER_SERVER = 64


def _fig14_spec():
    from repro.scenario import NodeSpec, SystemSpec

    return SystemSpec(
        name="fig14-burst",
        clock_hz=400_000.0,
        nodes=(
            NodeSpec("m", short_prefix=0x1, is_mediator=True),
            NodeSpec("a", short_prefix=0x2),
        ),
    )


def _fig14_campaign(rng, n_trials, backend, name):
    """Equal-size fig14 bursts (6 x 8-byte messages), one distinct
    payload per trial through a ``workload.payload`` grid axis."""
    from repro.campaign import Campaign, Grid
    from repro.core import Address
    from repro.scenario import Burst

    payloads = sorted({rng.randbytes(8).hex() for _ in range(n_trials)})
    while len(payloads) < n_trials:   # a repeat would alias, not run
        payloads = sorted(set(payloads) | {rng.randbytes(8).hex()})
    return Campaign(
        spec=_fig14_spec(),
        workload=Burst("m", Address.short(0x2, 5), bytes(8), count=6),
        grid=Grid.product(**{"workload.payload": payloads}),
        backend=backend,
        name=name,
    )


class Session:
    """Timings, counts and check results of one run."""

    def __init__(self):
        self.cold_ms = []         # latency of every cold op
        #: per step: (cold ops, cold s, simulated txns, repeats, repeat s)
        self.steps = []
        self.pairs = 0            # cold ops (each has one repeat)
        self.replayed = 0         # units re-executed in-process
        self.attempted = 0
        self.failed = 0
        self.notes = defaultdict(float)
        self.recorder = None
        self.loops = []           # calibration loop samples, ms

    def root(self, name):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def record(self, cold_ms, cold_s, txns, repeats, repeat_s):
        self.cold_ms.extend(cold_ms)
        self.pairs += len(cold_ms)
        self.steps.append((len(cold_ms), cold_s, txns, repeats, repeat_s))

    @property
    def scale(self):
        return calibration.scale(self.loops)

    @property
    def timed_s(self):
        return sum(step[1] + step[4] for step in self.steps)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)



# ----------------------------------------------------------------------
# fleet-run
# ----------------------------------------------------------------------
def fleet_documents(seed):
    """The 100-node, 10,098-transaction fleet; the seed picks each
    member's 2-byte payload.  Returns ``(spec, workload, payload_of)``."""
    from repro.core import Address
    from repro.scenario import Burst, NodeSpec, SystemSpec

    rng = random.Random(seed)
    spec = SystemSpec(
        name="fleet",
        clock_hz=400_000,
        nodes=(NodeSpec("m", short_prefix=0x1, is_mediator=True),)
        + tuple(
            NodeSpec(f"n{i}", full_prefix=0x10000 + i)
            for i in range(FLEET_NODES - 1)
        ),
    )
    payload_of = {}
    workload = None
    for i in range(FLEET_NODES - 1):
        payload = rng.randbytes(2)
        payload_of[f"n{i}"] = payload
        burst = Burst(
            source="m",
            dest=Address.full(0x10000 + i, 5),
            payload=payload,
            count=FLEET_BURST,
            at_s=i * 1e-6,
        )
        workload = burst if workload is None else workload + burst
    return spec, workload, payload_of


def fleet_digest(report, payload_of):
    """Digest of the timing-free transaction projection and the power
    report.  Payload values depend on the seed, so each is compared to
    the document and only its length enters the digest; the digest is
    then the same for every seed."""
    rows = [
        (t.index, t.ok, str(t.control), t.tx_node,
         len(t.message.payload), t.clock_cycles, t.control_cycles,
         t.general_error, t.error_reason, list(t.rx_nodes),
         t.message.payload == payload_of[t.rx_nodes[0]])
        for t in report.transactions
    ]
    return hashlib.sha256(json.dumps(
        [rows, report.power, report.sim_time_s], sort_keys=True
    ).encode()).hexdigest()


class FleetRun:
    """Engine-bound: batch merge loop, template replay, materialize."""

    def __init__(self, seed, work):
        self.spec, self.workload, self.payload_of = fleet_documents(seed)
        with open(os.path.join(HERE, "reference.json")) as handle:
            self.digest = json.load(handle)["fleet_digest"]

    def setup(self, session):
        self.step(session, warm=True)

    def close(self):
        pass

    def step(self, session, warm=False):
        import repro.batch
        import repro.scenario

        repro.batch.clear_cache()
        reports, walls = [], []
        for _ in ("cold", "repeat"):
            with session.root("op"):
                start = time.perf_counter()
                report = repro.scenario.run(
                    self.spec, self.workload, backend="batch"
                )
                walls.append(time.perf_counter() - start)
            reports.append(report)
        session.record([walls[0] * 1e3], walls[0],
                       reports[0].n_transactions, 1, walls[1])
        if warm:
            return
        for report in reports:
            session.check(
                fleet_digest(report, self.payload_of) == self.digest,
                "fleet digest against the fast-backend reference",
            )


# ----------------------------------------------------------------------
# campaign-batch / faults-pool
# ----------------------------------------------------------------------
class CampaignPasses:
    """A cold pass into a fresh on-disk store, then a resume pass."""

    executor = "serial"

    def __init__(self, seed, work):
        self.rng = random.Random(seed)
        self.work = work
        self.passes = 0

    def campaign(self, warm):
        raise NotImplementedError

    def setup(self, session):
        self.step(session, warm=True)

    def close(self):
        pass

    def _pass(self, session, campaign, path):
        """One timed ``Campaign.run`` over ``path``; returns the results,
        the wall time and each trial's latency."""
        from repro.campaign import ResultStore

        stamps = []
        with session.root("op"):
            start = time.perf_counter()
            results = campaign.run(
                executor=self.executor,
                workers=POOL_WORKERS,
                store=ResultStore(path),
                progress=lambda *_: stamps.append(time.perf_counter()),
            )
            wall = time.perf_counter() - start
        latencies, last = [], start
        for stamp in stamps:
            latencies.append((stamp - last) * 1e3)
            last = stamp
        return results, wall, latencies

    def reference_lines(self, session, trials):
        """Serial in-process records for ``trials``, computed exactly
        as a pool worker computes them."""
        from repro.campaign import canonical_json
        from repro.campaign.trial import run_trial_document

        return {
            trial.key: canonical_json(run_trial_document(trial.to_dict())[1])
            for trial in trials
        }

    def step(self, session, warm=False):
        import repro.batch
        from repro.campaign import canonical_json
        from repro.campaign.store import RESULTS_FILENAME

        repro.batch.clear_cache()
        campaign = self.campaign(warm)
        path = os.path.join(self.work, f"pass-{self.passes}")
        cold, cold_s, latencies = self._pass(session, campaign, path)
        resumed, resumed_s, _ = self._pass(session, campaign, path)
        if self.executor == "process":
            # Outcomes from two workers interleave, so the wait for the
            # next one is no trial's latency; a pool user pays the
            # pass's wall time spread over its trials.
            latencies = [cold_s * 1e3 / len(cold)] * len(cold)
        session.record(
            latencies, cold_s,
            sum(r.record["report"]["n_transactions"] for r in cold),
            len(resumed), resumed_s,
        )
        session.notes["worker_s"] += sum(r.wall_s for r in cold)
        session.notes["retries"] += sum(
            (r.record.get("failure") or {}).get("attempts", 1) - 1
            for r in cold
        )
        if warm:
            shutil.rmtree(path)
            return

        with open(os.path.join(path, RESULTS_FILENAME)) as handle:
            stored = {}
            for line in handle.read().splitlines():
                stored[json.loads(line)["key"]] = line
        trials = [result.trial for result in cold]
        expected = self.reference_lines(session, trials)
        for result in cold:
            key = result.trial.key
            line = stored.get(key)
            ok = (
                not result.cached
                and line is not None
                and line == canonical_json(result.record)
                and result.record.get("outcome") == "ok"
                and expected.get(key, line) == line
            )
            session.check(ok, f"cold trial {result.trial.index}")
        for result in resumed:
            session.check(
                result.cached
                and canonical_json(result.record) == stored.get(
                    result.trial.key),
                f"resumed trial {result.trial.index}",
            )
        shutil.rmtree(path)
        self.passes += 1


class CampaignBatch(CampaignPasses):
    """Envelope-bound: record build, to_dict, store append/fsync and
    workload compile around a ~1 ms engine call."""

    def campaign(self, warm):
        return _fig14_campaign(
            self.rng, CAMPAIGN_TRIALS, "batch", "campaign-batch"
        )


class FaultsPool(CampaignPasses):
    """Edge engine + fault injector + process pool."""

    executor = "process"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # The glitch seed alone decides whether a trial hits a recovery
        # that simulates ten times longer, so every pass uses the same
        # glitch seeds (drawn per pass, throughput moved by a sixth
        # between runs).  The run's seed picks each pass's payload,
        # which keeps every trial a new document.
        glitch_rng = random.Random(0)
        self.glitch_seeds = [glitch_rng.randrange(1, 2**31)
                             for _ in range(POOL_SEEDS_PER_PASS)]
        self.replayed_whole = False
        with open(
            os.path.join(ROOT, "examples", "scenarios",
                         "recovery_campaign.json")
        ) as handle:
            self.document = json.load(handle)

    def campaign(self, warm):
        from repro.campaign import Campaign

        # The warm-up pass only has to fork the pool and compile once;
        # glitch-free trials keep it short.
        rates = POOL_RATES_HZ[:1] if warm else POOL_RATES_HZ
        doc = json.loads(json.dumps(self.document))
        doc["workload"]["payload"] = self.rng.randbytes(8).hex()
        doc["grid"] = {
            "kind": "product",
            "axes": {
                "faults.faults.0.rate_hz": list(rates),
                "faults.faults.0.seed": self.glitch_seeds,
            },
        }
        return Campaign.from_dict(doc)

    def reference_lines(self, session, trials):
        # Replaying every pool trial serially would cost twice the
        # measured pass; the first checked pass is replayed whole, later
        # passes one trial each, rotating through the grid.  The replay
        # runs under its own root, which gives the traced run the
        # layers that the pool workers hide.
        if self.replayed_whole:
            trials = [trials[self.passes % len(trials)]]
        self.replayed_whole = True
        lines = {}
        for trial in trials:
            with session.root("replay"):
                lines.update(super().reference_lines(session, [trial]))
        session.replayed += len(trials)
        return lines


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeMixed:
    """HTTP front door, scheduler, dedupe and the fast planner."""

    def __init__(self, seed, work):
        self.rng = random.Random(seed)
        self.work = work
        self.process = None
        self.jobs = 0
        self.servers = 0

    def setup(self, session):
        self._start()
        self.step(session, warm=True)

    def _start(self):
        from repro.campaign import ResultStore
        from repro.serve import ServeClient

        root = os.path.join(self.work, f"server-{self.servers}")
        os.makedirs(root)
        self.servers += 1
        self.steps_on_server = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log = open(os.path.join(root, "serve.log"), "w")
        # Rate, burst and queue depth far above what one closed-loop
        # client can reach, so no request is refused by design.
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--root", os.path.join(root, "state"),
             "--port", "0", "--rate", "10000", "--burst", "10000",
             "--queue-depth", "1024"],
            env=env, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        self.client = ServeClient(port=port, timeout_s=60.0)
        self.local = ResultStore(os.path.join(root, "local"))

    def close(self):
        if self.process is None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()
        self.process = None

    def _round_trip(self, session, document):
        from repro.campaign import canonical_json
        from repro.serve import ServeError

        lines = []
        with session.root("op"):
            start = time.perf_counter()
            try:
                status, _created = self.client.submit(document)
                submitted = first = time.perf_counter()
                for index, record in enumerate(
                    self.client.results(status.job_id)
                ):
                    if index == 0:
                        first = time.perf_counter()
                    lines.append(canonical_json(record))
            except ServeError as exc:
                if exc.status in (429, 503):
                    session.notes["serve.refused"] += 1
                print(f"serve error: {exc}", file=sys.stderr)
                return None, lines, 0.0
            end = time.perf_counter()
            if session.recorder is not None:
                session.recorder.add("serve.submit", start, submitted)
                session.recorder.add("serve.first_record", submitted, first)
                session.recorder.add("serve.stream", first, end)
        final = self.client.status(status.job_id)
        session.notes["serve.trials"] += final.n_trials
        session.notes["serve.cached"] += final.cached
        return final, lines, end - start

    def step(self, session, warm=False):
        from repro.campaign import Campaign, canonical_json

        if self.steps_on_server == SERVE_STEPS_PER_SERVER:
            self.close()
            self._start()
        self.steps_on_server += 1
        doc = _fig14_campaign(
            self.rng, SERVE_TRIALS, "auto", f"serve-{self.jobs}"
        ).to_dict()
        cold, cold_lines, cold_s = self._round_trip(session, doc)
        cached, cached_lines, cached_s = self._round_trip(session, doc)
        self.jobs += 1
        if cold is not None and cached is not None:
            session.record(
                [cold_s * 1e3], cold_s,
                sum(json.loads(line)["report"]["n_transactions"]
                    for line in cold_lines),
                1, cached_s,
            )
        if warm:
            return

        # The same document in-process, against a store of our own:
        # the reference for the streams, and (traced) the server-side
        # layers the HTTP boundary hides.
        local = []
        for _ in range(2):
            with session.root("replay"):
                results = Campaign.from_dict(doc).run(store=self.local)
            local.append([canonical_json(r.record) for r in results])
        session.replayed += 1
        session.check(
            cold is not None and cold.ok and cold.executed == SERVE_TRIALS
            and cold_lines == local[0],
            f"cold job {self.jobs}",
        )
        session.check(
            cached is not None and cached.ok and cached.executed == 0
            and cached_lines == local[1] == local[0],
            f"resubmitted job {self.jobs}",
        )


FACTORIES = {
    "fleet-run": FleetRun,
    "campaign-batch": CampaignBatch,
    "faults-pool": FaultsPool,
    "serve-mixed": ServeMixed,
}


# ----------------------------------------------------------------------
# Figures.
# ----------------------------------------------------------------------
def _p90(values):
    if len(values) < 2:   # only in very short runs
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def trimmed_mean(values, cut=0.1):
    """Mean without the lowest and highest ``cut`` of the values: a
    slow outlier step is dropped, while a mix of fast and slow steps
    (pool trials that hit a long recovery, a collection pause) is
    averaged instead of the median jumping between the two."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(session):
    """Rates are taken per step (one fleet run, campaign pass or job
    pair) and trimmed-averaged over the run.  Times and rates are in
    reference-host units (see calibration.py)."""
    steps, scale = session.steps, session.scale
    return {
        "op_p50_ms": statistics.median(session.cold_ms) * scale,
        "ops_per_s": trimmed_mean(s[0] / s[1] for s in steps) / scale,
        "sim_txn_per_s": trimmed_mean(s[2] / s[1] for s in steps) / scale,
        "cached_ops_per_s": (
            trimmed_mean(s[3] / s[4] for s in steps) / scale
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


LAYER_TIMES = (
    "scenario.run", "scenario.decode", "scenario.to_dict",
    "batch.compile_system", "batch.compile_workload", "batch.execute",
    "batch.materialize", "core.plan_round", "sim.build",
    "sim.run_until_idle", "faults.arm", "faults.report",
    "campaign.run", "campaign.trials_compile", "campaign.record",
    "campaign.store_load", "campaign.store_put", "campaign.store_get",
    "campaign.pool", "serve.submit", "serve.first_record", "serve.stream",
)


def per_layer(session, untraced_pair_ms):
    """Busy ms per cold op (with its repeat), from the traced phase.

    Layers seen in the measured ops are divided by the cold ops; layers
    seen only in an in-process replay of another process's work are
    divided by the units replayed.  Times are in reference-host ms.
    """
    recorder = session.recorder
    ms = session.scale * 1e3
    self_s, calls = recorder.totals()
    units = {"op": session.pairs, "replay": session.replayed}

    def per_unit(table, name):
        return sum(
            table.get((root, name), 0.0) / units[root]
            for root in units if units[root]
        )

    def counted(name):
        return per_unit(recorder.counts, name)

    out = {f"{name}_ms": per_unit(self_s, name) * ms
           for name in LAYER_TIMES}
    out["unattributed_ms"] = per_unit(self_s, "op") * ms
    out["trace_overhead_ms"] = (
        session.timed_s / session.pairs * ms - untraced_pair_ms
    )
    lookups = per_unit(calls, "batch.compile_system")
    out["batch.compile_cache_hit_ratio"] = (
        counted("batch.compile_cache_hits") / lookups if lookups else 0.0
    )
    templates = counted("batch.templates_used")
    out["batch.rounds_per_template"] = (
        counted("batch.rounds") / templates if templates else 0.0
    )
    out["core.plan_round_calls"] = per_unit(calls, "core.plan_round")
    out["sim.events_per_op"] = counted("sim.events")
    out["campaign.store_put_calls"] = per_unit(calls, "campaign.store_put")
    gets = per_unit(calls, "campaign.store_get")
    out["campaign.cache_hit_ratio"] = (
        counted("campaign.store_get_hits") / gets if gets else 0.0
    )
    pool_s = sum(
        end - start for name, start, end, _p in recorder.spans
        if name == "campaign.pool"
    )
    out["campaign.pool_wall_ms_per_trial"] = pool_s / session.pairs * ms
    notes = session.notes
    out["campaign.pool_utilization"] = (
        notes["worker_s"] / (POOL_WORKERS * pool_s) if pool_s else 0.0
    )
    out["campaign.retries"] = notes["retries"]
    out["serve.dedupe_ratio"] = (
        notes["serve.cached"] / notes["serve.trials"]
        if notes["serve.trials"] else 0.0
    )
    out["serve.refused"] = notes["serve.refused"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(FACTORIES),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    workload = FACTORIES[args.workload](args.seed, work)
    try:
        workload.setup(Session())
        print("READY", flush=True)
        if args.setup_only:
            return 0
        import repro.batch

        session = Session()
        phases = [(session, args.seconds)]
        if args.trace:
            # A third of the run untraced, for the tracing overhead.
            traced = Session()
            phases = [(session, args.seconds / 3),
                      (traced, args.seconds * 2 / 3)]
        for phase, seconds in phases:
            if phase.recorder is None and phase is not session:
                import spans

                phase.recorder = spans.SpanRecorder()
                spans.install(phase.recorder)
            phase.loops.append(calibration.loop_ms())
            calibrated = now = time.perf_counter()
            deadline = now + seconds
            while now < deadline:
                workload.step(phase)
                now = time.perf_counter()
                if now - calibrated >= calibration.EVERY_S:
                    phase.loops.append(calibration.loop_ms())
                    calibrated = now = time.perf_counter()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        untraced_pair_ms = (
            session.timed_s / session.pairs * 1e3 * session.scale
        )
        metrics = per_layer(traced, untraced_pair_ms)
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        traced.recorder.write(os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl"
        ))
        sessions = (session, traced)
    else:
        metrics = end_to_end(session)
        sessions = (session,)
    print(json.dumps({
        "metrics": metrics,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "accel_backend": repro.batch.accel.backend_name(),
        "cold_ops": len(session.cold_ms),
        "op_p90_ms": _p90(session.cold_ms) * session.scale,
        "loop_ms": statistics.median(session.loops),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
