"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo [--mode {edge,fast}]``
    Run a three-chip transaction and print the waveform-level summary.
``figures``
    Print the reproduced Figure 9/10/14/15 series as ASCII charts.
``tables``
    Print the reproduced Tables 1-3.
``systems [--mode {edge,fast}]``
    Run both Section 6.3 microbenchmark systems end to end.
``vcd PATH``
    Simulate a traced transaction and write a VCD file to PATH.
``run SCENARIO.json [--backend ...] [--faults FAULTS.json] [--json] [--output PATH]``
    Execute a declarative scenario (spec + workload) and report.
    ``--faults`` injects a JSON fault set (forces the edge backend)
    and adds reliability analytics; ``--output`` writes the full
    report JSON to a file.
``sweep SCENARIO.json [--backend ...] [--faults FAULTS.json] [--json] [--output PATH]``
    Map the scenario's parameter grid over runs (figure-style study).
    ``--output`` writes one JSON line per sweep point (JSONL): its
    ``params``, its record's ``report`` and its ``wall_s``.
    Implemented as a serial, uncached campaign; prefer ``campaign``.
``campaign run CAMPAIGN.json [--store DIR] [--executor serial|process] [--workers N]``
    Execute a campaign document: compile its grid to trials, serve
    unchanged trials from the content-addressed store, execute the
    rest (optionally process-parallel), and report the ResultSet.
    Failures are data: ``--wall-timeout`` bounds each trial,
    ``--retry-failed`` / ``--retry-quarantined`` re-execute cached
    failures, and SIGINT/SIGTERM checkpoint-and-stop instead of
    aborting.  ``--progress auto|always|never`` controls the stderr
    progress line (CI-safe flushed lines off-tty); ``--trace-out`` /
    ``--chrome`` record the run with :mod:`repro.obs`.  Exits 1 when
    any trial failed, 130 when interrupted.
``campaign status CAMPAIGN.json [--store DIR]``
    Report how many of the campaign's trials the store already holds,
    split by outcome (ok / error / timeout / crashed), with retry
    totals and the quarantined trial list.
``trace SCENARIO.json [--backend ...] [-o TRACE.jsonl] [--chrome CHROME.json]``
    Execute a scenario with observability on and record the span /
    metrics / profile trace as deterministic JSONL (optionally also
    Chrome trace_event JSON for chrome://tracing or Perfetto).
``stats TRACE.jsonl [TRACE2.jsonl ...] [--json]``
    Summarize one recorded trace (phase profile table), or diff the
    phase profiles of several — e.g. the same scenario traced on
    edge, fast and batch.
``campaign results CAMPAIGN.json [--store DIR] [--where k=v ...] [--failed-only]``
    Query stored results without executing anything.  Exits 1 when
    any reported trial failed.
``campaign compact CAMPAIGN.json --store DIR``
    Rewrite the store file, dropping superseded duplicate records.
``serve --root DIR [--host H] [--port P] [--queue-depth N] [--rate R] [--burst B]``
    Run the campaign server (:mod:`repro.serve`): accept campaign
    submissions over HTTP, execute them through the shared
    content-addressed store (dedupe across clients and restarts),
    stream results as JSONL, and journal jobs so a restarted server
    resumes in-flight campaigns at trial boundaries.  Exits 130 on
    SIGINT/SIGTERM (after checkpointing).
``campaign submit CAMPAIGN.json [--server HOST:PORT] [--client NAME] [--watch]``
    Submit a campaign document to a running server; with ``--watch``
    follow it to completion (exit 1 if any trial failed).
``campaign watch JOB_ID [--server HOST:PORT] [--output PATH]``
    Follow a submitted job to a terminal state, optionally writing
    its streamed result records as JSONL.
``fuzz [--count N] [--seed S] [--faults-fraction F] [--repro-dir DIR] [--backends LIST]``
    Differential fuzzing: seeded scenarios cross-checked across the
    backend matrix (``--backends edge,fast,batch`` adds the compiled
    tier; default edge vs fast) plus invariant checks; divergent
    cases are minimized and written as JSON repros.  Exits 1 on any
    divergence (the CI contract).
``reliability``
    Run the recovery-rate-vs-glitch-rate robustness study and print
    the figure.
``lint [PATH] [--select PASS,...] [--format text|json] [--list]``
    Static analysis: AST-based determinism & invariant passes over
    the repro sources (see :mod:`repro.lint`).  Exits 0 on a clean
    tree, 1 with file:line findings.

Every subcommand documents its exit codes in its ``--help`` epilog;
the shared convention is 0 success, 1 findings/failures reported,
2 usage error, 130 interrupted (campaign runs checkpoint first).

Scenario documents are JSON files with ``system`` / ``workload``
(and, for ``sweep``, a ``sweep`` grid) keys; fault documents hold a
``FaultSpec.to_dict()`` object; campaign documents add ``grid`` /
``faults`` / ``backend`` keys — see :mod:`repro.scenario`,
:mod:`repro.faults`, :mod:`repro.campaign` and EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import Series, ascii_chart, format_table
from repro.scenario.runner import BACKEND_REGISTRY, BACKENDS, backend_help


def _cmd_demo(args) -> int:
    from repro.core import Address, MBusSystem

    system = MBusSystem(mode=args.mode)
    system.add_mediator_node("cpu", short_prefix=0x1)
    system.add_node("sensor", short_prefix=0x2, power_gated=True)
    system.add_node("radio", short_prefix=0x3, power_gated=True)
    result = system.send("cpu", Address.short(0x2, 5), b"\x12\x34\x56\x78")
    print(f"cpu -> sensor (4 B): ok={result.ok}, "
          f"{result.clock_cycles}+{result.control_cycles} cycles, "
          f"{result.duration_ps / 1e6:.1f} us")
    print(f"sensor received {system.node('sensor').inbox[-1].payload.hex()} "
          f"and returned to sleep: {not system.node('sensor').is_fully_awake}")
    return 0


def _cmd_figures(_args) -> int:
    from repro.timing import max_clock_mhz_series
    from repro.timing.overhead import overhead_series
    from repro.timing.throughput import (
        parallel_goodput_series,
        transaction_rate_series,
    )

    print(ascii_chart(
        [Series.of("MBus max clock", max_clock_mhz_series())],
        x_label="nodes", y_label="MHz", title="Figure 9",
    ))
    print()
    print(ascii_chart(
        [Series.of(k, v) for k, v in overhead_series().items()],
        x_label="bytes", y_label="overhead bits", title="Figure 10",
    ))
    print()
    print(ascii_chart(
        [Series.of(f"{c/1e3:.0f} kHz", v)
         for c, v in sorted(transaction_rate_series().items())],
        x_label="bytes", y_label="trans/s", log_y=True, title="Figure 14",
    ))
    print()
    print(ascii_chart(
        [Series.of(f"{w} wire(s)", v)
         for w, v in sorted(parallel_goodput_series().items())],
        x_label="bytes", y_label="kbit/s", title="Figure 15",
    ))
    return 0


def _cmd_tables(_args) -> int:
    from repro.baselines.features import FEATURE_MATRIX
    from repro.power import MeasuredEnergyModel
    from repro.synthesis.area_model import table2_rows

    rows = [
        (n, f.io_pads(14), "Y" if f.synthesizable else "N",
         "Y" if f.power_aware else "N", f.overhead_note)
        for n, f in FEATURE_MATRIX.items()
    ]
    print(format_table(
        ["Bus", "Pads@14", "Synth", "PowerAware", "Overhead"],
        rows, title="Table 1 (abridged)",
    ))
    print()
    print(format_table(
        ["Module", "SLOC", "Gates", "Flops", "Paper um2", "Model um2"],
        table2_rows(), title="Table 2",
    ))
    print()
    model = MeasuredEnergyModel()
    print(format_table(
        ["Role", "pJ/bit"],
        [("TX (member+mediator)", model.roles.tx),
         ("RX", model.roles.rx),
         ("FWD", model.roles.fwd),
         ("Average", model.average_pj_per_bit())],
        title="Table 3",
    ))
    return 0


def _cmd_systems(args) -> int:
    from repro.systems import (
        ImagerSystem,
        SenseAndSendAnalysis,
        TemperatureSystem,
    )

    temp = TemperatureSystem(mode=args.mode)
    transactions = temp.run_round()
    print("sense & send:", ", ".join(
        f"{t.tx_node}->{'/'.join(t.rx_nodes)}" for t in transactions
    ))
    analysis = SenseAndSendAnalysis()
    print(f"  lifetime gain from direct routing: "
          f"{analysis.lifetime_gain_hours():.0f} hours")

    imager = ImagerSystem(rows=4, mode=args.mode)
    events = imager.motion_event()
    print(f"imager: motion event -> {len(events)} transactions, "
          f"{len(imager.received_rows())} rows at the radio")
    return 0


def _cmd_vcd(args) -> int:
    from repro.core import Address, MBusSystem

    system = MBusSystem(trace=True)
    system.add_mediator_node("m", short_prefix=0x1)
    system.add_node("a", short_prefix=0x2)
    system.add_node("b", short_prefix=0x3)
    system.send("a", Address.short(0x3, 5), b"\xCA\xFE")
    system.tracer.write_vcd(args.path)
    print(f"wrote {len(system.tracer.transitions)} transitions to {args.path}")
    return 0


def _load_cli_faults(args):
    if getattr(args, "faults", None) is None:
        return None
    from repro.faults import load_faults

    return load_faults(args.faults)


def _cmd_run(args) -> int:
    from repro.scenario import load_scenario, run

    spec, workload, _grid = load_scenario(args.scenario)
    faults = _load_cli_faults(args)
    report = run(spec, workload, backend=args.backend, faults=faults)
    document = report.to_dict()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote report to {args.output}")
    if args.json:
        print(json.dumps(document, indent=2))
    elif not args.output:
        print(report.summary())
    return 0


def _cmd_sweep(args) -> int:
    from repro.campaign import Campaign
    from repro.scenario import load_scenario

    spec, workload, grid = load_scenario(args.scenario)
    faults = _load_cli_faults(args)
    if not grid:
        print(f"error: {args.scenario} has no 'sweep' grid; use 'run' "
              "for a single execution", file=sys.stderr)
        return 2
    # A serial, uncached, in-memory campaign (see the `campaign`
    # command for the cached / parallel form); dedupe=False gives
    # every point its own execution and wall time.
    results = Campaign(
        spec=spec, workload=workload, grid=grid, faults=faults,
        backend=args.backend,
    ).run(executor="serial", resume=False, dedupe=False)
    if not results:
        print(f"error: the sweep grid in {args.scenario} enumerates no "
              "points (a parameter has an empty value list)",
              file=sys.stderr)
        return 2
    documents = [
        {"params": dict(r.params), "report": r.report, "wall_s": r.wall_s}
        for r in results
    ]
    if args.output:
        with open(args.output, "w") as handle:
            for document in documents:
                handle.write(json.dumps(document))
                handle.write("\n")
        print(f"wrote {len(documents)} sweep points to {args.output}")
    if args.json:
        print(json.dumps(documents, indent=2))
    elif not args.output:
        rows = [
            (
                _point_label(r.params),
                f"{r.report['n_ok']}/{r.report['n_transactions']}",
                f"{r.report['throughput_tps']:,.0f}",
                f"{r.report['goodput_bps'] / 1e3:,.1f}",
                f"{r.report['energy_pj'] / 1e3:.2f}",
            )
            if r.ok else (_point_label(r.params), r.outcome, "", "", "")
            for r in results
        ]
        print(format_table(
            ["Point", "OK", "txn/s", "kbit/s", "nJ"],
            rows,
            title=f"Sweep: {spec.name or 'scenario'} "
                  f"[{results[0].record['backend']} backend]",
        ))
    for r in results:
        if not r.ok:
            print(f"error: sweep point {_point_label(r.params)} failed: "
                  f"{r.failure.summary()}", file=sys.stderr)
    return 1 if results.failed else 0


def _point_label(params) -> str:
    return ", ".join(f"{k}={v}" for k, v in params.items())


def _parse_where(pairs):
    import json as json_module

    where = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"error: --where expects key=value, got {pair!r}")
        try:
            where[key] = json_module.loads(raw)
        except json_module.JSONDecodeError:
            where[key] = raw
    return where


def _campaign_result_document(campaign, results, store) -> dict:
    return {
        "name": campaign.name,
        "executor": results.executor,
        "n_trials": len(results),
        "executed": results.executed,
        "cached": results.cached,
        "cache_hit_rate": results.cache_hit_rate,
        "wall_s": results.wall_s,
        "failed": results.failed,
        "quarantined": results.quarantined,
        "interrupted": results.interrupted,
        "store": None if store is None else str(store),
        "results": results.records(),
    }


def _make_progress(mode: str):
    """The ``--progress`` callback for ``campaign run``.

    ``auto`` renders a live carriage-return line on a tty and falls
    back to throttled, explicitly flushed plain lines when stderr is
    not a tty (CI log capture, pipes) — a ``\\r`` line there sits
    invisible in the stream buffer until the run ends.  ``always``
    prints one flushed line per resolved trial; ``never`` disables
    progress output.
    """
    import time as time_module

    stream = sys.stderr
    if mode == "never":
        return None
    tty = bool(getattr(stream, "isatty", None) and stream.isatty())
    if mode == "auto" and tty:
        def live(done: int, total: int, _result) -> None:
            print(
                f"\rcampaign: {done}/{total} trial(s) complete",
                end="\n" if done == total else "",
                file=stream,
                flush=True,
            )
        return live
    throttle_s = 0.0 if mode == "always" else 1.0
    last = [float("-inf")]

    def lines(done: int, total: int, _result) -> None:
        now = time_module.monotonic()
        if done != total and now - last[0] < throttle_s:
            return
        last[0] = now
        print(
            f"campaign: {done}/{total} trial(s) complete",
            file=stream,
            flush=True,
        )
    return lines


def _cmd_campaign_run(args) -> int:
    from repro.campaign import load_campaign

    campaign = load_campaign(args.campaign)
    run_kwargs = dict(
        executor=args.executor,
        workers=args.workers,
        store=args.store,
        resume=not args.no_resume,
        wall_timeout_s=args.wall_timeout,
        retry_failed=args.retry_failed,
        retry_quarantined=args.retry_quarantined,
        install_signal_handlers=True,
        progress=_make_progress(args.progress),
    )
    if args.trace_out or args.chrome:
        from repro import obs

        with obs.observe() as session:
            results = campaign.run(**run_kwargs)
        meta = {
            "label": campaign.name or "campaign",
            "executor": args.executor,
        }
        records = obs.trace_records(
            session.tracer,
            meta=meta,
            metrics=session.metrics.snapshot(),
            profile=session.profiler.to_dict(),
        )
        if args.trace_out:
            from repro.obs.tracer import write_records

            write_records(args.trace_out, records)
            print(f"wrote {len(records)} trace record(s) to "
                  f"{args.trace_out}")
        if args.chrome:
            from repro.obs.cli import write_chrome

            write_chrome(args.chrome, records)
            print(f"wrote Chrome trace JSON to {args.chrome}")
    else:
        results = campaign.run(**run_kwargs)
    if args.output:
        results.to_jsonl(args.output)
        print(f"wrote {len(results)} result records to {args.output}")
    if args.json:
        print(json.dumps(
            _campaign_result_document(campaign, results, args.store),
            indent=2,
        ))
    elif not args.output:
        print(results.summary())
        print()
        print(results.to_table())
    if results.interrupted:
        return 130
    return 1 if results.failed else 0


def _cmd_campaign_status(args) -> int:
    from repro.campaign import load_campaign

    status = load_campaign(args.campaign).status(args.store)
    if args.json:
        print(json.dumps(status.to_dict(), indent=2))
    else:
        print(status.summary())
    return 0


def _cmd_campaign_results(args) -> int:
    from repro.campaign import ResultSet, ResultStore, load_campaign

    campaign = load_campaign(args.campaign)
    store = ResultStore(args.store, readonly=True)
    stored = [
        result
        for result in map(store.result, campaign.trials())
        if result is not None
    ]
    results = ResultSet(stored, executor="store", name=campaign.name)
    where = _parse_where(args.where)
    if where:
        results = results.filter(**where)
    if args.failed_only:
        results = results.failures()
    if not stored:
        print(f"no stored results for this campaign in {args.store}",
              file=sys.stderr)
        return 1
    if args.output:
        results.to_jsonl(args.output)
        print(f"wrote {len(results)} result records to {args.output}")
    if args.json:
        print(json.dumps(results.records(), indent=2))
    elif not args.output:
        print(results.summary())
        print()
        print(results.to_table())
    return 1 if results.failed else 0


def _cmd_campaign_compact(args) -> int:
    from repro.campaign import ResultStore

    if args.store is None:
        print("error: campaign compact requires --store DIR",
              file=sys.stderr)
        return 2
    store = ResultStore(args.store, auto_compact=False)
    reclaimed = store.compact()
    if args.json:
        print(json.dumps({
            "store": str(args.store),
            "live_records": len(store),
            "reclaimed_lines": reclaimed,
        }))
    else:
        print(f"compacted {args.store}: {len(store)} live record(s), "
              f"{reclaimed} superseded line(s) reclaimed")
    return 0


def _cmd_campaign_submit(args) -> int:
    from repro.serve.cli import cmd_campaign_submit

    return cmd_campaign_submit(args)


def _cmd_campaign_watch(args) -> int:
    from repro.serve.cli import cmd_campaign_watch

    return cmd_campaign_watch(args)


def _cmd_campaign(args) -> int:
    return {
        "run": _cmd_campaign_run,
        "status": _cmd_campaign_status,
        "results": _cmd_campaign_results,
        "compact": _cmd_campaign_compact,
        "submit": _cmd_campaign_submit,
        "watch": _cmd_campaign_watch,
    }[args.campaign_command](args)


def _cmd_serve(args) -> int:
    from repro.serve.cli import cmd_serve

    return cmd_serve(args)


def _cmd_trace(args) -> int:
    from repro.obs.cli import cmd_trace

    return cmd_trace(args)


def _cmd_stats(args) -> int:
    from repro.obs.cli import cmd_stats

    return cmd_stats(args)


def _cmd_fuzz(args) -> int:
    from repro.diffcheck import fuzz

    backends = tuple(
        name.strip() for name in args.backends.split(",") if name.strip()
    )
    bad = [
        name for name in backends
        if name not in BACKEND_REGISTRY or BACKEND_REGISTRY[name].selector
    ]
    if bad or len(backends) < 2:
        concrete = ", ".join(
            name for name, info in BACKEND_REGISTRY.items()
            if not info.selector
        )
        print(
            f"fuzz: --backends needs two or more of: {concrete} "
            f"(got {args.backends!r})",
            file=sys.stderr,
        )
        return 2
    report = fuzz(
        count=args.count,
        seed=args.seed,
        faults_fraction=args.faults_fraction,
        repro_dir=None if args.no_repros else args.repro_dir,
        minimize=not args.no_minimize,
        invariants=not args.no_invariants,
        backends=backends,
        progress=(
            None if args.json
            else lambda line: print(f"divergent: {line}", file=sys.stderr)
        ),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return report.exit_code


def _cmd_lint(args) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def _cmd_reliability(args) -> int:
    from repro.analysis.reliability import recovery_vs_glitch_rate

    rows = recovery_vs_glitch_rate(
        seed=args.seed,
        executor=args.executor,
        workers=args.workers,
        store=args.store,
    )
    print(format_table(
        ["glitch/s", "recovery", "intact", "corrupt", "lost", "failed txns",
         "interject"],
        [
            (
                f"{row['glitch_rate_hz']:g}",
                f"{row['recovery_rate']:.1%}",
                row["intact_deliveries"],
                row["corrupted_deliveries"],
                row["lost_deliveries"],
                f"{row['failed_transactions']}/{row['n_transactions']}",
                row["interjections"],
            )
            for row in rows
        ],
        title="Recovery rate vs. glitch rate (seeded EMI, edge backend)",
    ))
    print()
    print(ascii_chart(
        [Series.of(
            "recovery rate",
            [(row["glitch_rate_hz"], row["recovery_rate"]) for row in rows],
        )],
        x_label="glitches/s", y_label="recovered fraction",
        title="Robustness: intact deliveries under seeded wire glitches",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MBus (ISCA 2015) reproduction tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    exit_ok = "exit codes: 0 success, 2 usage error"
    demo = sub.add_parser(
        "demo", help="run a three-chip transaction", epilog=exit_ok
    )
    sub.add_parser("figures", help="print reproduced figures",
                   epilog=exit_ok)
    sub.add_parser("tables", help="print reproduced tables",
                   epilog=exit_ok)
    systems = sub.add_parser(
        "systems", help="run the 6.3 microbenchmark systems",
        epilog=exit_ok,
    )
    for command in (demo, systems):
        command.add_argument(
            "--mode",
            choices=("edge", "fast"),
            default="edge",
            help="simulation backend (default: edge-accurate)",
        )
    vcd = sub.add_parser("vcd", help="write a waveform VCD",
                         epilog=exit_ok)
    vcd.add_argument("path")
    run_cmd = sub.add_parser(
        "run", help="execute a declarative scenario",
        epilog="exit codes: 0 success, 2 usage error (bad scenario "
               "or fault document)",
    )
    sweep_cmd = sub.add_parser(
        "sweep", help="map a scenario's parameter grid over runs",
        epilog="exit codes: 0 all points ok, 1 any point failed "
               "(named on stderr), 2 usage error (missing or empty "
               "sweep grid)",
    )
    for command in (run_cmd, sweep_cmd):
        command.add_argument("scenario", help="path to a scenario JSON file")
        command.add_argument(
            "--backend",
            choices=BACKENDS,
            default="auto",
            help=f"simulation backend (default: auto). {backend_help()}",
        )
        command.add_argument(
            "--faults",
            metavar="FAULTS.json",
            help="inject a JSON fault set (forces the edge backend and "
                 "adds reliability analytics)",
        )
        command.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        command.add_argument(
            "--output",
            metavar="PATH",
            help="write results to a file (run: JSON report; sweep: one "
                 "JSON line per point)",
        )
    campaign_cmd = sub.add_parser(
        "campaign",
        help="compile, execute and query cached experiment campaigns",
        epilog="exit codes: per subcommand (see its --help); common "
               "convention: 0 success, 1 failed trials reported, "
               "2 usage error, 130 interrupted",
    )
    campaign_sub = campaign_cmd.add_subparsers(
        dest="campaign_command", required=True
    )
    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign document (cached, resumable)",
        epilog="exit codes: 0 all trials ok, 1 any trial failed, "
               "2 usage error, 130 interrupted (checkpointed; rerun "
               "to resume)",
    )
    campaign_status = campaign_sub.add_parser(
        "status", help="report cache coverage for a campaign",
        epilog="exit codes: 0 success, 2 usage error",
    )
    campaign_results = campaign_sub.add_parser(
        "results", help="query stored results without executing",
        epilog="exit codes: 0 all reported trials ok, 1 any reported "
               "trial failed or no stored results, 2 usage error",
    )
    campaign_compact = campaign_sub.add_parser(
        "compact",
        help="rewrite the store, dropping superseded duplicate records",
        epilog="exit codes: 0 success, 2 usage error (--store is "
               "required)",
    )
    for command in (
        campaign_run, campaign_status, campaign_results, campaign_compact,
    ):
        command.add_argument(
            "campaign", help="path to a campaign JSON document"
        )
        command.add_argument(
            "--store",
            metavar="DIR",
            help="ResultStore directory (content-addressed trial cache); "
                 "omitted = in-memory scratch store",
        )
        command.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
    campaign_run.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="trial executor (default: serial)",
    )
    campaign_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for --executor process",
    )
    campaign_run.add_argument(
        "--no-resume",
        action="store_true",
        help="re-execute every trial even when the store has it",
    )
    campaign_run.add_argument(
        "--wall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per trial; a trial past it is recorded "
             "as outcome=timeout instead of hanging the campaign",
    )
    campaign_run.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-execute trials whose cached record is a failure "
             "(quarantined trials stay parked)",
    )
    campaign_run.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="re-execute every cached failure, quarantined ones included",
    )
    campaign_run.add_argument(
        "--progress",
        choices=("auto", "always", "never"),
        default="auto",
        help="trial progress on stderr: auto = live line on a tty, "
             "throttled flushed lines otherwise (CI-safe); always = "
             "one flushed line per trial; never = silent "
             "(default: auto)",
    )
    campaign_run.add_argument(
        "--trace-out",
        metavar="TRACE.jsonl",
        help="record the run with repro.obs and write the span/metrics/"
             "profile trace as JSONL",
    )
    campaign_run.add_argument(
        "--chrome",
        metavar="CHROME.json",
        help="also write the Chrome trace_event JSON "
             "(chrome://tracing, Perfetto)",
    )
    campaign_results.add_argument(
        "--where",
        action="append",
        metavar="KEY=VALUE",
        help="filter rows by parameter equality (repeatable; value "
             "parsed as JSON, falling back to string)",
    )
    campaign_results.add_argument(
        "--failed-only",
        action="store_true",
        help="show only trials whose stored record is a failure",
    )
    campaign_submit = campaign_sub.add_parser(
        "submit",
        help="submit a campaign document to a running campaign server",
        epilog="exit codes: 0 accepted (with --watch: all trials ok), "
               "1 rejected or failed trials, 2 usage error, "
               "130 interrupted (the job keeps running server-side)",
    )
    campaign_submit.add_argument(
        "campaign", help="path to a campaign JSON document"
    )
    campaign_watch = campaign_sub.add_parser(
        "watch",
        help="follow a submitted job to completion, optionally "
             "streaming its results",
        epilog="exit codes: 0 job done with no failed trials, 1 failed "
               "trials or watch timeout, 2 usage error or unknown job, "
               "130 interrupted",
    )
    campaign_watch.add_argument(
        "job_id", help="job id returned by 'campaign submit'"
    )
    for command in (campaign_submit, campaign_watch):
        command.add_argument(
            "--server",
            default="127.0.0.1:8642",
            metavar="HOST:PORT",
            help="campaign server address (default: 127.0.0.1:8642)",
        )
        command.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="give up watching after this long (the job itself "
                 "keeps running server-side)",
        )
        command.add_argument(
            "--output",
            metavar="PATH",
            help="write the job's streamed result records as JSONL",
        )
        command.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
    campaign_submit.add_argument(
        "--client",
        default="anonymous",
        metavar="NAME",
        help="client token for rate limiting and dedupe accounting "
             "(default: anonymous)",
    )
    campaign_submit.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="server-side trial executor (default: serial)",
    )
    campaign_submit.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for --executor process",
    )
    campaign_submit.add_argument(
        "--wall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side wall-clock budget per trial",
    )
    campaign_submit.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-execute trials whose cached record is a failure",
    )
    campaign_submit.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="re-execute every cached failure, quarantined ones included",
    )
    campaign_submit.add_argument(
        "--watch",
        action="store_true",
        help="follow the job to completion (like 'campaign watch')",
    )
    for command in (campaign_run, campaign_results):
        command.add_argument(
            "--output",
            metavar="PATH",
            help="write one canonical record per line (JSONL)",
        )
    serve_cmd = sub.add_parser(
        "serve",
        help="run the campaign server (submissions over HTTP, shared "
             "dedupe store, streaming results, restart survival)",
        epilog="exit codes: 0 clean shutdown, 2 usage error (bad root "
               "or bind failure), 130 stopped by SIGINT/SIGTERM "
               "(checkpointed; restart to resume in-flight jobs)",
    )
    serve_cmd.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="server state directory (results store + job journal); "
             "omitted = in-memory (no restart survival)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8642,
        help="port to bind (default: 8642; 0 = ephemeral)",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="max queued jobs across all clients before 503 "
             "(default: 16)",
    )
    serve_cmd.add_argument(
        "--rate", type=float, default=10.0, metavar="PER_S",
        help="per-client sustained submissions/s before 429 "
             "(default: 10)",
    )
    serve_cmd.add_argument(
        "--burst", type=float, default=20.0, metavar="N",
        help="per-client submission burst size (default: 20)",
    )
    serve_cmd.add_argument(
        "--no-obs", action="store_true",
        help="disable repro.obs metrics/profiling (empties /v1/metrics)",
    )
    trace_cmd = sub.add_parser(
        "trace",
        help="execute a scenario with observability on and record "
             "the span/metrics/profile trace",
        epilog="exit codes: 0 success, 2 usage error (bad scenario "
               "or fault document)",
    )
    trace_cmd.add_argument("scenario", help="path to a scenario JSON file")
    trace_cmd.add_argument(
        "--backend",
        choices=BACKENDS,
        default="auto",
        help=f"simulation backend (default: auto). {backend_help()}",
    )
    trace_cmd.add_argument(
        "--faults",
        metavar="FAULTS.json",
        help="inject a JSON fault set (forces the edge backend)",
    )
    trace_cmd.add_argument(
        "-o", "--output",
        metavar="TRACE.jsonl",
        default="trace.jsonl",
        help="trace JSONL output path (default: trace.jsonl)",
    )
    trace_cmd.add_argument(
        "--chrome",
        metavar="CHROME.json",
        help="also write the Chrome trace_event JSON "
             "(chrome://tracing, Perfetto)",
    )
    trace_cmd.add_argument(
        "--label",
        default=None,
        help="trace label for stats diffs (default: the scenario name)",
    )
    stats_cmd = sub.add_parser(
        "stats",
        help="summarize a recorded trace, or diff phase profiles "
             "across several (e.g. one per backend)",
        epilog="exit codes: 0 success, 2 usage error (unreadable "
               "trace file)",
    )
    stats_cmd.add_argument(
        "traces", nargs="+",
        help="trace JSONL file(s) recorded by 'repro trace' or "
             "'repro campaign run --trace-out'",
    )
    stats_cmd.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differential fuzzing across the backend matrix "
             "(edge vs fast by default) plus invariant checks",
        epilog="exit codes: 0 no divergence, 1 divergence found "
               "(repros written unless --no-repros), 2 usage error",
    )
    fuzz_cmd.add_argument(
        "--count", type=int, default=100,
        help="number of seeded scenarios (default: 100)",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    fuzz_cmd.add_argument(
        "--faults-fraction", type=float, default=0.25,
        help="fraction of scenarios drawing a fault set (default: 0.25)",
    )
    fuzz_cmd.add_argument(
        "--repro-dir", default="fuzz_repros", metavar="DIR",
        help="where minimized divergence repros are written "
             "(default: fuzz_repros)",
    )
    fuzz_cmd.add_argument(
        "--no-repros", action="store_true",
        help="do not write repro files for divergent scenarios",
    )
    fuzz_cmd.add_argument(
        "--no-minimize", action="store_true",
        help="record raw divergent scenarios instead of shrinking them",
    )
    fuzz_cmd.add_argument(
        "--backends", default="edge,fast", metavar="LIST",
        help="comma-separated backend matrix; the first entry is the "
             "reference every other backend is diffed against "
             "(e.g. edge,fast,batch; default: edge,fast)",
    )
    fuzz_cmd.add_argument(
        "--no-invariants", action="store_true",
        help="skip replay-determinism and empty-fault-spec checks "
             "(cross-backend diff only; roughly 3x faster)",
    )
    fuzz_cmd.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    reliability_cmd = sub.add_parser(
        "reliability",
        help="run the recovery-vs-glitch-rate robustness study",
        epilog=exit_ok,
    )
    reliability_cmd.add_argument(
        "--seed", type=int, default=7, help="EMI seed (default: 7)"
    )
    reliability_cmd.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="campaign executor for the study (default: serial)",
    )
    reliability_cmd.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for --executor process",
    )
    reliability_cmd.add_argument(
        "--store", metavar="DIR", default=None,
        help="ResultStore directory to memoise the study's trials",
    )
    lint_cmd = sub.add_parser(
        "lint",
        help="static analysis: determinism & invariant passes over "
             "the repro sources",
        epilog="exit codes: 0 clean, 1 findings reported, 2 usage "
               "error",
    )
    lint_cmd.add_argument(
        "path", nargs="?", default=None,
        help="package root to lint (default: the installed repro "
             "package)",
    )
    lint_cmd.add_argument(
        "--select", metavar="PASS[,PASS...]", default=None,
        help="run only the named passes (default: all)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="findings output format (default: text)",
    )
    lint_cmd.add_argument(
        "--list", action="store_true",
        help="list registered passes and exit",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "demo": _cmd_demo,
        "figures": _cmd_figures,
        "tables": _cmd_tables,
        "systems": _cmd_systems,
        "vcd": _cmd_vcd,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "fuzz": _cmd_fuzz,
        "reliability": _cmd_reliability,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
