"""Benchmark entry point: one workload (or all) end to end.

    python3 perfbench/run.py --workload fleet-run --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in a fresh interpreter (``workloads.py``), so the
compile cache, batch templates and the numpy import never leak from
one workload into the next.  With ``--trace 0`` this prints the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run fingerprint.  Set-up time is sampled in separate interpreters
(``SETUP_SAMPLES`` of them plus the measured one) and reported as
their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 4            # extra set-up-only interpreters per run
SETUP_TIMEOUT_S = 120
RESULT_GRACE_S = 150         # beyond --seconds, for checks and teardown


def benchmark():
    """``BENCHMARK.json``: the workloads and every metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class BenchError(Exception):
    """The run could not produce a result."""


def _child(workload, seed, seconds, trace, setup_only):
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    # The host's speed right now, for the set-up time (see calibration.py).
    scale = calibration.scale([calibration.loop_ms() for _ in range(5)])
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        ready = process.stdout.readline()
        setup_s = (time.perf_counter() - start) * scale
        if ready.strip() != "READY":
            raise BenchError(f"{workload}: set-up failed")
        remaining = SETUP_TIMEOUT_S if setup_only else (
            seconds + RESULT_GRACE_S
        )
        output, _ = process.communicate(timeout=remaining)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    if process.returncode != 0:
        raise BenchError(f"{workload}: exited with {process.returncode}")
    if setup_only:
        return setup_s, None
    lines = output.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: no result")
    return setup_s, json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (metrics, attempted, failed, child doc),
    with the metrics and units ``BENCHMARK.json`` names for the mode."""
    setup = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            setup.append(_child(workload, seed + 7919 * (i + 1), seconds,
                                trace, setup_only=True)[0])
    setup_s, doc = _child(workload, seed, seconds, trace, setup_only=False)
    setup.append(setup_s)
    metrics = dict(doc["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setup)
    names = benchmark()["per_layer" if trace else "end_to_end"]
    return (
        {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
         for m in names},
        doc["attempted"],
        doc["failed"],
        doc,
    )


def _filesystem(path):
    """Type of the filesystem holding ``path`` (store fsync cost
    differs between tmpfs and disk, so runs on different ones are not
    comparable)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(seed, docs):
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "batch_accel_backend": sorted({d["accel_backend"] for d in docs}),
        "REPRO_BATCH_NUMPY": os.environ.get("REPRO_BATCH_NUMPY"),
        "store_filesystem": _filesystem(WORK),
    }


def main(argv=None):
    workloads = tuple(w["name"] for w in benchmark()["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = workloads if args.workload == "all" else (args.workload,)
    combined, attempted, failed, docs = {}, 0, 0, []
    try:
        for name in names:
            metrics, tried, bad, doc = measure(
                name, args.seed, args.seconds, args.trace
            )
            attempted += tried
            failed += bad
            docs.append(doc)
            print(f"[{name}] {tried} outputs checked, {bad} failed; "
                  f"{doc['cold_ops']} cold ops, p90 {doc['op_p90_ms']:.4g} "
                  f"ms; calibration loop {doc['loop_ms']:.3f} ms "
                  f"(reference {calibration.REFERENCE_LOOP_MS} ms)")
            for metric, entry in metrics.items():
                print(f"  {metric:34s} {entry['value']:14.6g} "
                      f"{entry['unit']}")
            if name == "campaign-batch" and args.trace:
                put = metrics["campaign.store_put_ms"]["value"]
                execute = metrics["batch.execute_ms"]["value"]
                verdict = "exceeds" if put > execute else "does not exceed"
                print(f"  campaign.store_put_ms ({put:.4f}) {verdict} "
                      f"batch.execute_ms ({execute:.4f})")
            if len(names) == 1:
                combined = metrics
            else:
                combined.update(
                    {f"{name}/{m}": e for m, e in metrics.items()}
                )
    except (BenchError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"fingerprint": fingerprint(args.seed, docs)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
