"""Short self-test of the benchmark (not part of the pytest suite).

    python3 perfbench/selftest.py [--seconds 1]

Runs every workload briefly, untraced and traced, and asserts that
each metric named in ``BENCHMARK.json`` is emitted with its unit and
that every output check passed.  Then runs the entry point in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``, where
it must fail without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd, workload, seconds, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = _run(ROOT, workload, args.seconds, trace)
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output checks failed")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
            units = {name: entry["unit"]
                     for name, entry in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units differ from "
                                "BENCHMARK.json")
            print(f"ok  {label}: {result['attempted']} checks")

    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _run(bare, bench["workloads"][0]["name"], args.seconds, 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("run without program sources did not fail cleanly")
    else:
        print("ok  without program sources: exit", done.returncode)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
