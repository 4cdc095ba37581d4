"""Regenerate ``reference.json``: the fleet's expected output digest,
taken from the transaction-level fast backend (not the batch backend
the benchmark times), and cross-checked against batch.

Run from the repository root: ``python3 perfbench/make_reference.py``.
The fast backend needs a few seconds for the 10,098 transactions.
"""

import json
import os
import sys

import workloads

from repro.scenario import run


def main():
    spec, workload, payload_of = workloads.fleet_documents(seed=0)
    fast = run(spec, workload, backend="fast")
    batch = run(spec, workload, backend="batch")
    digest = workloads.fleet_digest(fast, payload_of)
    if workloads.fleet_digest(batch, payload_of) != digest:
        sys.exit("batch disagrees with fast on the fleet; not writing")
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w") as handle:
        json.dump({"fleet_digest": digest,
                   "fleet_transactions": fast.n_transactions},
                  handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
