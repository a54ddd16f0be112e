#!/usr/bin/env python3
"""Record bench/reference.json from the library in this checkout.

    python3 bench/make_reference.py

The file holds what the workload checks compare against: the basis-pool size
and identity count of every ``axioms`` module at the benchmark's box, and an
order-independent digest of every ``mults`` sweep.  It was recorded once,
when the benchmark was added; regenerate it only on purpose, for a change
that is meant to change these answers.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gtrel as g  # noqa: E402

import workloads  # noqa: E402


def main():
    axioms = {}
    for name, M in workloads.catalog():
        report = g.verify_axioms(M, box=workloads.AXIOM_BOX, samples=1)
        axioms[name] = {"pool": report["pool"], "identities": report["identities"]}
    mults = {}
    for key, lam, box, _ in workloads.mult_cases():
        mults[key] = workloads.sweep_digest(g.weight_multiplicity_sweep(g.hw_module_of(lam), box))
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"axioms": axioms, "mults": mults}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
