"""Record the reference ν̂ values that the benchmark's output checks use.

    python3 benchmarks/record_references.py

For each workload, runs its inputs for seed 0 in this process and writes
the estimates of its reference seed (prefix size -> [ML, CV]) to
``benchmarks/references.json``.  The committed values were
recorded on the code the benchmark was introduced with; re-record only
when a change to the estimates is intended.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    references = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(0, tiny=False)
        outcome = workload.check(inputs, workload.run(inputs, scratch), {})
        if outcome.failed or not outcome.anchor:
            print(f"{name}: checks failed, nothing recorded: {outcome.problems}",
                  file=sys.stderr)
            return 1
        references[name] = outcome.anchor
        print(f"{name}: seed {workload.reference_seed}, {len(outcome.anchor)} prefix sizes")
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
