"""Record golden.json: the digests every benchmark pass is checked against.

Run from the repository root, only when outputs are meant to change:

    python3 perfbench/record_golden.py

Each verify workload runs every suite at seed 0 (the default) and seed 1
(held out).  A suite whose report is the same at both seeds gets one digest;
a suite whose report depends on the seed gets one digest per seed.  pbw-s2
records the normal form of every free monomial, indexed by its position in
the monomial table (they do not depend on the seed, which only orders the
reads).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from triplex import cli, envelope  # noqa: E402

from workloads import (GOLDEN_PATH, SUITE_SEEDS, WORKLOADS, build_digest,  # noqa: E402
                       normal_form_digest, report_digest, run_suite_on, suite_names)


def record(workload):
    system = cli.load_system(ROOT / "src" / "triplex" / "data" / workload.system)
    alg = envelope.build(system, workload.cap)
    out = {"build": build_digest(alg)}
    if workload.kind == "pbw":
        out["normal_forms"] = [normal_form_digest(alg.reduce_tree(t))
                               for t in alg.table.trees]
        return out
    out["suites"] = {}
    for name in suite_names(system, workload.skip):
        digests = [report_digest(run_suite_on(name, system, alg, s))
                   for s in range(SUITE_SEEDS)]
        same = len(set(digests)) == 1
        out["suites"][name] = digests[0] if same else dict(enumerate(digests))
        print(f"{workload.name} {name}: {'one digest' if same else 'per seed'}",
              file=sys.stderr)
    return out


def main():
    golden = {name: record(w) for name, w in WORKLOADS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
