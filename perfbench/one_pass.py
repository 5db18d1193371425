"""One benchmark pass, run in a fresh interpreter by run.py.

It imports triplex from the checkout's ``src``, loads the workload's system,
builds and certifies the algebra (the set-up), runs the workload's operations
(the work) and checks every output against golden.json.  The last line of
standard output is one JSON object with the pass's timings and counts.

Times are measured from ``--spawned``, the monotonic clock reading that
run.py took just before starting this interpreter, so import is included.
They are reported in reference seconds (see speed.py); ``raw_wall_s`` is
the unscaled wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer
from workloads import (WORKLOADS, build_digest, expected, load_golden, operations,
                       suite_names)

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, seed, golden, setup_only=False, tracer=None, spawned=None,
             probe=None):
    """Set up, run and check one workload; return the pass's measurements.

    With a running ``probe``, times are in reference seconds and the probe
    is stopped; without one they are raw seconds.
    """
    from triplex import cli, envelope
    clock = time.monotonic
    spawned = clock() if spawned is None else spawned
    system = cli.load_system(ROOT / "src" / "triplex" / "data" / workload.system)
    try:
        alg = envelope.build(system, workload.cap)
    except Exception:  # counted as failed operations below
        traceback.print_exc()
        alg = None
    setup_done = clock()
    attempted, failed = 1, int(alg is None or build_digest(alg) != golden["build"])
    if not setup_only and alg is None:
        n = (len(golden["normal_forms"]) if workload.kind == "pbw"
             else len(suite_names(system, workload.skip)))
        attempted += n
        failed += n
    elif not setup_only:
        for key, run in operations(workload, system, alg, seed):
            attempted += 1
            try:
                got = run()
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                failed += 1
                continue
            if got != expected(golden, key, seed):
                print(f"digest mismatch: {workload.name} {key} seed {seed}",
                      file=sys.stderr)
                failed += 1
    done = clock()
    if probe is not None:
        probe.stop()
    elapsed = probe.elapsed if probe is not None else lambda a, b: b - a
    result = {
        "setup_s": elapsed(spawned, setup_done),
        "work_s": elapsed(setup_done, done),
        "wall_s": elapsed(spawned, done),
        "raw_wall_s": done - spawned,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(probe.reference_time if probe else None)
        layers["freealg.table_size"] = alg.table.size if alg else 0
        layers["envelope.relspan_dim"] = alg.relspan_dim if alg else 0
        result["layers"] = layers
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import triplex
    if Path(triplex.__file__).resolve().parent != ROOT / "src" / "triplex":
        raise SystemExit(f"triplex was imported from {triplex.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    golden = load_golden()[args.workload]
    result = run_pass(WORKLOADS[args.workload], args.seed, golden,
                      args.setup_only, tracer, args.spawned, probe)
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.tsv", trace_id)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
