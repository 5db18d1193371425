"""triplex benchmark: cold-process workloads timed end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pbw-s2 --seed 0 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (one_pass.py), one at a time, because
a CLI user pays import, the free-monomial cache and the build on every call.
With ``--trace 0`` the run repeats full passes while the next one fits in
``--seconds``, then fills the rest with set-up-only passes, and reports the
medians of the end-to-end metrics.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics of the traced one.
Times are in reference seconds: wall time rescaled by the machine speed a
probe measured during the pass (speed.py).
The last line of standard output is one JSON object; the lines before it
print the same metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASS = Path(__file__).resolve().with_name("one_pass.py")
RUN_BUDGET = 170.0  # seconds; a run must end well within the 180 s limit
MAX_SETUPS = 5      # set-up samples per untraced run


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, trace=False, setup_only=False, timeout=RUN_BUDGET):
    """Run one pass in a fresh interpreter; return (its result, seconds taken)."""
    # a fixed string hash gives every pass the same dict layouts; the pass
    # puts the checkout's src first on its own path
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    cmd = [sys.executable, str(PASS), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass timed out after {exc.timeout:.0f} s") from exc
    taken = time.monotonic() - spawned
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited with code {proc.returncode}")
    return json.loads(lines[-1]), taken


def untraced_run(workload, seed, seconds, start):
    """Full passes while the next fits in ``seconds``, then set-up-only passes."""
    full, setups, longest = [], [], 0.0
    while True:
        result, taken = run_pass(workload, seed,
                                 timeout=RUN_BUDGET - (time.monotonic() - start))
        full.append(result)
        setups.append(result)
        longest = max(longest, taken)
        if time.monotonic() - start + longest > seconds:
            break
    longest_setup = max(r["setup_s"] for r in full) * 1.2
    while (len(setups) < MAX_SETUPS
           and time.monotonic() - start + longest_setup <= seconds):
        result, taken = run_pass(workload, seed, setup_only=True,
                                 timeout=RUN_BUDGET - (time.monotonic() - start))
        setups.append(result)
        longest_setup = max(longest_setup, taken)
    metrics = {name: statistics.median(r[name] for r in full)
               for name in ("wall_s", "work_s", "peak_rss_mib", "raw_wall_s")}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    return metrics, setups, f"{len(full)} full + {len(setups) - len(full)} set-up-only"


def traced_run(workload, seed, start):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain, _ = run_pass(workload, seed, timeout=RUN_BUDGET - (time.monotonic() - start))
    traced, _ = run_pass(workload, seed, trace=True,
                         timeout=RUN_BUDGET - (time.monotonic() - start))
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics["probe.raw_wall_s"] = traced["raw_wall_s"]
    metrics["probe.speed"] = traced["wall_s"] / traced["raw_wall_s"]
    return metrics, [plain, traced], "1 untraced + 1 traced"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triplex" / "__init__.py").is_file():
        print(f"error: no triplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    try:
        if args.trace:
            measured, passes, plan = traced_run(args.workload, args.seed, start)
        else:
            measured, passes, plan = untraced_run(args.workload, args.seed,
                                                  args.seconds, start)
    except PassFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    measured["error_frac"] = failed / attempted

    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"{args.workload} seed {args.seed}: {plan} passes in "
          f"{time.monotonic() - start:.1f} s")
    if "raw_wall_s" in measured:
        print(f"  {'raw wall (unscaled, median)':<36} {measured['raw_wall_s']:>14.6g}  s")
    print(f"  {'error_frac':<36} {measured['error_frac']:>14.6g}  ({failed}/{attempted})")
    for name, m in metrics.items():
        if name != "error_frac":
            print(f"  {name:<36} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
