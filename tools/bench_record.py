"""Save one benchmark run as ``BENCH_<label>.json``.

Run from the root of a checkout:

    python3 tools/bench_record.py LABEL -- --workload pbw-s2 --seed 0 --seconds 40 --trace 0

This runs ``perfbench/run.py`` of the current directory with the arguments
after ``--``, passes its output through, and writes its last line (one JSON
object) to ``BENCH_<label>.json`` at the root of the repository that holds
this script, with the label and the arguments.  To record an earlier
commit's run beside this one, run this script from a copy of that commit:

    cd <copy> && python3 <this repository>/tools/bench_record.py LABEL -- ...

A failed run writes nothing and exits with the run's code.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: bench_record.py LABEL -- RUN_ARGS..."


def record(label, run_args):
    """Run the benchmark; return (exit code, path written or None)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *run_args],
                          cwd=Path.cwd(), capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    doc = {"label": label, "run_args": list(run_args), "result": json.loads(lines[-1])}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0, path


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) < 2 or argv[1] != "--":
        print(USAGE, file=sys.stderr)
        return 2
    label = argv[0]
    if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
        print(f"{USAGE}\nbad label {label!r}: letters, digits, '.', '_', '-'",
              file=sys.stderr)
        return 2
    code, path = record(label, argv[2:])
    if path is not None:
        print(f"wrote {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
