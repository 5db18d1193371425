"""The benchmark's workloads and the digests their outputs are checked by.

Every workload builds one certified algebra with ``envelope.build`` (the
set-up) and then runs its operations on it (the work).  An operation is the
build, one suite call or one normal-form read; each yields a digest that is
compared with ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# the verify workloads pass ``seed % SUITE_SEEDS`` to the suites: suite seed
# 0 is the default and 1 is held out.  golden.json records reports for these
# seeds only.  More suite seeds would widen the spread: mainthm's random
# elements change its cost by up to 15% from one suite seed to another.
SUITE_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    system: str          # file name under src/triplex/data
    cap: int
    kind: str            # "pbw": read every normal form; "verify": run suites
    skip: tuple = ()     # suites left out of a verify workload


WORKLOADS = {w.name: w for w in (
    Workload("pbw-s2", "s2.json", 6, "pbw"),
    Workload("verify-s2_plus_s2", "s2_plus_s2.json", 4, "verify"),
    Workload("verify-sl3_sym-no-mainthm", "sl3_sym.json", 4, "verify", ("mainthm",)),
)}


def digest(text, size=64):
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def build_digest(alg):
    return digest(json.dumps({
        "cap": alg.cap, "nf_size": alg.nf_size, "table_size": alg.table.size,
        "degree_dims": alg.degree_dims, "relspan_degree_dims": alg.relspan_degree_dims,
        "relspan_dim": alg.relspan_dim}, sort_keys=True))


def normal_form_digest(element):
    return digest(";".join(f"{v}:{a}" for v, a in element.terms()), 16)


def report_digest(report):
    """Digest of the report exactly as ``triplex verify --json`` prints it."""
    return digest(json.dumps(report.to_dict(machine=True), sort_keys=True, indent=2))


def suite_names(system, skip=()):
    """The suites ``run_suite("all", ...)`` runs on ``system``, minus ``skip``."""
    from triplex import suites
    names = [n for n in suites.SUITE_NAMES if n not in ("all", "s2")]
    if system.dim == 2:
        names.append("s2")
    return sorted(n for n in names if n not in skip)


def run_suite_on(name, system, alg, seed):
    """One public ``suites.suite_<name>`` call on a prebuilt algebra."""
    from triplex import suites

    def alg_cache(cap):
        if cap != alg.cap:
            raise ValueError(f"suite asked for cap {cap}, the algebra has {alg.cap}")
        return alg

    return getattr(suites, f"suite_{name}")(system, alg_cache, alg.cap, seed).finish()


def combine(reports):
    """Merge per-suite reports the way ``run_suite("all", ...)`` does."""
    from triplex import suites
    combined = suites.SuiteReport("all")
    for name in sorted(reports):
        for r in reports[name].records:
            combined.records.append({**r, "id": f"{name}.{r['id']}"})
    return combined.finish()


def operations(workload, system, alg, seed):
    """Yield (key, thunk) for each operation after the build, in run order.

    The thunk performs the operation and returns its digest.
    """
    if workload.kind == "pbw":
        trees = list(alg.table.trees)
        random.Random(seed).shuffle(trees)
        for t in trees:
            yield (f"nf/{alg.table.index[t]}",
                   lambda t=t: normal_form_digest(alg.reduce_tree(t)))
        return
    suite_seed = seed % SUITE_SEEDS
    for name in suite_names(system, workload.skip):
        yield (f"suite/{name}",
               lambda name=name: report_digest(run_suite_on(name, system, alg, suite_seed)))


def expected(golden, key, seed):
    """The recorded digest for an operation, or None if nothing is recorded."""
    kind, _, item = key.partition("/")
    if kind == "nf":
        return golden["normal_forms"][int(item)]
    entry = golden["suites"].get(item)
    if isinstance(entry, dict):
        return entry.get(str(seed % SUITE_SEEDS))
    return entry


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
