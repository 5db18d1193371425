"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from triplex import catalog, envelope, freealg, hopf, lts, suites  # noqa: E402

import one_pass  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def machine_json(report):
    return json.dumps(report.to_dict(machine=True), sort_keys=True, indent=2)


def compose(system, N, seed, skip=()):
    alg = envelope.build(system, N)
    return workloads.combine({n: workloads.run_suite_on(n, system, alg, seed)
                              for n in workloads.suite_names(system, skip)})


@pytest.mark.parametrize("system, N, seed", [(catalog.sl2_lts(), 4, 0),
                                             (catalog.s2(), 4, 3)])
def test_composition_matches_run_suite_all(system, N, seed):
    expected = suites.run_suite("all", system, N, seed)
    assert machine_json(compose(system, N, seed)) == machine_json(expected)


def test_composition_without_a_suite_drops_only_its_records():
    system = catalog.sl2_lts()
    full = suites.run_suite("all", system, 4, 0).to_dict(machine=True)
    part = compose(system, 4, 0, skip=("mainthm",)).to_dict(machine=True)
    assert part["records"] == [r for r in full["records"]
                               if not r["id"].startswith("mainthm.")]


def test_golden_pbw_pass_is_clean_and_a_corrupted_digest_counts():
    golden = workloads.load_golden()["pbw-s2"]
    wl = workloads.WORKLOADS["pbw-s2"]
    clean = one_pass.run_pass(wl, 5, golden)
    assert (clean["attempted"], clean["failed"]) == (1 + len(golden["normal_forms"]), 0)

    corrupted = copy.deepcopy(golden)
    corrupted["normal_forms"][17] = "0" * 16
    bad = one_pass.run_pass(wl, 5, corrupted)
    assert bad["failed"] == 1


def test_corrupted_suite_digest_counts_for_a_verify_workload():
    wl = workloads.Workload("verify-sl2_lts", "sl2_lts.json", 3, "verify")
    system = catalog.sl2_lts()
    alg = envelope.build(system, wl.cap)
    golden = {"build": workloads.build_digest(alg), "suites": {
        n: workloads.report_digest(workloads.run_suite_on(n, system, alg, 0))
        for n in workloads.suite_names(system)}}
    assert one_pass.run_pass(wl, 0, golden)["failed"] == 0
    golden["suites"]["hopf"] = "f" * 64
    golden["build"] = "f" * 64
    result = one_pass.run_pass(wl, 0, golden)
    assert result["failed"] == 2
    assert result["attempted"] == 1 + len(golden["suites"])


def test_tracer_wraps_imported_aliases_and_links_parents():
    originals = (lts.check_axioms, freealg.tree_degree, envelope.Echelon.insert)
    tracer = Tracer()
    tracer.install()
    try:
        assert envelope.check_axioms is lts.check_axioms is suites.check_axioms
        assert envelope.check_axioms is not originals[0]
        assert hopf.tree_degree is envelope.tree_degree is freealg.tree_degree
        assert hopf.tree_degree is not originals[1]
        alg = envelope.build(catalog.sl2_lts(), 3)
        hopf.primitives(alg, 2)
    finally:
        tracer.uninstall()
    assert (lts.check_axioms, freealg.tree_degree, envelope.Echelon.insert) == originals
    assert envelope.check_axioms is originals[0]

    spans = {i: (p, name) for i, p, name, _, _ in tracer.spans()}
    parent_name = lambda i: spans[spans[i][0]][1] if spans[i][0] >= 0 else None
    names = [name for _, name in spans.values()]
    assert names[0] == "envelope.build"
    assert all(parent_name(i) == "exactlin.insert"
               for i, (p, name) in spans.items()
               if name == "exactlin.reduce" and parent_name(i) != "envelope.reduce_tree")
    assert {"lts.check_axioms", "freealg.table", "hopf.check_coideal",
            "hopf.comult", "envelope.reduce_tree"} <= set(names)
    m = tracer.layer_metrics()
    assert m["lts.check_axioms_calls"] == 1
    assert m["freealg.tree_degree_calls"] > 0
    assert 0 < m["envelope.nf_cache_hit_ratio"] < 1
    assert m["envelope.build_self_s"] < m["envelope.build_s"]
    doubled = tracer.layer_metrics(rescale=lambda t: 2 * t)
    assert doubled["envelope.build_s"] == pytest.approx(2 * m["envelope.build_s"])
    assert doubled["exactlin.insert_calls"] == m["exactlin.insert_calls"]


def test_speed_probe_integrates_the_measured_speed():
    probe = SpeedProbe()
    probe.times.extend([1.0, 2.0, 3.0])
    probe.speeds.extend([1.0, 2.0, 0.5])
    assert probe.reference_time(1.0) == 0.0
    assert probe.reference_time(2.5) == 2.25
    assert probe.elapsed(0.5, 3.5) == 3.25   # first speed before, last after


def test_speed_probe_samples_while_running():
    probe = SpeedProbe()
    probe.start()
    start = time.monotonic()
    while time.monotonic() - start < 0.3:
        pass
    probe.stop()
    assert len(probe.times) >= 4
    assert all(s > 0 for s in probe.speeds)
    assert probe.elapsed(start, start + 0.3) > 0


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pbw-s2",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pbw-s2",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
