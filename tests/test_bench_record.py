"""tools/bench_record.py on canned benchmark output (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

LAST = {"correct": True, "attempted": 16200, "failed": 0,
        "metrics": {"wall_s": {"value": 0.25, "unit": "s"}}}
STDOUT = ("pbw-s2 seed 3: 5 full + 0 set-up-only passes in 20.1 s\n"
          "  wall_s                                         0.25  s\n"
          + json.dumps(LAST) + "\n")


@pytest.fixture
def fake_run(monkeypatch, tmp_path):
    """Replace the benchmark run; files are written to ``tmp_path``."""
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    calls = []

    def install(returncode=0, stdout=STDOUT):
        def run(cmd, cwd, capture_output, text):
            calls.append((cmd, cwd))
            return subprocess.CompletedProcess(cmd, returncode, stdout, "")
        monkeypatch.setattr(bench_record.subprocess, "run", run)
        return calls
    return install


def test_writes_the_last_json_line(tmp_path, fake_run, capsys, monkeypatch):
    calls = fake_run()
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    monkeypatch.chdir(checkout)
    argv = ["demo-1", "--", "--workload", "pbw-s2", "--seed", "3"]
    assert bench_record.main(argv) == 0
    (cmd, cwd), = calls
    assert cmd[1:] == ["perfbench/run.py", "--workload", "pbw-s2", "--seed", "3"]
    assert cwd == checkout
    doc = json.loads((tmp_path / "BENCH_demo-1.json").read_text())
    assert doc == {"label": "demo-1",
                   "run_args": ["--workload", "pbw-s2", "--seed", "3"],
                   "result": LAST}
    assert capsys.readouterr().out == STDOUT


@pytest.mark.parametrize("returncode, stdout", [(1, STDOUT), (0, "")],
                         ids=["run_failed", "no_output"])
def test_failed_run_writes_nothing(tmp_path, fake_run, returncode, stdout):
    fake_run(returncode, stdout)
    code = bench_record.main(["x", "--", "--seed", "3"])
    assert code == (returncode or 1)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["../up", "--", "--seed", "3"], ["x", "--seed", "3"]],
                         ids=["path_in_label", "no_separator"])
def test_usage_errors(tmp_path, fake_run, argv):
    calls = fake_run()
    assert bench_record.main(argv) == 2
    assert not calls
    assert not list(tmp_path.iterdir())
