"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted output and a nonzero exit each count as failed repetitions, that
the trace sees calls made through re-exported names, and that the benchmark
refuses to report without the esdkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _printed(stdout: str, metrics: list[dict]) -> dict:
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    return result["metrics"]


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_printed_with_units(name):
    proc = _bench("--workload", name, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert "error_rate 0 ratio" in proc.stdout
    metrics = _printed(proc.stdout, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_printed_with_units():
    proc = _bench("--workload", "evolve_markov", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = _printed(proc.stdout, BENCH["per_layer"])
    # cli imports concurrence by name; 51 rows means that binding was traced too.
    assert metrics["entanglement.dense_concurrences"]["value"] == 51
    assert metrics["channel.kraus_builds"]["value"] == 51
    assert metrics["master.rhs_calls"]["value"] == 200
    assert metrics["import.scipy_s"]["value"] > 0


def _all_failed(capsys, monkeypatch, tmp_path, spoil) -> None:
    real = workloads.BUILDERS["evolve_markov"]

    def spoiled(seed, workdir, tiny=False):
        wl = real(seed, workdir, tiny)
        spoil(wl)
        return wl

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.BUILDERS, "evolve_markov", spoiled)
    code = run.main(["--workload", "evolve_markov", "--seed", "3", "--seconds", "0", "--tiny"])
    out = capsys.readouterr().out
    assert code != 0
    assert '"correct"' not in out
    assert f"error_rate 1 ratio ({run.MIN_REPS} of {run.MIN_REPS} repetitions)" in out


def test_corrupted_output_counts_as_failure(capsys, monkeypatch, tmp_path):
    def spoil(wl):
        check = wl.check

        def corrupt_then_check(workdir):
            path = workdir / "evolve.csv"
            lines = path.read_text().split("\n")
            fields = lines[10].split(",")
            fields[1] = repr(float(fields[1]) + 1e-6)  # concurrence off the closed form
            lines[10] = ",".join(fields)
            path.write_text("\n".join(lines))
            return check(workdir)

        wl.check = corrupt_then_check

    _all_failed(capsys, monkeypatch, tmp_path, spoil)


def test_nonzero_exit_counts_as_failure(capsys, monkeypatch, tmp_path):
    _all_failed(capsys, monkeypatch, tmp_path, lambda wl: wl.argv.extend(["--dt", "-1"]))


def test_import_times_attribute_nested_packages():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |         50 |       pickle",
        "import time:        10 |        160 |     numpy",
        "import time:       200 |        200 |     scipy.linalg",
        "import time:         5 |        365 |   scipy",
        "import time:         7 |        372 | esdkit.memory",
        "perfbench: import done",
        "import time:       999 |        999 | scipy.late",
    ])
    times = run.import_times(stderr)
    assert times == pytest.approx({"numpy": 160e-6, "scipy": 205e-6, "esdkit": 7e-6})


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "evolve_markov", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
