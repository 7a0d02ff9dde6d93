"""Self-test of the benchmark: pinned counts, clean package after tracing.

Run from the repository root (about two minutes on two cores):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_NAMES = [name for name, unit, _ in tracer.per_layer_names() if unit != "s"]


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name):
    counts = []
    for _ in range(2):
        done = bench("--workload", name, "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {n for n, _, _ in tracer.per_layer_names()}
        counts.append({n: result["metrics"][n]["value"] for n in COUNT_NAMES})
    assert counts[0] == counts[1]


def test_tracing_leaves_the_package_unchanged():
    mods, workload, _ = run.set_up("basis_d3", workloads.DEFAULT_SEED)
    before = tracer.package_state()
    plain = [[] for _ in workload.jobs]
    run.run_pass(mods, workload, plain, run.Timer())

    trace = tracer.Tracer(mods)
    trace.install()
    assert hasattr(mods.determined.rank, "__wrapped__")
    try:
        traced = [[] for _ in workload.jobs]
        run.run_pass(mods, workload, traced, run.Timer(), trace=trace)
    finally:
        trace.uninstall()
    assert trace.summary()["balanced"]

    assert tracer.package_state() == before
    for _, module, path in tracer.LAYER_FUNCTIONS:
        owner = getattr(mods, module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), path
    again = [[] for _ in workload.jobs]
    run.run_pass(mods, workload, again, run.Timer())
    assert plain == traced == again


def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = run.tail([float(k) for k in range(1, 13)])
    assert (value, n) == (2.0, 12)
    assert percentile == pytest.approx(100 * 2 / 12)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "extremal", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
