"""Tests of the benchmark itself, on inputs shrunk with ``--scale``.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, Raised  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.01"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    p = _run(
        "--workload", workload, "--seed", "7", "--seconds", "0.2",
        "--trace", str(trace), "--scale", SCALE,
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(workload, trace):
    text, doc = _bench(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[1]: line.split()[4] for line in text}
    for m in declared:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"], m["name"]
    assert printed["fail_frac"] == "fraction"
    assert any(line.split()[3] == "0" for line in text if " fail_frac " in line)


def test_untraced_text_lists_op_latencies_with_sample_counts():
    text, _ = _bench("point-rw", 0)
    rows = {line.split()[1]: line for line in text}
    for name in ("get_p50_us", "insert_p50_us", "remove_p50_us", "scan_p50_us"):
        assert "(n=" in rows[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_corrupted_result_counts_as_failed(name):
    wl = WORKLOADS[name](seed=3, scale=float(SCALE))
    index = wl.build()
    run = wl.run(index, 0.05)
    assert wl.check(run) == 0
    victim = next(i for i, r in enumerate(run.results) if r is not None)
    good = run.results[victim]
    if isinstance(good, list):
        bad = list(good)
        bad[0] = None if bad[0] is not None else 1
    elif isinstance(good, np.ndarray):
        bad = good.copy()
        bad[0] = not bad[0]
    else:
        bad = Raised(RuntimeError("injected"))
    run.results[victim] = bad
    assert wl.check(run) > 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = (WORKLOADS["point-rw"](seed=s, scale=0.01) for s in (5, 5, 6))
    assert np.array_equal(a.codes, b.codes) and np.array_equal(a.args, b.args)
    assert not np.array_equal(a.args[:1000], c.args[:1000])


def _timed_attrs():
    out = {}
    for layer, (modname, qualnames) in layers.TIMED.items():
        module = sys.modules[modname]
        for q in qualnames:
            *path, attr = q.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            out[(owner, attr)] = vars(owner)[attr]
    return out


def test_untraced_run_after_traced_one_sees_the_originals():
    import repro.core.alt_index as alt_index
    import repro.core.retrain as retrain

    before = _timed_attrs()
    alias = alt_index.maybe_start_expansion
    wl = WORKLOADS["sharded-churn"](seed=2, scale=0.01)
    bench.measure_traced(wl, 0.1)
    assert _timed_attrs() == before
    assert alt_index.maybe_start_expansion is alias is retrain.maybe_start_expansion
    tracer = layers.LayerTracer()
    with tracer:
        wl.run(wl.build(), 0.05)
    def snapshot():
        return {p: {k: list(v) for k, v in st.items()} for p, st in tracer.stats.items()}

    seen = snapshot()
    assert seen["run"]
    wl.run(wl.build(), 0.05)
    assert snapshot() == seen


def test_self_times_partition_the_wall_time():
    tracer = layers.LayerTracer()
    wl = WORKLOADS["batch-read"](seed=1, scale=0.01)
    index = wl.build()
    with tracer:
        run = wl.run(index, 0.05)
    total_ms = sum(run.lat_ns) / 1e6
    self_ms = sum(s[1] for s in tracer.stats["run"].values()) / 1e6
    assert 0.9 * total_ms <= self_ms <= total_ms


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "point-rw", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
