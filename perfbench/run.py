"""Wall-clock benchmark of the ALT-index library, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload point-rw --seed 1 --seconds 10 --trace 0

The library runs in-process under one closed-loop client thread; no
shard lanes or other threads are started.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` prints the per-layer
metrics from a traced run, with its overhead against an untraced run of
the same length.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric by name and unit, including the per-op
latencies that only some workloads have and the raw wall-clock figures.

Times are reported at the host's reference speed (see ``probe.py``).

Garbage-collection policy, the same for every run: the collector runs a
full collection before, and is disabled during, every timed section
(each ``bulk_load`` and the timed phase), as ``timeit`` and
``repro.bench.harness`` do.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``bulk_load`` calls per run; ``setup_s`` is their median.
BUILDS = 3
#: host-speed probes on each side of a ``bulk_load``
_SETUP_PROBES = 5

#: per-op metrics printed as text: (op name, tail percentile)
_TEXT_TAILS = {"get": 99, "insert": 99, "batch_get": 99}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_kops": "kop/s",
    "bytes_per_key": "B/key",
    "read_p50_us": "us/call",
    "read_p90_us": "us/call",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink every input size by this factor (for the benchmark's own tests)",
    )
    return ap.parse_args(argv)


def _timed_build(wl):
    """One construction call under the GC policy.

    Returns ``(index, wall seconds, seconds at reference speed)``; the
    speed comes from the median of host-speed probes taken just before
    and just after the call.
    """
    from probe import SpeedProbe, speed_factor

    probe = SpeedProbe()
    gc.collect()
    gc.disable()
    try:
        probes = [probe.measure() for _ in range(_SETUP_PROBES)]
        t0 = time.perf_counter()
        index = wl.build()
        dt = time.perf_counter() - t0
        probes += [probe.measure() for _ in range(_SETUP_PROBES)]
        return index, dt, dt * speed_factor(statistics.median(probes))
    finally:
        gc.enable()


def _timed_run(wl, index, seconds):
    gc.collect()
    gc.disable()
    try:
        return wl.run(index, seconds)
    finally:
        gc.enable()


def _percentile(lat_ns, q):
    return float(np.percentile(np.asarray(lat_ns, dtype=np.float64), q)) / 1e3


def op_latencies(codes, lat_ns):
    """Per-op ``(name, unit, value, samples)`` rows for the text report.

    A tail is reported only where at least ten samples lie beyond it.
    """
    from workloads import OP_NAMES

    rows = []
    by_op: dict[int, list[float]] = {}
    for code, lat in zip(codes, lat_ns):
        by_op.setdefault(code, []).append(lat)
    for code, lats in sorted(by_op.items()):
        name = OP_NAMES[code]
        unit = "us/call" if name.startswith("batch_") else "us"
        rows.append((f"{name}_p50_us", unit, _percentile(lats, 50), len(lats)))
        q = _TEXT_TAILS.get(name)
        if q is not None and len(lats) * (100 - q) / 100 >= 10:
            rows.append((f"{name}_p{q}_us", unit, _percentile(lats, q), len(lats)))
    return rows


def measure(wl, seconds):
    """Untraced run: end-to-end metrics plus the text-only rows."""
    index, setup, wall_setup = None, [], []
    for _ in range(BUILDS):
        index = None  # free the previous build before timing the next
        index, wall, scaled = _timed_build(wl)
        wall_setup.append(wall)
        setup.append(scaled)
    run = _timed_run(wl, index, seconds)
    failed = wl.check(run)
    scaled = [lat * f for lat, f in zip(run.lat_ns, run.speeds())]
    reads = [lat for c, lat in zip(run.codes, scaled) if c == wl.read_op]
    wall_reads = [lat for c, lat in zip(run.codes, run.lat_ns) if c == wl.read_op]
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_kops": run.keys_served / run.scaled_ns() * 1e6,
        "bytes_per_key": run.bytes_per_key,
        "read_p50_us": _percentile(reads, 50),
        "read_p90_us": _percentile(reads, 90),
    }
    attempted = run.keys_served
    text = [(name, END_TO_END_UNITS[name], value, None) for name, value in metrics.items()]
    text += op_latencies(run.codes, scaled)
    text += [
        ("wall_setup_s", "s", statistics.median(wall_setup), None),
        ("wall_throughput_kops", "kop/s", run.keys_served / run.elapsed_ns * 1e6, None),
        ("wall_read_p50_us", "us/call", _percentile(wall_reads, 50), len(wall_reads)),
        ("host_speed", "x", statistics.median(run.window_factors()), len(run.windows)),
        ("fail_frac", "fraction", failed / attempted, attempted),
    ]
    return metrics, attempted, failed, text


def measure_traced(wl, seconds):
    """Traced run: per-layer metrics.

    One untraced and one traced build; each serves half the time.  The
    overhead is the traced time per key over the untraced one, minus 1.
    """
    from layers import LayerTracer, NSHARDS, layer_metrics, per_layer_names
    from repro.obs.metrics import MetricsRegistry, metrics_registry

    plain = _timed_build(wl)[0]
    tracer = LayerTracer()
    with tracer:
        tracer.phase = "setup"
        traced = _timed_build(wl)[0]
    base = _timed_run(wl, plain, seconds / 2)
    plain = None
    tracer.phase = "run"
    for s, shard in enumerate(getattr(traced, "shards", [])[:NSHARDS]):
        tracer.shard_ids[id(shard)] = s
    registry = MetricsRegistry()
    with metrics_registry(registry), tracer:
        run = _timed_run(wl, traced, seconds / 2)
    failed = wl.check(base) + wl.check(run)
    attempted = base.keys_served + run.keys_served
    per_key = lambda r: r.scaled_ns() / max(r.keys_served, 1)  # noqa: E731
    overhead = per_key(run) / per_key(base) - 1.0
    counters = registry.snapshot()["counters"]
    metrics = layer_metrics(tracer, counters, traced, overhead)
    units = dict(per_layer_names())
    text = [(name, units[name], value, None) for name, value in metrics.items()]
    text.append(("fail_frac", "fraction", failed / attempted, attempted))
    return metrics, attempted, failed, text, units


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.scale)
    if args.trace:
        metrics, attempted, failed, text, units = measure_traced(wl, args.seconds)
    else:
        metrics, attempted, failed, text = measure(wl, args.seconds)
        units = END_TO_END_UNITS
    for name, unit, value, samples in text:
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{args.workload}  {name} = {value:.6g} {unit}{suffix}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
