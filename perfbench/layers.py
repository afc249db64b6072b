"""Per-layer tracing for the benchmark's traced run.

The library is not modified: :class:`LayerTracer` replaces each public
function named in :data:`TIMED` with a timing wrapper for the extent of a
``with`` block and puts the originals back on exit.  A stack of child
times gives every function its *self* time (its wall time minus the time
spent in other wrapped functions it called), so the self times of one
call tree add up to its wall time.

Stats are kept per phase (``"setup"`` for the traced ``bulk_load``,
``"run"`` for the traced timed phase).  :func:`layer_metrics` turns a
finished tracer plus the metrics-registry counters into the flat
``per_layer`` metric dict that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

from repro.bench.memory import memory_breakdown
from repro.core.learned_layer import model_bytes

from workloads import ShardedChurn

#: layer name -> (module, qualified names) of the timed public functions.
#: The layer name is the metric prefix: ``<layer>.<qualname>.<stat>``.
TIMED: dict[str, tuple[str, tuple[str, ...]]] = {
    "core.alt_index": (
        "repro.core.alt_index",
        (
            "ALTIndex.bulk_load",
            "ALTIndex.get",
            "ALTIndex.insert",
            "ALTIndex.remove",
            "ALTIndex.scan",
            "ALTIndex.batch_get",
            "ALTIndex.batch_insert",
            "ALTIndex.batch_remove",
        ),
    ),
    "core.learned_layer": (
        "repro.core.learned_layer",
        (
            "LearnedLayer.route",
            "LearnedLayer.probe_live",
            "LearnedLayer.items",
            "LearnedLayer.bulk_build",
        ),
    ),
    "core.fast_pointer": (
        "repro.core.fast_pointer",
        (
            "FastPointerBuffer.entry",
            "FastPointerBuffer.register",
            "FastPointerBuffer.build_for_layer",
        ),
    ),
    "core.retrain": (
        "repro.core.retrain",
        ("maybe_start_expansion", "ExpansionBuffer.absorb", "finish_expansion"),
    ),
    "art": (
        "repro.art.tree",
        (
            "AdaptiveRadixTree.search",
            "AdaptiveRadixTree.insert",
            "AdaptiveRadixTree.remove",
            "AdaptiveRadixTree.scan",
            "AdaptiveRadixTree.items",
            "AdaptiveRadixTree.bulk_insert",
            "AdaptiveRadixTree.bulk_remove",
        ),
    ),
    "concurrency.epoch": (
        "repro.concurrency.epoch",
        ("EpochManager.retire", "EpochManager.try_advance"),
    ),
    "shard": (
        "repro.shard.sharded",
        (
            "ShardedALTIndex.scatter",
            "ShardedALTIndex.batch_get",
            "ShardedALTIndex.batch_insert",
            "ShardedALTIndex.batch_remove",
        ),
    ),
}

#: Functions that only run inside ``bulk_load``: reported from the
#: setup phase alone.
SETUP_ONLY = (
    "core.alt_index.ALTIndex.bulk_load",
    "core.learned_layer.LearnedLayer.bulk_build",
    "core.fast_pointer.FastPointerBuffer.build_for_layer",
)
#: Functions reported from both phases: the per-key conflict inserts
#: dominate ``bulk_load`` and also serve runtime inserts.
SETUP_TOO = ("art.AdaptiveRadixTree.insert",)

#: Counters read from the installed ``repro.obs.metrics`` registry.
COUNTERS = (
    "retry.attempts",
    "retry.fallbacks",
    "epoch.retired",
    "epoch.reclaimed",
    "retrain.started",
    "retrain.finished",
    "alt.conflict_inserts",
    "alt.writebacks",
)

#: Shard count of the sharded workload; names the per-shard metrics.
NSHARDS = ShardedChurn.SHARDS

_PER_SHARD = {"ALTIndex.batch_get", "ALTIndex.batch_insert", "ALTIndex.batch_remove"}


class LayerTracer:
    """Wrap every :data:`TIMED` function while the ``with`` block runs."""

    def __init__(self) -> None:
        self.phase = "run"
        #: phase -> metric stem -> [calls, self_ns]
        self.stats: dict[str, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0])
        )
        self.probe_keys = 0
        #: id(ALTIndex shard) -> shard number, set by the caller
        self.shard_ids: dict[int, int] = {}
        self.shard_keys = [0] * NSHARDS
        self.shard_ns = [0] * NSHARDS
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            for layer, (modname, qualnames) in TIMED.items():
                module = importlib.import_module(modname)
                for qualname in qualnames:
                    self._install(module, layer, qualname)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        """Put every original function back, newest replacement first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, module, layer: str, qualname: str) -> None:
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        stem = f"{layer}.{qualname}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, stem, qualname))
        else:
            replacement = self._wrap(raw, stem, qualname)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        if owner is module:
            # Modules that imported the function by name hold their own
            # reference; patch those bindings too.
            for other in list(sys.modules.values()):
                if other is module or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(other).items()):
                    if value is raw:
                        self._undo.append((other, name, raw))
                        setattr(other, name, replacement)

    # -- wrappers -----------------------------------------------------------
    def _account(self, stem: str, t0: int, calls: int = 1) -> int:
        dt = time.perf_counter_ns() - t0
        child = self._stack.pop()
        stat = self.stats[self.phase][stem]
        stat[0] += calls
        stat[1] += dt - child
        if self._stack:
            self._stack[-1] += dt
        return dt

    def _wrap(self, fn, stem: str, qualname: str):
        stack = self._stack
        tracer = self
        if inspect.isgeneratorfunction(fn):

            # Time each resume of the generator; one call per generator.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = 1
                while True:
                    stack.append(0)
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._account(stem, t0, first)
                        first = 0
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        on_return = None
        if qualname == "LearnedLayer.probe_live":

            def on_return(args, result, dt):
                tracer.probe_keys += len(args[1])

        elif qualname == "ShardedALTIndex.scatter":

            def on_return(args, result, dt):
                for s, _pos, sub in result:
                    tracer.shard_keys[s] += len(sub)

        elif qualname in _PER_SHARD:

            def on_return(args, result, dt):
                s = tracer.shard_ids.get(id(args[0]))
                if s is not None:
                    tracer.shard_ns[s] += dt

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer._account(stem, t0)
            if on_return is not None:
                on_return(args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# metric extraction
# ---------------------------------------------------------------------------
def _alt_shards(index) -> list:
    return list(getattr(index, "shards", [index]))


def memory_per_key(index) -> dict[str, float]:
    """Modeled bytes per key split into learned/art/fastptr/expansion.

    Expansion buffers are tagged with the learned layer, so their bytes
    are computed from the buffers' slot counts and moved out of it.
    """
    groups = {"learned": 0, "art": 0, "fastptr": 0, "expansion": 0}
    for tag, nbytes in memory_breakdown(index).items():
        for group in ("learned", "art", "fastptr"):
            if tag.endswith("/" + group):
                groups[group] += nbytes
    for shard in _alt_shards(index):
        for model in shard.layer.models:
            if model.expansion is not None:
                groups["expansion"] += model_bytes(model.expansion.buffer.n_slots)
    groups["learned"] -= groups["expansion"]
    n = max(len(index), 1)
    return {g: b / n for g, b in groups.items()}


def epoch_pending(index) -> int:
    """Retirements waiting in the ART epoch domains of every shard."""
    return sum(shard.art.epoch.pending() for shard in _alt_shards(index))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric ``(name, unit)``, in output order."""
    names: list[tuple[str, str]] = []
    for layer, (_mod, qualnames) in TIMED.items():
        for q in qualnames:
            stem = f"{layer}.{q}"
            if stem in SETUP_ONLY or stem in SETUP_TOO:
                names += [(f"{stem}.setup_calls", "count"), (f"{stem}.setup_ms", "ms")]
            if stem not in SETUP_ONLY:
                names += [(f"{stem}.calls", "count"), (f"{stem}.self_ms", "ms")]
    names += [
        ("core.learned_layer.LearnedLayer.probe_live.keys_per_call", "keys/call"),
        ("art.learned_hit_frac", "fraction"),
        ("art.items_per_batch_get", "calls/call"),
        ("concurrency.epoch.pending", "count"),
    ]
    for s in range(NSHARDS):
        names += [(f"shard.s{s}.sub_batch_keys", "keys"), (f"shard.s{s}.sub_batch_ms", "ms")]
    names.append(("shard.imbalance", "ratio"))
    for group in ("learned", "art", "fastptr", "expansion"):
        names.append((f"memory.{group}_bytes_per_key", "B/key"))
    names += [(c, "count") for c in COUNTERS]
    names.append(("trace.overhead_frac", "fraction"))
    return names


def layer_metrics(
    tracer: LayerTracer, counters: dict, index, overhead_frac: float
) -> dict[str, float]:
    """Flatten a finished traced run into the per-layer metric values."""
    values: dict[str, float] = {}
    run, setup = tracer.stats["run"], tracer.stats["setup"]
    for name, _unit in per_layer_names():
        stem, _, stat = name.rpartition(".")
        if stat in ("calls", "self_ms", "setup_calls", "setup_ms"):
            phase = setup if stat.startswith("setup_") else run
            calls, self_ns = phase[stem] if stem in phase else (0, 0)
            values[name] = calls if stat.endswith("calls") else self_ns / 1e6

    def calls(stem: str) -> int:
        return run[stem][0] if stem in run else 0

    probes = calls("core.learned_layer.LearnedLayer.probe_live")
    values["core.learned_layer.LearnedLayer.probe_live.keys_per_call"] = (
        tracer.probe_keys / probes if probes else 0.0
    )
    gets = calls("core.alt_index.ALTIndex.get")
    values["art.learned_hit_frac"] = (
        1.0 - calls("art.AdaptiveRadixTree.search") / gets if gets else 0.0
    )
    batch_gets = calls("shard.ShardedALTIndex.batch_get") or calls(
        "core.alt_index.ALTIndex.batch_get"
    )
    values["art.items_per_batch_get"] = (
        calls("art.AdaptiveRadixTree.items") / batch_gets if batch_gets else 0.0
    )
    values["concurrency.epoch.pending"] = epoch_pending(index)
    for s in range(NSHARDS):
        values[f"shard.s{s}.sub_batch_keys"] = tracer.shard_keys[s]
        values[f"shard.s{s}.sub_batch_ms"] = tracer.shard_ns[s] / 1e6
    total = sum(tracer.shard_keys)
    values["shard.imbalance"] = (
        max(tracer.shard_keys) / (total / NSHARDS) if total else 0.0
    )
    for group, bpk in memory_per_key(index).items():
        values[f"memory.{group}_bytes_per_key"] = bpk
    for c in COUNTERS:
        values[c] = counters.get(c, 0)
    values["trace.overhead_frac"] = overhead_frac
    return values
