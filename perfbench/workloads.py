"""The benchmark's workloads: inputs from a seed, a timed closed loop, an oracle.

Every workload follows the same three steps:

1. ``__init__`` generates all inputs from the seed and holds them as
   NumPy arrays (untimed).
2. :meth:`Workload.build` is the construction call that ``setup_s``
   times; :meth:`Workload.run` drives one closed-loop client over the
   built index for a fixed wall time and records every call's latency
   and result.
3. :meth:`Workload.check` replays the executed prefix of the plan
   against an oracle after timing, so checking adds no timed work.

Values are derived from keys (``key ^ VALUE_MASK``), so the oracle
needs no value table and a result that returns the key itself is
caught.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import bisect
import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ALTIndex
from repro.bench.memory import bytes_per_key
from repro.datasets.generators import dataset
from repro.shard.sharded import ShardedALTIndex

from probe import SpeedProbe, speed_factors

VALUE_MASK = 0x5A5A_5A5A_5A5A_5A5A
_NP_MASK = np.uint64(VALUE_MASK)
THETA = 0.99
#: The key set, its loaded half and the popularity ranking are fixed
#: properties of a workload, like SOSD's real datasets; ``--seed`` draws
#: the operation sequence.  Reseeding the structure moves the figures by
#: more than the program's own noise: the osm generator's density field
#: changes the conflict rate, and under zipf(0.99) whether the few
#: hottest keys are conflict keys moves the median ``get``.
STRUCTURE_SEED = 0

# Operation codes of the timed calls.
GET, INSERT, REMOVE, SCAN, BATCH_GET, BATCH_INSERT, BATCH_REMOVE = range(7)
OP_NAMES = {
    GET: "get",
    INSERT: "insert",
    REMOVE: "remove",
    SCAN: "scan",
    BATCH_GET: "batch_get",
    BATCH_INSERT: "batch_insert",
    BATCH_REMOVE: "batch_remove",
}


class Raised:
    """Result slot of a call that raised; always counts as failed."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({self.exc!r})"


@dataclass
class Run:
    """What one timed phase did: per call code, latency, keys and result,
    and its windows as ``[first call, wall ns, probe ns]`` (see ``probe.py``)."""

    codes: list[int] = field(default_factory=list)
    lat_ns: list[int] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    results: list = field(default_factory=list)
    windows: list[list[int]] = field(default_factory=list)
    bytes_per_key: float = 0.0

    @property
    def keys_served(self) -> int:
        return sum(self.keys)

    @property
    def elapsed_ns(self) -> int:
        """Wall time of the windows: the timed calls and the loop around them."""
        return sum(w[1] for w in self.windows)

    def window_factors(self) -> list[float]:
        return speed_factors([w[2] for w in self.windows])

    def scaled_ns(self) -> float:
        """:attr:`elapsed_ns` at reference speed."""
        return sum(w[1] * f for w, f in zip(self.windows, self.window_factors()))

    def speeds(self) -> list[float]:
        """Each call's reference-speed factor: its window's."""
        out: list[float] = []
        bounds = [w[0] for w in self.windows[1:]] + [len(self.lat_ns)]
        for first, end, f in zip((w[0] for w in self.windows), bounds, self.window_factors()):
            out.extend([f] * (end - first))
        return out


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(int(n * scale), floor)


def _split_half(keys: np.ndarray):
    """A fixed random half of ``keys`` to bulk-load and the rest as a reserve."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    mask = np.zeros(len(keys), dtype=bool)
    mask[rng.choice(len(keys), len(keys) // 2, replace=False)] = True
    return keys[mask], keys[~mask]


def _zipf(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` scrambled zipf(THETA) draws from [0, n), as
    ``repro.workloads.zipf.ZipfSampler`` makes them, but with the
    popularity ranking fixed and only the draws taken from ``rng``."""
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -THETA)
    cdf /= cdf[-1]
    by_rank = np.random.default_rng(STRUCTURE_SEED).permutation(n)
    return by_rank[np.minimum(np.searchsorted(cdf, rng.random(size)), n - 1)]


class _Clock:
    """Windows of a timed phase.

    Each window starts with a host-speed probe; the wall time of the
    windows counts towards ``seconds``.  Probes and the memory checkpoint
    fall between windows, so neither is timed.
    """

    def __init__(self, seconds: float, run: Run) -> None:
        self.run = run
        self.budget = int(seconds * 1e9)
        self.probe = SpeedProbe()
        self.used = 0
        self._t0: int | None = None
        self.window()

    def _close(self) -> None:
        if self._t0 is not None:
            dt = time.perf_counter_ns() - self._t0
            self.run.windows[-1][1] = dt
            self.used += dt
            self._t0 = None

    def window(self) -> None:
        """Close the open window, probe, open the next at the next call."""
        self._close()
        self.run.windows.append([len(self.run.lat_ns), 0, self.probe.measure()])
        self._t0 = time.perf_counter_ns()

    def expired(self) -> bool:
        return self.used + time.perf_counter_ns() - self._t0 >= self.budget

    def checkpoint(self, index) -> None:
        self._close()
        self.run.bytes_per_key = bytes_per_key(index)
        self.window()

    def stop(self) -> None:
        self._close()


class Workload:
    """Base: subclasses set the class attributes and the three steps."""

    name: str
    #: op code whose latency the ``read_*`` end-to-end metrics report
    read_op: int
    #: ``bytes_per_key`` is read after this many timed calls (cycles, on
    #: sharded-churn), whatever the host's speed, so it does not move
    #: when a change makes the loop get further in its time
    checkpoint_calls: int

    def build(self):
        raise NotImplementedError

    def run(self, index, seconds: float) -> Run:
        raise NotImplementedError

    def check(self, run: Run) -> int:
        """Operations (keys, for batch calls) that raised or disagree."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# point-rw
# ---------------------------------------------------------------------------
class PointRW(Workload):
    """Scalar get/insert/remove/scan closed loop on osm keys."""

    name = "point-rw"
    read_op = GET
    N_KEYS = 600_000
    MIX = (0.74, 0.15, 0.10, 0.01)  # get, insert, remove, scan
    SCAN_LEN = 100
    CHUNK = 4096

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        keys = dataset("osm", _scaled(self.N_KEYS, scale, 2000), seed=STRUCTURE_SEED)
        self.loaded, reserve = _split_half(keys)
        reserve = reserve[rng.permutation(len(reserve))]
        self.checkpoint_calls = _scaled(100_000, scale, 100)
        # Size the plan so the reserve never runs dry: a plan this long
        # lasts several times the run at today's speed.
        n_ops = int(len(reserve) / self.MIX[1])
        codes = rng.choice(4, size=n_ops, p=self.MIX).astype(np.uint8)
        ins_pos = np.flatnonzero(codes == INSERT)
        if len(ins_pos) > len(reserve):
            codes = codes[: ins_pos[len(reserve)]]
            ins_pos = ins_pos[: len(reserve)]
        args = np.zeros(len(codes), dtype=np.uint64)
        args[ins_pos] = reserve[: len(ins_pos)]
        # Removes take this run's inserts oldest first; a remove drawn
        # before any insert is left becomes a get.  Loaded keys are never
        # removed, which the oracle relies on.
        done = 0
        for p in np.flatnonzero(codes == REMOVE).tolist():
            if done < len(ins_pos) and ins_pos[done] < p:
                args[p] = args[ins_pos[done]]
                done += 1
            else:
                codes[p] = GET
        get_pos = np.flatnonzero(codes == GET)
        args[get_pos] = self.loaded[_zipf(len(self.loaded), len(get_pos), rng)]
        scan_pos = np.flatnonzero(codes == SCAN)
        args[scan_pos] = self.loaded[rng.integers(0, len(self.loaded), len(scan_pos))]
        self.codes = codes
        self.args = args

    def build(self) -> ALTIndex:
        return ALTIndex.bulk_load(self.loaded, self.loaded ^ _NP_MASK)

    def run(self, index: ALTIndex, seconds: float) -> Run:
        get, insert, remove, scan = index.get, index.insert, index.remove, index.scan
        pc = time.perf_counter_ns
        scan_len = self.SCAN_LEN
        out = Run()
        lat, res = out.lat_ns, out.results
        n = len(self.codes)
        clock = _Clock(seconds, out)
        i = 0
        measured = False
        while i < n:
            j = min(i + self.CHUNK, n)
            codes = self.codes[i:j].tolist()
            args = self.args[i:j].tolist()
            for c, k in zip(codes, args):
                if c == GET:
                    t0 = pc()
                    try:
                        r = get(k)
                    except Exception as exc:
                        r = Raised(exc)
                    t1 = pc()
                elif c == INSERT:
                    v = k ^ VALUE_MASK
                    t0 = pc()
                    try:
                        r = insert(k, v)
                    except Exception as exc:
                        r = Raised(exc)
                    t1 = pc()
                elif c == REMOVE:
                    t0 = pc()
                    try:
                        r = remove(k)
                    except Exception as exc:
                        r = Raised(exc)
                    t1 = pc()
                else:
                    t0 = pc()
                    try:
                        r = scan(k, scan_len)
                    except Exception as exc:
                        r = Raised(exc)
                    t1 = pc()
                lat.append(t1 - t0)
                res.append(r)
            out.codes.extend(codes)
            i = j
            if not measured and i >= self.checkpoint_calls:
                clock.checkpoint(index)
                measured = True
            elif measured and clock.expired():
                break
            else:
                clock.window()
        clock.stop()
        if not measured:
            out.bytes_per_key = bytes_per_key(index)
        out.keys = [1] * len(out.codes)
        return out

    def check(self, run: Run) -> int:
        loaded = self.loaded
        live_new: set[int] = set()
        new_sorted: list[int] = []  # live inserted keys, sorted, for scans
        loaded_set = set(loaded.tolist())
        failed = 0
        m = len(run.results)
        for c, k, r in zip(self.codes[:m].tolist(), self.args[:m].tolist(), run.results):
            live = k in loaded_set or k in live_new
            if c == GET:
                ok = r is None if not live else (r is not None and r == k ^ VALUE_MASK)
            elif c == INSERT:
                ok = r == (not live)
                if not live:
                    live_new.add(k)
                    bisect.insort(new_sorted, k)
            elif c == REMOVE:
                ok = r == live
                if live:
                    live_new.discard(k)
                    del new_sorted[bisect.bisect_left(new_sorted, k)]
            else:
                p = int(np.searchsorted(loaded, np.uint64(k)))
                q = bisect.bisect_left(new_sorted, k)
                merged = heapq.merge(
                    loaded[p : p + self.SCAN_LEN].tolist(),
                    new_sorted[q : q + self.SCAN_LEN],
                )
                expect = [(x, x ^ VALUE_MASK) for _, x in zip(range(self.SCAN_LEN), merged)]
                ok = not isinstance(r, Raised) and list(r) == expect
            failed += not ok
        return failed


# ---------------------------------------------------------------------------
# batch-read
# ---------------------------------------------------------------------------
class BatchRead(Workload):
    """Unsharded 1024-key ``batch_get`` calls on lognormal keys, read-only."""

    name = "batch-read"
    read_op = BATCH_GET
    N_KEYS = 1_000_000
    BATCH = 1024
    POOL = 2048  # distinct batches; calls cycle through them
    ABSENT = 0.05
    WINDOW = 16  # calls between speed probes

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        self.keys = dataset("lognormal", _scaled(self.N_KEYS, scale, 2000), seed=STRUCTURE_SEED)
        self.batch = min(self.BATCH, len(self.keys) // 8)
        self.checkpoint_calls = _scaled(200, scale, 4)
        pool = _scaled(self.POOL, scale, 8)
        total = pool * self.batch
        lookups = self.keys[_zipf(len(self.keys), total, rng)]
        # Absent keys sit one past a loaded key whose successor is >= 2 away.
        gap = np.flatnonzero(np.diff(self.keys) >= 2)
        absent_pool = self.keys[gap] + np.uint64(1)
        absent = rng.random(total) < self.ABSENT
        lookups[absent] = absent_pool[rng.integers(0, len(absent_pool), int(absent.sum()))]
        self.batches = lookups.reshape(pool, self.batch)
        self.present = (~absent).reshape(pool, self.batch)

    def build(self) -> ALTIndex:
        return ALTIndex.bulk_load(self.keys, self.keys ^ _NP_MASK)

    def run(self, index: ALTIndex, seconds: float) -> Run:
        batch_get = index.batch_get
        pc = time.perf_counter_ns
        out = Run()
        lat, res = out.lat_ns, out.results
        batches = self.batches
        pool = len(batches)
        clock = _Clock(seconds, out)
        c = 0
        while True:
            q = batches[c % pool]
            t0 = pc()
            try:
                r = batch_get(q)
            except Exception as exc:
                r = Raised(exc)
            t1 = pc()
            lat.append(t1 - t0)
            res.append(r)
            c += 1
            if c == self.checkpoint_calls:
                clock.checkpoint(index)
            elif c % self.WINDOW == 0:
                if c > self.checkpoint_calls and clock.expired():
                    break
                clock.window()
        clock.stop()
        out.codes = [BATCH_GET] * c
        out.keys = [self.batch] * c
        return out

    def expected(self, b: int) -> list:
        vals = (self.batches[b] ^ _NP_MASK).tolist()
        return [v if p else None for v, p in zip(vals, self.present[b].tolist())]

    def check(self, run: Run) -> int:
        cache: dict[int, list] = {}
        failed = 0
        for c, r in enumerate(run.results):
            b = c % len(self.batches)
            if b not in cache:
                cache[b] = self.expected(b)
            failed += _count_mismatches(r, cache[b])
        return failed


def _count_mismatches(got, expect: list) -> int:
    if isinstance(got, Raised) or len(got) != len(expect):
        return len(expect)
    if got == expect:
        return 0
    return sum(
        not (g is None if e is None else (g is not None and g == e))
        for g, e in zip(got, expect)
    )


# ---------------------------------------------------------------------------
# sharded-churn
# ---------------------------------------------------------------------------
class ShardedChurn(Workload):
    """2-shard batch insert/get/remove cycles over a wrapping hot range."""

    name = "sharded-churn"
    read_op = BATCH_GET
    N_KEYS = 400_000
    HOT = 100_000
    BATCH = 1024
    READ_NEW = 256  # of each batch_get's keys, drawn from the chunk just inserted
    LAG = 4  # a chunk is removed this many cycles after its insert
    MAX_CYCLES = 2000
    SHARDS = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        rng = np.random.default_rng(seed)
        keys = dataset("lognormal", _scaled(self.N_KEYS, scale, 4000), seed=STRUCTURE_SEED)
        self.loaded, reserve = _split_half(keys)
        hot_len = min(_scaled(self.HOT, scale, 1000), len(reserve))
        self.batch = b = min(self.BATCH, hot_len // 8)
        # The hot range is the lowest reserve keys, so it falls (almost)
        # wholly in shard 0 of the range partition.
        hot = reserve[:hot_len]
        self.checkpoint_calls = _scaled(30, scale, 4)  # cycles
        cycles = _scaled(self.MAX_CYCLES, scale, 40)
        # Chunk c holds hot keys [c*b, (c+1)*b) modulo the range, so the
        # range wraps and removed keys return as tombstone re-inserts.
        pos = (np.arange(cycles)[:, None] * b + np.arange(b)[None, :]) % hot_len
        self.inserts = hot[pos]
        new_n = self.READ_NEW * b // self.BATCH
        old = self.loaded[_zipf(len(self.loaded), cycles * (b - new_n), rng)]
        old = old.reshape(cycles, b - new_n)
        new = np.take_along_axis(self.inserts, rng.integers(0, b, (cycles, new_n)), axis=1)
        gets = np.concatenate([old, new], axis=1)
        self.gets = rng.permuted(gets, axis=1)

    def build(self) -> ShardedALTIndex:
        return ShardedALTIndex.bulk_load(
            self.loaded, self.loaded ^ _NP_MASK, shards=self.SHARDS, partitioner="range"
        )

    def run(self, index: ShardedALTIndex, seconds: float) -> Run:
        ins, get, rem = index.batch_insert, index.batch_get, index.batch_remove
        pc = time.perf_counter_ns
        out = Run()
        codes, lat, res = out.codes, out.lat_ns, out.results
        clock = _Clock(seconds, out)
        for c in range(len(self.inserts)):
            chunk = self.inserts[c]
            vals = chunk ^ _NP_MASK
            t0 = pc()
            try:
                r = ins(chunk, vals)
            except Exception as exc:
                r = Raised(exc)
            t1 = pc()
            codes.append(BATCH_INSERT)
            lat.append(t1 - t0)
            res.append(r)
            q = self.gets[c]
            t0 = pc()
            try:
                r = get(q)
            except Exception as exc:
                r = Raised(exc)
            t1 = pc()
            codes.append(BATCH_GET)
            lat.append(t1 - t0)
            res.append(r)
            if c >= self.LAG:
                old = self.inserts[c - self.LAG]
                t0 = pc()
                try:
                    r = rem(old)
                except Exception as exc:
                    r = Raised(exc)
                t1 = pc()
                codes.append(BATCH_REMOVE)
                lat.append(t1 - t0)
                res.append(r)
            if c + 1 == self.checkpoint_calls:
                clock.checkpoint(index)
            elif c + 1 > self.checkpoint_calls and clock.expired():
                break
            else:
                clock.window()
        clock.stop()
        out.keys = [self.batch] * len(codes)
        return out

    def check(self, run: Run) -> int:
        live = set(self.loaded.tolist())
        failed = 0
        calls = iter(zip(run.codes, run.results))
        for c in range(len(self.inserts)):
            for code, keys in (
                (BATCH_INSERT, self.inserts[c]),
                (BATCH_GET, self.gets[c]),
                (BATCH_REMOVE, self.inserts[c - self.LAG] if c >= self.LAG else None),
            ):
                if keys is None:
                    continue
                step = next(calls, None)
                if step is None:
                    return failed
                if step[0] != code:
                    raise RuntimeError("call log out of step with the plan")
                got = step[1]
                ks = keys.tolist()
                if code == BATCH_GET:
                    expect = [k ^ VALUE_MASK if k in live else None for k in ks]
                    failed += _count_mismatches(got, expect)
                    continue
                expect = []
                for k in ks:
                    was = k in live
                    if code == BATCH_INSERT:
                        expect.append(not was)
                        live.add(k)
                    else:
                        expect.append(was)
                        live.discard(k)
                if isinstance(got, Raised) or len(got) != len(expect):
                    failed += len(expect)
                else:
                    failed += sum(bool(g) != e for g, e in zip(got.tolist(), expect))
        return failed


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PointRW, BatchRead, ShardedChurn)
}
