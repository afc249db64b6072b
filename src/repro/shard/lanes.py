"""Per-shard background maintenance lanes.

Each shard of a :class:`~repro.shard.sharded.ShardedALTIndex` gets its
own :class:`ShardLane`, which pumps the shard's deferred maintenance:
finishing complete §III-F expansions
(:meth:`repro.core.alt_index.ALTIndex.maintenance`) independently of
every other shard.

A lane runs two ways:

- **synchronously** — ``lane.pump()`` (or
  ``ShardedALTIndex.pump_lanes()``) performs one maintenance pass on the
  calling thread; deterministic, which is what tests and chaos
  schedules want;
- **as a thread** — ``lane.start(interval)`` spawns a daemon named
  ``shard-lane-<i>`` that pumps periodically.  The lane registers that
  name with the ambient flight recorder
  (:meth:`repro.obs.recorder.FlightRecorder.name_thread`), so each
  shard's maintenance events land in their own distinctly-labelled ring
  — the postmortem regression test in ``tests/test_sharding.py`` pins
  this down.
"""

from __future__ import annotations

import threading

from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder

__all__ = ["ShardLane"]


class ShardLane:
    """One shard's background retrain maintenance lane."""

    def __init__(self, shard_id: int, index) -> None:
        self.shard_id = shard_id
        self.index = index
        self.name = f"shard-lane-{shard_id}"
        self.pumps = 0
        self.expansions_finished = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def pump(self) -> dict:
        """One maintenance pass: finish the shard's complete expansions."""
        obs_recorder.record("lane", self.name)
        finished = 0
        maintenance = getattr(self.index, "maintenance", None)
        if maintenance is not None:
            finished = maintenance()
        self.pumps += 1
        obs_metrics.inc("shard.lane_pumps")
        if finished:
            self.expansions_finished += finished
            obs_metrics.inc("shard.lane_expansions", finished)
        return {"lane": self.name, "finished": finished}

    # -- threaded mode ---------------------------------------------------

    def _body(self, interval: float) -> None:
        rec = obs_recorder.active_recorder()
        if rec is not None:
            rec.name_thread(self.name)
        while not self._stop.wait(interval):
            self.pump()

    def start(self, interval: float = 0.005) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._body, args=(interval,), name=self.name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self.pump()  # final synchronous pass: nothing left behind
