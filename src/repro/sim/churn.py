"""Churn driver: applies a parsed trace to a live network.

Mirrors Splay's churn-support module (§III-C): joins are spread uniformly
over ramp windows; each constant-churn period kills the configured
percentage of the live population at random instants inside the period and
joins ``replacement_ratio`` times as many fresh nodes.  The stream source
can be protected, as in the paper ("we ensure that the source node does
not fail").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.ids import NodeId
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.trace import ConstChurn, JoinRamp, SetReplacementRatio, Stop, Trace


@dataclass
class ChurnStats:
    """Counts of applied churn operations (for sanity checks/reports)."""

    kills: int = 0
    joins: int = 0
    kill_times: list[float] = field(default_factory=list)
    join_times: list[float] = field(default_factory=list)

    def kills_per_minute(self, duration: float) -> float:
        return self.kills / (duration / 60.0) if duration > 0 else 0.0


class ChurnDriver:
    """Schedules the operations of a :class:`Trace` onto a simulator.

    ``join_fn()`` must create a fresh protocol node and start its join
    procedure (the testbed supplies it).  Kills pick uniformly among live,
    unprotected nodes and go through :meth:`Network.crash`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: Trace,
        join_fn: Callable[[], object],
        *,
        protected: Optional[Iterable[NodeId]] = None,
        seed_label: str = "churn",
    ) -> None:
        self.sim = sim
        self.network = network
        self.trace = trace
        self.join_fn = join_fn
        self.protected: set[NodeId] = set(protected or ())
        self.replacement_ratio = 1.0
        self.stats = ChurnStats()
        self.stopped = False
        self._rng = sim.rng(seed_label)

    # ------------------------------------------------------------------
    def apply(self) -> None:
        """Schedule every trace operation (call once, before ``sim.run``).

        All driver events go through the fire-and-forget scheduling tier
        (pooled handles, DESIGN.md §1): the driver never cancels an event
        — ``stopped`` gates the callbacks instead — so churn at xl/xxl
        populations allocates no per-kill ``EventHandle``."""
        for op in self.trace.ops:
            if isinstance(op, JoinRamp):
                self._schedule_ramp(op)
            elif isinstance(op, SetReplacementRatio):
                self.sim.call_at(op.time, self._set_ratio, op.ratio)
            elif isinstance(op, ConstChurn):
                self._schedule_churn(op)
            elif isinstance(op, Stop):
                self.sim.call_at(op.time, self._stop)

    # ------------------------------------------------------------------
    def _set_ratio(self, ratio: float) -> None:
        self.replacement_ratio = ratio

    def _stop(self) -> None:
        self.stopped = True

    def _schedule_ramp(self, op: JoinRamp) -> None:
        span = max(0.0, op.end - op.start)
        for i in range(op.count):
            t = op.start + (span * i / op.count if op.count else 0.0)
            self.sim.call_at(t, self._join)

    def _schedule_churn(self, op: ConstChurn) -> None:
        t = op.start
        while t < op.end:
            self.sim.call_at(t, self._churn_period, op, t)
            t += op.period

    def _join(self) -> None:
        if self.stopped:
            return
        self.join_fn()
        self.stats.joins += 1
        self.stats.join_times.append(self.sim.now)

    def _stochastic_round(self, expected: float) -> int:
        """Round preserving the expectation: small populations and short
        periods must still churn at the configured *rate* on average."""
        base = int(expected)
        if self._rng.random() < expected - base:
            base += 1
        return base

    def _churn_period(self, op: ConstChurn, period_start: float) -> None:
        """Apply one period of constant churn: kills + replacement joins."""
        if self.stopped:
            return
        alive = [n for n in self.network.alive_ids() if n not in self.protected]
        n_kill = self._stochastic_round(len(alive) * op.percent / 100.0)
        n_kill = min(n_kill, len(alive))
        victims = self._rng.sample(alive, n_kill) if n_kill else []
        window = min(op.period, max(0.0, op.end - period_start))
        for victim in victims:
            delay = self._rng.uniform(0.0, window)
            self.sim.call_later(delay, self._kill, victim)
        n_join = self._stochastic_round(n_kill * self.replacement_ratio)
        for _ in range(n_join):
            delay = self._rng.uniform(0.0, window)
            self.sim.call_later(delay, self._join)

    def _kill(self, victim: NodeId) -> None:
        if self.stopped or not self.network.alive(victim):
            return
        self.network.crash(victim)
        self.stats.kills += 1
        self.stats.kill_times.append(self.sim.now)
