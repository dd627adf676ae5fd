"""The runtime API protocol nodes are written against (DESIGN.md §13).

Contracts are *structural* (:class:`typing.Protocol`): any object with
the right methods is a valid backend, so the simulator's ``Simulator``
and ``Network`` satisfy them as-is — no wrapper objects sit on the
per-message hot path.  The asyncio backend provides real implementations
over an event loop and UDP sockets.

A node sees exactly two capability objects:

- ``clock`` — virtual or wall time: ``now``, cancellable ``schedule``,
  and seeded ``rng(*labels)`` stream derivation.  Both backends derive
  RNG streams through :func:`repro.sim.rng.derive`, which is what makes
  a live run and a same-seed simulated run draw-for-draw comparable.
- ``transport`` — message delivery and link bookkeeping: ``send``,
  ``send_many``, ``register_link``/``unregister_link``, link properties
  (``rtt``, ``capacity``), liveness, per-run ``metrics``, and the
  peer-introspection hooks BRISA reads (``peer_stats`` for the
  parent-choice strategies, ``peer_position`` for repair eligibility).

:class:`PeriodicTask` lives here because it is pure clock algebra — it
only ever calls ``clock.schedule`` — and both backends reuse it
verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.ids import NodeId

if TYPE_CHECKING:  # annotation-only; keeps runtime/ import-independent of sim/
    from repro.sim.message import Message


@runtime_checkable
class ScheduledHandle(Protocol):
    """Cancellable handle returned by :meth:`Clock.schedule`."""

    def cancel(self) -> None: ...

    @property
    def active(self) -> bool: ...


@runtime_checkable
class Clock(Protocol):
    """Time source + timer scheduler + seeded RNG provisioning."""

    #: Current time in seconds.  Virtual time for the simulator, seconds
    #: since the shared run epoch for the asyncio backend.
    now: float

    def schedule(self, delay: float, fn: Callable, *args) -> ScheduledHandle:
        """Run ``fn(*args)`` ``delay`` seconds from now; cancellable."""
        ...

    def rng(self, *labels: object):
        """Independent seeded RNG stream derived from the run seed."""
        ...


@runtime_checkable
class MessageTransport(Protocol):
    """Message delivery + link bookkeeping for one node population.

    The simulator's ``Network`` satisfies this structurally; the asyncio
    backend's ``UdpTransport`` implements it over datagram sockets.
    """

    #: The clock this transport's deliveries are timed against.
    clock: Clock

    #: Per-run metrics sink (``repro.sim.monitor.Metrics``-compatible).
    metrics: object

    #: Whether ``ProtocolNode.periodic`` arms timers at creation time
    #: (False during bulk bootstrap, DESIGN.md §8).
    autostart_timers: bool

    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None: ...

    def send_many(self, src: NodeId, dsts, msg: Message) -> int: ...

    def register_link(self, a: NodeId, b: NodeId) -> None:
        """Declare an active connection (failure-detector scope)."""
        ...

    def unregister_link(self, a: NodeId, b: NodeId) -> None: ...

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Round-trip estimate between two nodes (strategy input)."""
        ...

    def capacity(self, node_id: NodeId) -> float:
        """Relative bandwidth capacity of a node (strategy input)."""
        ...

    def alive(self, node_id: NodeId) -> bool: ...

    def peer_stats(self, peer: NodeId, stream: int) -> "tuple[float, int] | None":
        """(uptime, relay-load) of a peer, or None if unobservable.

        The simulator reads the peer node directly (omniscient); a real
        transport returns None unless the protocol piggybacks the data.
        Must not change the peer (no state creation, no timers).  Called
        only for strategies declaring ``load`` among their ``inputs``, as
        :meth:`peer_uptime` is only for those declaring ``uptime`` and
        ``rtt``/``capacity`` only for those declaring them — first-come
        calls none of them.
        """
        ...

    def peer_uptime(self, peer: NodeId) -> Optional[float]:
        """A peer's uptime, or None if unobservable: :meth:`peer_stats`
        without the relay load, whose count is O(degree) on the peer."""
        ...

    def peer_position(self, peer: NodeId, stream: int) -> Any:
        """A peer's cycle-predictor position on ``stream`` — a path
        tuple, depth label or Bloom mask (DESIGN.md §16) — or None."""
        ...


class PeriodicTask:
    """Re-scheduling periodic callback with optional uniform jitter.

    Protocol timers (shuffles, keep-alives, pulls) use jitter to avoid the
    lock-step synchrony a real deployment never exhibits.

    Stop/restart semantics: ``stop()`` cancels the pending firing;
    ``start()`` after a ``stop()`` behaves exactly like the first start,
    including the ``start_delay`` override.  ``stop()`` called from inside
    ``fn()`` during a firing suppresses the re-schedule.

    ``rng`` may be an RNG instance or a zero-argument provider returning
    one; a provider is resolved on the first jittered delay draw.  Nodes
    pass a provider so a task that never starts (deferred-timer bulk
    bootstrap, DESIGN.md §8) never forces its node's RNG stream into
    existence.
    """

    def __init__(
        self,
        clock: Clock,
        period: float,
        fn: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng=None,
        start_delay: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError("period must be positive")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")
        self.clock = clock
        self.period = period
        self.fn = fn
        self.jitter = jitter
        self.rng = rng
        self._handle: Optional[ScheduledHandle] = None
        self._running = False
        self._start_delay = start_delay

    def _next_delay(self) -> float:
        if self.jitter and self.rng is not None:
            rng = self.rng
            if not hasattr(rng, "uniform"):
                rng = self.rng = rng()
            spread = self.period * self.jitter
            return self.period + rng.uniform(-spread, spread)
        return self.period

    def start(self) -> "PeriodicTask":
        if self._running:
            return self
        self._running = True
        delay = self._start_delay if self._start_delay is not None else self._next_delay()
        self._handle = self.clock.schedule(max(0.0, delay), self._fire)
        return self

    def _fire(self) -> None:
        if not self._running:
            return
        self.fn()
        if self._running:  # fn() may have stopped us
            self._handle = self.clock.schedule(self._next_delay(), self._fire)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._running
