"""Protocol-node base class: message dispatch, guarded timers, lifecycle.

Concrete protocol layers (HyParView, Cyclon, BRISA, the baselines) extend
:class:`ProtocolNode`.  Messages dispatch to ``on_<kind>`` methods; timers
created through :meth:`after`/:meth:`periodic` are automatically silenced
when the node crashes, so failure injection can never resurrect a node
through a stale callback.

Nodes are written against the runtime seam (DESIGN.md §13): everything a
node does goes through ``self.clock`` (time, timers, seeded RNG streams)
and ``self.transport`` (sends, link bookkeeping, metrics).  The simulated
``Network``/``Simulator`` pair satisfies those contracts directly; the
asyncio backend substitutes real sockets and wall clocks without the node
noticing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.ids import NodeId
from repro.runtime.api import MessageTransport, PeriodicTask, ScheduledHandle
from repro.sim.message import Message


class ProtocolNode:
    """A process participating in the overlay (simulated or live)."""

    #: Label under which this node's RNG stream is derived (defaults to
    #: the concrete class name).  An alternative implementation of the
    #: same protocol (e.g. the slotted flood kernel standing in for
    #: ``FloodNode``) pins this to the reference class's name so both
    #: consume identical streams — the property that makes kernel runs
    #: draw-for-draw comparable under churn.
    rng_kind: "str | None" = None

    def __init__(self, transport: MessageTransport, node_id: NodeId) -> None:
        self.transport = transport
        self.clock = transport.clock
        self.node_id = node_id
        self.alive = True
        self.birth_time = self.clock.now
        self._tasks: list[PeriodicTask] = []

    def __getattr__(self, name: str):
        # ``_rng`` is materialized on first use: deriving a per-node RNG
        # stream costs a SHA-256 plus a ``random.Random`` construction,
        # which the bulk bootstrap of 100k-node scenarios never needs for
        # nodes that stay on deterministic code paths (DESIGN.md §8).
        if name == "_rng":
            cls = type(self)
            rng = self.clock.rng("node", self.node_id, cls.rng_kind or cls.__name__)
            self._rng = rng
            return rng
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Identity / introspection
    # ------------------------------------------------------------------
    @property
    def uptime(self) -> float:
        """Seconds since this node joined (gerontocratic strategy input)."""
        return self.clock.now - self.birth_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.node_id} {state}>"

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: NodeId, msg: Message) -> None:
        self.transport.send(self.node_id, dst, msg)

    def send_many(self, dsts, msg: Message) -> int:
        """Fan one (immutable) message out to several peers in one call."""
        return self.transport.send_many(self.node_id, dsts, msg)

    def handle_message(self, src: NodeId, msg: Message) -> None:
        if not self.alive:
            return
        handler = getattr(self, msg.handler, None)
        if handler is None:
            raise ProtocolError(
                f"{type(self).__name__} has no handler for message kind {msg.kind!r}"
            )
        handler(src, msg)

    # ------------------------------------------------------------------
    # Timers (all guarded on liveness)
    # ------------------------------------------------------------------
    def after(self, delay: float, fn: Callable, *args) -> ScheduledHandle:
        def guarded() -> None:
            if self.alive:
                fn(*args)

        return self.clock.schedule(delay, guarded)

    def periodic(
        self, period: float, fn: Callable[[], None], *, jitter: float = 0.1,
        start_delay: Optional[float] = None,
    ) -> PeriodicTask:
        def guarded() -> None:
            if self.alive:
                fn()

        # The RNG is handed over as a lazy provider so an unstarted task
        # (deferred-timer bootstrap) never materializes the node's stream.
        task = PeriodicTask(
            self.clock, period, guarded, jitter=jitter, rng=lambda: self._rng,
            start_delay=start_delay,
        )
        self._tasks.append(task)
        if getattr(self.transport, "autostart_timers", True):
            task.start()
        return task

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_timers(self) -> None:
        """Arm every periodic timer created while timer autostart was
        deferred (bulk bootstrap, DESIGN.md §8).  Idempotent — already-
        running tasks are untouched — and the counterpart of the stop in
        :meth:`on_crash`, which owns the same task list."""
        for task in self._tasks:
            task.start()

    def on_crash(self) -> None:
        """Called by the network when this node fails; stops all timers."""
        self.alive = False
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    def on_link_failed(self, peer: NodeId) -> None:
        """Failure-detector notification for a registered connection."""
        # Default: nothing; the membership layer overrides.
