"""Simulated network: node registry, delivery, crashes, failure detection.

The network delivers messages with latencies drawn from a
:class:`repro.sim.latency.LatencyModel`, accounts every byte into
:class:`repro.sim.monitor.Metrics`, and models the failure-detection
behaviour the paper relies on: each *registered link* (an open TCP
connection of the HyParView active view) produces an
``on_link_failed(peer)`` notification at the surviving endpoint a
keep-alive-detection delay after a crash (§II-A, §II-F).

Messages in flight to a crashed node are dropped at delivery time — the
TCP connection would have been reset — counted under the ``dropped``
metrics counter and, if the link was registered, the sender is notified
through the same failure-detection path.

Delivery plan (DESIGN.md §2), decided once at construction.  **Fused** —
the model is ``zero_cost()`` with a ``uniform_delay``: a :meth:`send` is
one ``_deliver_fast`` event and a :meth:`send_many` one ``_deliver_fan``
event for all recipients (one shared message instance, one batched
accounting call).  **Per-destination** — every other model: one loop
rolls the sender's occupancy horizon, samples propagation, flips the
loss coin, FIFO-clamps and pushes one event per destination, which
queues behind the receiver's horizon (``_deliver`` → ``_process``) when
the model charges occupancy.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

try:  # a FanWave is numpy arrays; only the vectorized kernel builds one
    import numpy as np
except ImportError:  # pragma: no cover - CI always installs numpy
    np = None

from repro.errors import SimulationError
from repro.ids import NodeId
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.message import Message
from repro.sim.monitor import Metrics
from repro.sim.node import ProtocolNode
from repro.sim.rng import derive


class FanWave:
    """A dissemination wave: N fused fan-out events carrying one message
    that arrive at one instant, kept as arrays (DESIGN.md §12).

    Fan ``i`` carries ``msg`` at wire size ``size`` from ``srcs[i]`` to
    ``dsts[offs[i]:offs[i + 1]]``.  ``len`` counts fans and a slice
    selects fans, which is all an engine run entry needs
    (:meth:`Simulator.call_at_run`).  Only the vectorized flood kernel
    builds one, so only it needs numpy.
    """

    __slots__ = ("srcs", "offs", "dsts", "msg", "size")

    def __init__(self, srcs, offs, dsts, msg: Message, size: int) -> None:
        self.srcs = srcs
        self.offs = offs
        self.dsts = dsts
        self.msg = msg
        self.size = size

    def __len__(self) -> int:
        return len(self.srcs)

    def __getitem__(self, part: slice) -> "FanWave":
        a, b, _ = part.indices(len(self.srcs))
        offs = self.offs[a : b + 1]
        return FanWave(
            self.srcs[a:b], offs - offs[0], self.dsts[offs[0] : offs[-1]],
            self.msg, self.size,
        )


class Network:
    """Registry + message fabric shared by all nodes of one simulation."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[Metrics] = None,
        *,
        keepalive_period: float = 1.0,
        capacity_sigma: float = 0.5,
        loss_percent: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_percent < 100.0:
            raise ValueError(f"loss_percent must be in [0, 100), got {loss_percent}")
        self.sim = sim
        #: The runtime-seam name for the time source (DESIGN.md §13):
        #: ``Network`` doubles as the simulator's ``MessageTransport``
        #: implementation, and ``Simulator`` duck-types ``Clock``.
        self.clock = sim
        self.latency = latency if latency is not None else ConstantLatency()
        self.metrics = metrics if metrics is not None else Metrics()
        self.keepalive_period = keepalive_period
        self.capacity_sigma = capacity_sigma
        self.nodes: dict[NodeId, ProtocolNode] = {}
        self._next_id = 0
        #: Registered TCP links, by endpoint.  Invariant: every key maps to
        #: a non-empty peer set and belongs to a live node — crash() and
        #: _unlink() prune aggressively so keep-alive accounting can walk
        #: exactly the live links (DESIGN.md §5).
        self.links: dict[NodeId, set[NodeId]] = {}
        #: (observer, failed) pairs with a failure notice in flight, to
        #: de-duplicate crash-driven and send-failure-driven notifications.
        #: Entries are dropped again once the notice fires, so the set
        #: stays bounded under arbitrarily long churn runs.
        self._notified: set[tuple[NodeId, NodeId]] = set()
        self._rng = derive(sim.seed, "network")
        #: Per-link loss model (DESIGN.md §14): each (message, destination)
        #: pair flips one independent coin on its *own* RNG stream —
        #: ``derive(seed, "loss")`` — so enabling loss never perturbs the
        #: latency or protocol draws of an identically-seeded run.  Draws
        #: happen at send time, per destination in destination order,
        #: *after* any latency sampling for that destination; a lost
        #: message is fully accounted as sent (the sender transmitted it)
        #: but never scheduled for delivery.
        self._loss_rate = loss_percent / 100.0
        self._loss_rng = derive(sim.seed, "loss") if loss_percent > 0.0 else None
        self._capacities: dict[NodeId, float] = {}
        #: Observers called as fn(node_id) after a crash is applied.
        self.crash_listeners: list[Callable[[NodeId], None]] = []
        #: Slotted kernels (see :meth:`register_kernel`) whose per-node
        #: slot state the network releases as the final step of a crash.
        self._kernels: list = []
        #: When False, ``ProtocolNode.periodic`` creates timers without
        #: arming them — the bulk-bootstrap path flips this off while
        #: spawning so wiring 100k nodes schedules zero shuffle events
        #: (DESIGN.md §8).  Deferred tasks are armed via ``task.start()``.
        self.autostart_timers: bool = True
        #: Per-node occupancy horizon: one shared CPU/NIC queue per node.
        #: Sends and receive-processing serialize against each other —
        #: the single-core model that makes duplicate processing delay a
        #: node's own forwards (the §III-B "heavy load" effect).
        self._busy: dict[NodeId, float] = {}
        zero_cost = self.latency.zero_cost()
        uniform = self.latency.uniform_delay
        #: The delivery plan (DESIGN.md §2), decided once: both facts are
        #: static properties of the model, not of simulation state.  True
        #: = fused (no occupancy, one arrival instant per fan-out); False
        #: = the per-destination loop of :meth:`_send_each`.
        self._fused = zero_cost and uniform is not None
        #: What a per-destination event runs on arrival (bound once):
        #: without occupancy costs there is no receive queue to wait in,
        #: so delivery and processing are one event.
        self._arrive = self._deliver_fast if zero_cost else self._deliver
        #: Opt-in batched receivers by message kind (DESIGN.md §9): a
        #: fused same-arrival fan-out whose message kind has a sink is
        #: handed to it whole — one call per fan-out instead of one
        #: ``handle_message`` per receiver.  Empty unless a slotted
        #: kernel registered one; the fused path pays one falsy check.
        self._fan_sinks: dict[str, Callable[[NodeId, list[NodeId], Message, int], None]] = {}
        #: The fused plan's fan event function, bound once: attribute
        #: access would otherwise mint a fresh bound method on every
        #: fused send — every BRISA and membership fan.  The instance
        #: attribute shadows the class method.
        self._deliver_fan = self._deliver_fan
        #: The per-destination plan's receive stage, bound once for the
        #: same reason: ``_deliver`` runs per arrival and would otherwise
        #: mint a bound ``_process`` and look ``rx_cost`` up each time.
        self._process = self._process
        self._rx_cost = self.latency.rx_cost
        #: Messages between one ordered pair ride one TCP connection, so
        #: delivery must be FIFO.  Models with per-message sampled jitter
        #: can invert two sends otherwise — e.g. a Deactivate overtaken by
        #: a later Activate leaves the link-activation state permanently
        #: inconsistent at the two endpoints.  Uniform-delay models are
        #: FIFO by construction (arrival monotone in send time) and skip
        #: the bookkeeping.
        self._fifo_order = uniform is None
        #: Last scheduled arrival per ordered pair (FIFO clamp state).
        self._fifo: dict[tuple[NodeId, NodeId], float] = {}

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def allocate_id(self) -> NodeId:
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_node(self, node: ProtocolNode) -> ProtocolNode:
        if node.node_id in self.nodes:
            raise SimulationError(f"node id {node.node_id} already registered")
        self.nodes[node.node_id] = node
        return node

    def spawn(self, factory: Callable[["Network", NodeId], ProtocolNode]) -> ProtocolNode:
        """Allocate an id, build a node with ``factory`` and register it."""
        nid = self.allocate_id()
        return self.add_node(factory(self, nid))

    def spawn_many(
        self, factory: Callable[["Network", NodeId], ProtocolNode], count: int
    ) -> list[ProtocolNode]:
        """Batched :meth:`spawn`: allocate ``count`` consecutive ids and
        register the factory-built nodes in one registry walk.

        Semantically ``[self.spawn(factory) for _ in range(count)]`` with
        the per-call indirection (id allocation, duplicate check, method
        dispatch) hoisted out of the loop — the node-materialization leg
        of the array-backed bootstrap (DESIGN.md §8)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        nodes = self.nodes
        spawned: list[ProtocolNode] = []
        append = spawned.append
        for _ in range(count):
            nid = self._next_id
            self._next_id = nid + 1
            node = factory(self, nid)
            if node.node_id in nodes:
                raise SimulationError(f"node id {node.node_id} already registered")
            nodes[node.node_id] = node
            append(node)
        return spawned

    def alive(self, node_id: NodeId) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def node(self, node_id: NodeId) -> ProtocolNode:
        return self.nodes[node_id]

    def alive_ids(self) -> list[NodeId]:
        return [nid for nid, node in self.nodes.items() if node.alive]

    def crash(self, node_id: NodeId) -> None:
        """Fail a node: stop it, notify linked peers after detection delay,
        and purge every per-node bookkeeping entry so long churn runs do
        not grow memory without bound."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.on_crash()
        self.metrics.incr("crashes")
        for peer in list(self.links.get(node_id, ())):
            self._unlink(node_id, peer)
            self._schedule_failure_notice(peer, node_id)
        self.links.pop(node_id, None)
        self._busy.pop(node_id, None)
        self._capacities.pop(node_id, None)
        if self._fifo:
            # FIFO clamp state for pairs involving the dead node can
            # never matter again (ids are not reused); drop it so long
            # churn runs stay bounded.
            self._fifo = {
                pair: t for pair, t in self._fifo.items() if node_id not in pair
            }
        # Pending notices *to* the dead node will never be acted on; their
        # dedup entries would otherwise outlive the node forever (ids are
        # never reused).  Notices *about* it stay until they fire.
        self._notified = {
            pair for pair in self._notified if pair[0] != node_id
        }
        for listener in self.crash_listeners:
            listener(node_id)
        # Kernel slot release runs last: protocol teardown and crash
        # listeners above may still read the node's slot state (rows,
        # per-plane counters) before the slot is zeroed and recycled.
        for kernel in self._kernels:
            kernel.release_node(node_id)

    # ------------------------------------------------------------------
    # Links & failure detection
    # ------------------------------------------------------------------
    def register_link(self, a: NodeId, b: NodeId) -> None:
        """Record an open TCP connection between two live nodes.

        Registering against a *crashed* endpoint models a TCP connect to
        a dead host: no link is recorded and the live side learns of the
        failure through the regular detection path.  Without this guard a
        ``NeighborAccept`` processed after its sender's crash notice has
        already fired re-registers the link with nothing left in flight
        to reset it — a permanent ``links`` entry for a dead node and a
        dead peer pinned in the survivor's active view (reachable under
        occupancy backlog, where delivery delay exceeds the keep-alive
        detection delay; regression-tested in tests/test_churn_at_scale.py).
        """
        if a == b:
            raise SimulationError("cannot link a node to itself")
        nodes = self.nodes
        node_a = nodes.get(a)
        node_b = nodes.get(b)
        a_dead = node_a is not None and not node_a.alive
        b_dead = node_b is not None and not node_b.alive
        if a_dead or b_dead:
            # Ids never registered stay linkable (pre-spawn bulk wiring);
            # only *crashed* endpoints refuse the connection.
            if not a_dead:
                self._schedule_failure_notice(a, b)
            elif not b_dead:
                self._schedule_failure_notice(b, a)
            return
        links = self.links
        peers = links.get(a)
        if peers is None:
            peers = links[a] = set()
        peers.add(b)
        peers = links.get(b)
        if peers is None:
            peers = links[b] = set()
        peers.add(a)
        self._notified.discard((a, b))
        self._notified.discard((b, a))

    def register_links(self, edges: Iterable[tuple[NodeId, NodeId]]) -> int:
        """Bulk-register undirected links (synthesized-overlay bootstrap).

        Equivalent to calling :meth:`register_link` per edge, but binds the
        dicts once so wiring a whole synthesized topology stays O(edges)
        with minimal constant factor.  Returns the number of edges
        processed."""
        links = self.links
        notified_discard = self._notified.discard
        count = 0
        for a, b in edges:
            if a == b:
                raise SimulationError("cannot link a node to itself")
            peers = links.get(a)
            if peers is None:
                peers = links[a] = set()
            peers.add(b)
            peers = links.get(b)
            if peers is None:
                peers = links[b] = set()
            peers.add(a)
            notified_discard((a, b))
            notified_discard((b, a))
            count += 1
        return count

    def register_links_csr(self, ids, offsets, neighbors, *, validate: bool = True) -> int:
        """Bulk-register a whole symmetric CSR adjacency (array-backed
        bootstrap, DESIGN.md §8).

        ``offsets``/``neighbors`` describe row ``i`` as the index slice
        ``neighbors[offsets[i]:offsets[i+1]]``; entries are *indices into*
        ``ids``, which maps them to node ids.  The adjacency must be
        symmetric (every edge in both rows); with ``validate`` (the
        default) this is checked *before* any mutation, so a bad input
        cannot leave half-registered one-directional links behind.  A
        caller whose adjacency is symmetric by construction (the
        synthesizer — property-tested) may skip the O(edges) pass.
        Each undirected link is covered by building one peer set per
        node instead of two dict round trips per edge.  Returns the
        number of undirected edges registered."""
        n = len(ids)
        # One id-mapped peer set per node, shared by the validation pass
        # and the registration loop below.
        rows: list[set[NodeId]] = [
            {ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]}
            for i in range(n)
        ]
        # Self-links are rejected before any mutation on both paths; the
        # O(edges) symmetry pass is what ``validate=False`` skips.
        for i, nid in enumerate(ids):
            if nid in rows[i]:
                raise SimulationError("cannot link a node to itself")
        if validate:
            for i, nid in enumerate(ids):
                for j in neighbors[offsets[i] : offsets[i + 1]]:
                    if nid not in rows[j]:
                        raise SimulationError(
                            f"CSR adjacency is not symmetric: edge "
                            f"({nid}, {ids[j]}) has no reverse entry"
                        )
        links = self.links
        notified = self._notified
        total = 0
        for i, peers in enumerate(rows):
            if not peers:
                continue
            nid = ids[i]
            existing = links.get(nid)
            if existing is None:
                links[nid] = peers
            else:
                existing |= peers
            total += len(peers)
            if notified:
                for peer in peers:
                    notified.discard((nid, peer))
                    notified.discard((peer, nid))
        return total // 2

    def unregister_link(self, a: NodeId, b: NodeId) -> None:
        self._unlink(a, b)

    def _unlink(self, a: NodeId, b: NodeId) -> None:
        links = self.links
        peers = links.get(a)
        if peers is not None:
            peers.discard(b)
            if not peers:
                del links[a]
        peers = links.get(b)
        if peers is not None:
            peers.discard(a)
            if not peers:
                del links[b]

    def linked(self, a: NodeId, b: NodeId) -> bool:
        return b in self.links.get(a, ())

    def check_link_invariants(self) -> None:
        """Raise unless the registered-link invariants hold: every
        endpoint maps to a live node, every peer set is non-empty, and
        every link appears in both directions.

        The invariants are guaranteed whenever no messages or failure
        notices are in flight (crash purging and the TCP-reset emulation
        repair transient violations); tests call this after draining the
        heap to catch link leaks under churn (DESIGN.md §3, §9).
        """
        links = self.links
        for nid, peers in links.items():
            node = self.nodes.get(nid)
            if node is None or not node.alive:
                raise SimulationError(
                    f"links registry holds dead endpoint {nid} (peers {sorted(peers)})"
                )
            if not peers:
                raise SimulationError(f"links registry holds empty peer set for {nid}")
            for peer in peers:
                if nid not in links.get(peer, ()):
                    raise SimulationError(
                        f"link {nid}->{peer} has no reverse entry"
                    )

    def _schedule_failure_notice(self, observer: NodeId, failed: NodeId) -> None:
        if (observer, failed) in self._notified:
            return
        self._notified.add((observer, failed))
        delay = self._rng.uniform(0.5, 1.5) * self.keepalive_period
        self.sim.call_later(delay, self._deliver_failure_notice, observer, failed)

    def _deliver_failure_notice(self, observer: NodeId, failed: NodeId) -> None:
        # The in-flight notice has landed: its dedup entry has done its
        # job (register_link also clears it on reconnection).
        self._notified.discard((observer, failed))
        node = self.nodes.get(observer)
        if node is not None and node.alive and not self.alive(failed):
            node.on_link_failed(failed)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        """Send ``msg`` from ``src`` to ``dst``.

        Total delay = sender serialization queue (NIC bandwidth + per-
        message processing, serialized per node) + propagation latency +
        receiver processing queue.  On the fused plan this reduces to
        pure propagation delay and a single scheduled event.
        """
        if src == dst:
            raise SimulationError(f"node {src} attempted to message itself")
        sender = self.nodes.get(src)
        if sender is None or not sender.alive:
            return
        size = msg.size_bytes()
        self.metrics.account_send(src, msg.kind, size)
        if not self._fused:
            self._send_each(src, (dst,), msg, size)
        elif self._loss_rng is not None and self._loss_rng.random() < self._loss_rate:
            self._drop_lost(1)
        else:
            sim = self.sim
            sim.call_at(
                sim.now + self.latency.uniform_delay, self._deliver_fast, src, dst, msg, size
            )

    def _send_each(self, src: NodeId, targets: Iterable[NodeId], msg: Message, size: int) -> None:
        """The per-destination plan: one arrival event per target.

        The order of effects per destination is fixed and load-bearing:
        the sender's horizon is rolled first (the NIC serialized the
        frame before the link could drop it, so a lost transmission
        still occupies the sender); latency is sampled before the loss
        coin, so the latency stream consumes identical draws with loss
        on or off; only survivors touch the FIFO clamp (a lost message
        never arrives).  ``tx_cost`` is probed once per call — costs are
        pure in ``(node, size)``, see :class:`LatencyModel`.
        """
        sim = self.sim
        now = sim.now
        tx_cost = self.latency.tx_cost(src, size)
        # A free transmission leaves at once; a costed one queues behind
        # the node's backlog (its earlier sends and receive processing).
        tx_done = max(now, self._busy.get(src, now)) if tx_cost > 0.0 else now
        sample = self.latency.sample
        loss_rng = self._loss_rng
        rate = self._loss_rate
        fifo = self._fifo if self._fifo_order else None
        call_at = sim.call_at
        arrive = self._arrive
        lost = 0
        for dst in targets:
            tx_done += tx_cost
            arrival = tx_done + sample(src, dst)
            if loss_rng is not None and loss_rng.random() < rate:
                lost += 1
                continue
            if fifo is not None:
                # Clamp to the pair's last scheduled arrival so src→dst
                # stays FIFO (same-timestamp ties keep send order through
                # the heap's sequence key).
                last = fifo.get((src, dst))
                if last is not None and arrival < last:
                    arrival = last
                fifo[src, dst] = arrival
            call_at(arrival, arrive, src, dst, msg, size)
        if tx_cost > 0.0:
            self._busy[src] = tx_done
        if lost:
            self._drop_lost(lost)

    def send_many(self, src: NodeId, dsts: Iterable[NodeId], msg: Message) -> int:
        """Fan ``msg`` out from ``src`` to every destination in ``dsts``.

        The *same* message instance is shared by all recipients — senders
        must treat a message as immutable once handed to the network
        (every protocol here does; it is the wire abstraction).  Sharing
        lifts the per-peer message construction and byte-size computation
        out of fan-out loops, and the traffic accounting collapses into
        one batched call.  Returns the number of sends.
        """
        sender = self.nodes.get(src)
        if sender is None or not sender.alive:
            return 0
        # Validate + snapshot before any scheduling so a bad destination
        # cannot leave half a fan-out in flight but unaccounted (and a
        # caller mutating its list afterwards cannot reach the heap).
        targets = list(dsts)
        if not targets:
            return 0
        if src in targets:
            raise SimulationError(f"node {src} attempted to message itself")
        size = msg.size_bytes()
        if self._fused:
            self.send_fan_unchecked(src, targets, msg, size)
        else:
            self._send_each(src, targets, msg, size)
            # Accounting covers every destination, lost or not: the
            # sender transmitted the bytes; loss happens on the link.
            self.metrics.account_send_many(src, msg.kind, size, len(targets))
        return len(targets)

    def _deliver_fast(self, src: NodeId, dst: NodeId, msg: Message, size: int) -> None:
        """Single-message arrival for zero-occupancy models: one node
        lookup, no receive-queue event."""
        node = self.nodes.get(dst)
        if node is None or not node.alive:
            self._drop(src, dst)
            return
        self.metrics.account_receive(dst, size)
        node.handle_message(src, msg)

    def send_fan_unchecked(
        self, src: NodeId, dsts: list[NodeId], msg: Message, size: int
    ) -> None:
        """The fused plan's fan-out: every recipient sees the same
        arrival time, so the whole fan-out rides one ``_deliver_fan``
        event (delivery order within the timestamp matches the per-peer
        FIFO order it replaces) plus one batched accounting call.
        :meth:`send_many` lands here after its checks; kernels (fan
        sinks, DESIGN.md §9) call it directly, guaranteeing what
        ``send_many`` checks — fused plan, live sender, no self-sends, a
        non-empty snapshot list they will not mutate — and supplying the
        precomputed ``size``.

        Loss prunes destinations before the event is scheduled (one coin
        per destination, in destination order), so a fully-lost fan-out
        schedules nothing at all; accounting covers every destination
        either way — the sender transmitted the bytes."""
        n_sent = len(dsts)
        if self._loss_rng is not None:
            dsts = self._mask_lost(dsts)
        if dsts:
            sim = self.sim
            sim.call_at(
                sim.now + self.latency.uniform_delay, self._deliver_fan, src, dsts, msg, size
            )
        self.metrics.account_send_many(src, msg.kind, size, n_sent)

    def send_fan_wave(
        self, wave: FanWave, sink: Callable[[FanWave], None]
    ) -> "np.ndarray | None":
        """File a whole wave of fused fan-outs as ONE engine run entry
        (:meth:`Simulator.call_at_run`) that hands it to ``sink``, with
        one batched accounting pass.

        Exactly equivalent to calling :meth:`send_fan_unchecked` once per
        fan in wave order: the same ``seq`` numbers, Metrics totals and
        loss draws — under loss one coin per destination in flat wave
        order, the per-fan sequence, and a fully-lost fan schedules
        nothing.  The kernel guarantees per fan what
        :meth:`send_fan_unchecked` requires of its callers.  Returns
        ``None`` when every fan was scheduled whole, else the number of
        destinations scheduled per fan (0 = no event), from which the
        caller replays the per-event push counts (peak-backlog
        emulation, DESIGN.md §12).
        """
        # Every destination is accounted, lost or not: the sender
        # transmitted the bytes; loss happens on the link.
        self.metrics.account_wave(wave)
        survivors = None
        if self._loss_rng is not None:
            wave, survivors = self._mask_wave(wave)
        sim = self.sim
        sim.call_at_run(sim.now + self.latency.uniform_delay, sink, wave)
        return survivors

    def _mask_wave(self, wave: FanWave) -> "tuple[FanWave, np.ndarray | None]":
        """:meth:`_mask_lost` over a whole wave: one coin per destination
        in flat order.  Returns the surviving wave (fully-lost fans
        removed) and the survivors per fan of ``wave``, or
        ``(wave, None)`` when nothing was lost."""
        dsts = wave.dsts
        coins = np.fromiter(
            iter(self._loss_rng.random, None), dtype=np.float64, count=len(dsts)
        )
        keep = coins >= self._loss_rate
        kept_before = np.zeros(len(dsts) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        lost = len(dsts) - int(kept_before[-1])
        if not lost:
            return wave, None
        self._drop_lost(lost)
        survivors = kept_before[wave.offs[1:]] - kept_before[wave.offs[:-1]]
        live = np.nonzero(survivors)[0]
        offs = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(survivors[live], out=offs[1:])
        return FanWave(wave.srcs[live], offs, dsts[keep], wave.msg, wave.size), survivors

    def register_fan_sink(
        self, kind: str, sink: Callable[[NodeId, list[NodeId], Message, int], None]
    ) -> None:
        """Route whole fused fan-outs of one message kind to ``sink``.

        The sink replaces the per-receiver loop of :meth:`_deliver_fan`
        for that kind and therefore owns its semantics: alive-filtering,
        receive accounting, dead-destination drops (via :meth:`_drop`)
        and handler dispatch, in destination order.  Only fan-outs on
        the fused plan are affected — single sends and the
        per-destination plan keep the regular per-node chain — so a
        run's receive bookkeeping stays consistent per latency model.
        Used by the slotted kernels (DESIGN.md §9, §11) to process a
        fan-out's receptions against flat arrays with locals bound once;
        the vectorized flood kernel's sink turns the fan-out into a
        one-fan :class:`FanWave` (DESIGN.md §12).
        """
        self._fan_sinks[kind] = sink

    def register_kernel(self, kernel) -> None:
        """Attach a slotted kernel's lifecycle to this network.

        The kernel must expose ``release_node(node_id)``; :meth:`crash`
        calls it after the node teardown and crash listeners, so dead
        nodes' slot state — seen rows, plane counters, relay rows,
        maintenance caches — is zeroed and recycled exactly once, however
        the crash was initiated (churn driver, test, or protocol logic).
        """
        self._kernels.append(kernel)

    def _deliver_fan(self, src: NodeId, dsts: list[NodeId], msg: Message, size: int) -> None:
        """One event delivering a whole same-arrival fan-out."""
        if self._fan_sinks:
            sink = self._fan_sinks.get(msg.kind)
            if sink is not None:
                sink(src, dsts, msg, size)
                return
        nodes = self.nodes
        account = self.metrics.account_receive
        for dst in dsts:
            node = nodes.get(dst)
            if node is None or not node.alive:
                self._drop(src, dst)
                continue
            account(dst, size)
            node.handle_message(src, msg)

    def _deliver(self, src: NodeId, dst: NodeId, msg: Message, size: int) -> None:
        node = self.nodes.get(dst)
        if node is None or not node.alive:
            self._drop(src, dst)
            return
        rx_cost = self._rx_cost(dst, size)
        if rx_cost > 0.0:
            sim = self.sim
            now = sim.now
            ready = max(now, self._busy.get(dst, now)) + rx_cost
            self._busy[dst] = ready
            sim.call_at(ready, self._process, src, dst, msg, size)
        else:
            self._process(src, dst, msg, size)

    def _process(self, src: NodeId, dst: NodeId, msg: Message, size: int) -> None:
        node = self.nodes.get(dst)
        if node is None or not node.alive:
            # Crashed while the message sat in its receive queue.
            self.metrics.incr("dropped_crash")
            self.metrics.incr("dropped")
            return
        self.metrics.account_receive(dst, size)
        node.handle_message(src, msg)

    def _drop(self, src: NodeId, dst: NodeId) -> None:
        """A message reached a dead endpoint: count it and emulate the
        TCP reset — a sender holding an open connection learns of the
        failure through the regular detection path.

        Crash-time drops and link-loss drops are separate counters
        (``dropped_crash`` / ``dropped_loss``) so loss-rate experiments
        never misattribute churn casualties; ``dropped`` stays their sum
        for bench-compare continuity."""
        self.metrics.incr("dropped_crash")
        self.metrics.incr("dropped")
        if self.linked(src, dst) or self.linked(dst, src):
            self._unlink(src, dst)
            self._schedule_failure_notice(src, dst)

    def _drop_lost(self, n: int) -> None:
        """Count ``n`` messages dropped by the per-link loss model."""
        self.metrics.incr("dropped_loss", n)
        self.metrics.incr("dropped", n)

    def _mask_lost(self, targets: list[NodeId]) -> list[NodeId]:
        """Flip one loss coin per destination, in destination order, and
        return the surviving sublist.  Only called when loss is enabled."""
        rand = self._loss_rng.random
        rate = self._loss_rate
        kept = [dst for dst in targets if rand() >= rate]
        lost = len(targets) - len(kept)
        if lost:
            self._drop_lost(lost)
        return kept

    # ------------------------------------------------------------------
    # Measurements available to protocol logic
    # ------------------------------------------------------------------
    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Keep-alive-measured RTT estimate between two nodes (§II-E:
        delay-aware selection leverages HyParView keep-alive RTTs)."""
        return self.latency.expected_rtt(a, b)

    def capacity(self, node_id: NodeId) -> float:
        """Per-node relative capacity (heterogeneity-aware strategy)."""
        cap = self._capacities.get(node_id)
        if cap is None:
            cap = derive(self.sim.seed, "capacity", node_id).lognormvariate(
                0.0, self.capacity_sigma
            )
            self._capacities[node_id] = cap
        return cap

    def peer_stats(self, peer: NodeId, stream: int) -> "tuple[float, int] | None":
        """(uptime, relay-load) of a live peer, or None (runtime seam).

        Stands in for the stats the paper piggybacks on HyParView
        keep-alives (§II-E): the simulator reads the peer object
        directly.  Duck-typed on ``children_of`` so this module needs no
        BRISA import; non-BRISA populations report zero load, exactly as
        the old in-protocol ``isinstance`` check did.  A pure read: it
        creates no stream state on the peer and schedules nothing.
        """
        peer_node = self.nodes.get(peer)
        if peer_node is None or not peer_node.alive:
            return None
        children_of = getattr(peer_node, "children_of", None)
        load = len(children_of(stream)) if children_of is not None else 0
        return (peer_node.uptime, load)

    def peer_uptime(self, peer: NodeId) -> "float | None":
        """A live peer's uptime, or None (runtime seam): what an
        uptime-ranking strategy reads, without :meth:`peer_stats`'s
        O(degree) relay-load list."""
        peer_node = self.nodes.get(peer)
        if peer_node is None or not peer_node.alive:
            return None
        return peer_node.uptime

    def peer_position(self, peer: NodeId, stream: int) -> Any:
        """A live peer's cycle-predictor position on ``stream`` — a path
        tuple, depth label or Bloom mask (DESIGN.md §16) — or None.

        Backs BRISA's repair-eligibility probe; same omniscient-simulator
        shortcut as :meth:`peer_stats`.
        """
        peer_node = self.nodes.get(peer)
        if peer_node is None or not peer_node.alive:
            return None
        streams = getattr(peer_node, "streams", None)
        if streams is None:
            return None
        peer_state = streams.get(stream)
        return peer_state.position if peer_state is not None else None

    # ------------------------------------------------------------------
    # Analytic keep-alive accounting (see DESIGN.md §5)
    # ------------------------------------------------------------------
    def account_keepalives(self, phase: str, duration: float, ka_bytes: int = 48) -> None:
        """Charge keep-alive traffic for ``duration`` seconds of ``phase``.

        Each registered link carries one probe + one ack per keep-alive
        period in each direction.  This is accounted analytically instead
        of being simulated per-packet (it changes no protocol decision):
        the per-link byte rate is precomputed once per phase and the walk
        touches exactly the live links — ``self.links`` holds no dead
        nodes and no empty peer sets by construction.
        """
        if duration <= 0:
            return
        # Precomputed per-phase rate: bytes per link for the whole phase.
        per_link_bytes = int(round(duration / self.keepalive_period * ka_bytes))
        if per_link_bytes <= 0:
            return
        account = self.metrics.account_overhead
        nodes = self.nodes
        for node_id, peers in self.links.items():
            # Links to a node that died without crash() being observed yet
            # (stale handshake races) must not charge the dead endpoint.
            node = nodes.get(node_id)
            if node is None or not node.alive:
                continue
            n = len(peers)
            account(node_id, phase, sent=per_link_bytes * n, received=per_link_bytes * n)
