"""Asyncio implementation of the runtime seam: real clocks, real UDP.

One worker process runs one event loop hosting M nodes.  The two
contracts from :mod:`repro.runtime.api` map onto it directly:

- :class:`AsyncioClock` — ``now`` is seconds since a *shared epoch*: the
  coordinator samples ``time.monotonic()`` once at launch and ships it
  to every worker, and ``CLOCK_MONOTONIC`` is machine-wide on Linux, so
  timestamps taken in different processes are directly comparable (the
  live runner's delivery latencies rely on this).  RNG streams derive
  from the run seed through the same :func:`repro.sim.rng.derive` as
  the simulator — a live node and its same-seed simulated twin draw
  identical streams.

- :class:`UdpTransport` — one datagram socket per worker; every send is
  a real UDP packet (loopback included — two nodes in one process still
  round-trip through the kernel), encoded by :mod:`repro.runtime.wire`
  with a 16-byte ``(src, dst)`` routing envelope in front of the frame.
  The address table mapping node id -> (host, port) is pushed by the
  coordinator before traffic starts.  Per the transport contract,
  ``peer_stats``/``peer_position`` return None: a real network is not
  omniscient.  Only non-default strategies read ``peer_stats``; soft
  repair reads ``peer_position``, and with None it finds no eligible
  neighbour, so a live orphan repairs hard.

Nothing here imports the simulator's engine or network.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
from typing import Any, Callable, Optional

from repro.ids import NodeId
from repro.sim.message import Message
from repro.sim.monitor import Metrics
from repro.sim.rng import derive
from repro.runtime.wire import WireCodecError, decode_frame, encode_frame

#: Datagram routing envelope: big-endian (src, dst) node ids.
_ENVELOPE = struct.Struct("!qq")

#: Ask the kernel for a deep receive buffer: dissemination is bursty
#: (a fan-out lands as a packet train), and the default rmem on many
#: hosts drops tails of exactly such trains.
RECV_BUFFER_BYTES = 4 << 20


def encode_packet(src: NodeId, dst: NodeId, msg: Message) -> bytes:
    return _ENVELOPE.pack(src, dst) + encode_frame(msg)


def decode_packet(data: bytes) -> tuple[NodeId, NodeId, Message]:
    if len(data) < _ENVELOPE.size:
        raise WireCodecError("datagram shorter than routing envelope")
    src, dst = _ENVELOPE.unpack_from(data)
    msg, end = decode_frame(data, _ENVELOPE.size)
    if end != len(data):
        raise WireCodecError("trailing bytes after frame")
    return src, dst, msg


class _TimerHandle:
    """Adapter giving ``asyncio.TimerHandle`` the seam's handle shape."""

    __slots__ = ("_handle", "_done")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._handle.cancelled()


class AsyncioClock:
    """Event-loop clock on a cross-process shared monotonic epoch."""

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        *,
        seed: int = 0,
        epoch: Optional[float] = None,
    ) -> None:
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.seed = seed
        #: ``time.monotonic()`` at run start (coordinator-sampled).
        self.epoch = epoch if epoch is not None else time.monotonic()
        #: Offset translating run time into this loop's time axis:
        #: ``loop.time()`` is monotonic-based on the default event loop,
        #: but the translation is measured, not assumed.
        self._loop_offset = self.loop.time() - (time.monotonic() - self.epoch)

    def configure(self, *, seed: int, epoch: float) -> None:
        """Adopt the coordinator-assigned seed and shared epoch (workers
        bind sockets before their config arrives, so the clock exists
        first and is re-anchored here, before any node spawns)."""
        self.seed = seed
        self.epoch = epoch
        self._loop_offset = self.loop.time() - (time.monotonic() - self.epoch)

    @property
    def now(self) -> float:
        return time.monotonic() - self.epoch

    def schedule(self, delay: float, fn: Callable, *args) -> _TimerHandle:
        return _TimerHandle(self.loop.call_later(max(0.0, delay), fn, *args))

    def call_later(self, delay: float, fn: Callable, *args) -> None:
        self.loop.call_later(max(0.0, delay), fn, *args)

    def call_at(self, when: float, fn: Callable, *args) -> None:
        self.loop.call_at(when + self._loop_offset, fn, *args)

    def rng(self, *labels: object):
        """Same label-derived streams as ``Simulator.rng``."""
        return derive(self.seed, *labels)


class UdpTransport(asyncio.DatagramProtocol):
    """Datagram transport hosting this worker's nodes.

    Lifecycle: construct, ``await open()`` (binds the socket, fixes the
    port), learn the cluster address table via :meth:`set_peers`, spawn
    nodes, exchange traffic, ``close()``.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        *,
        host: str = "127.0.0.1",
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.clock = clock
        self.host = host
        self.metrics = metrics if metrics is not None else Metrics(record_deliveries=False)
        self.autostart_timers = True
        #: Locally-hosted nodes by id.
        self.nodes: dict[NodeId, object] = {}
        #: node id -> (host, port) for every node in the cluster.
        self.addr_of: dict[NodeId, tuple[str, int]] = {}
        self.links: dict[NodeId, set[NodeId]] = {}
        #: Wire/codec trouble counters (poisoned packets are dropped).
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_errors = 0
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Socket lifecycle (asyncio.DatagramProtocol callbacks included)
    # ------------------------------------------------------------------
    async def open(self, port: int = 0) -> int:
        """Bind the worker socket; returns the OS-assigned port."""
        await self.clock.loop.create_datagram_endpoint(
            lambda: self, local_addr=(self.host, port)
        )
        return self.port  # type: ignore[return-value]

    def connection_made(self, transport) -> None:
        self._transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES)
            except OSError:
                pass  # best effort; the default buffer still works
        self.port = transport.get_extra_info("sockname")[1]

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def set_peers(self, addr_of: dict[NodeId, tuple[str, int]]) -> None:
        self.addr_of = dict(addr_of)

    # ------------------------------------------------------------------
    # Node hosting
    # ------------------------------------------------------------------
    def spawn(self, factory, node_id: NodeId):
        node = factory(self, node_id)
        self.nodes[node_id] = node
        return node

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            src, dst, msg = decode_packet(data)
        except WireCodecError:
            self.rx_errors += 1
            return
        node = self.nodes.get(dst)
        if node is None:
            self.rx_errors += 1
            return
        self.rx_packets += 1
        self.metrics.account_receive(dst, msg.size_bytes())
        node.handle_message(src, msg)

    # ------------------------------------------------------------------
    # MessageTransport contract
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        addr = self.addr_of.get(dst)
        if addr is None or self._transport is None:
            return  # unknown peer: a real network just loses the packet
        self.metrics.account_send(src, msg.kind, msg.size_bytes())
        self.tx_packets += 1
        self._transport.sendto(encode_packet(src, dst, msg), addr)

    def send_many(self, src: NodeId, dsts, msg: Message) -> int:
        if self._transport is None:
            return 0
        # One message object, one encode: only the 16-byte routing
        # envelope differs per destination.
        frame = encode_frame(msg)
        kind, nbytes = msg.kind, msg.size_bytes()
        count = 0
        for dst in dsts:
            addr = self.addr_of.get(dst)
            if addr is None:
                continue
            self.metrics.account_send(src, kind, nbytes)
            self.tx_packets += 1
            self._transport.sendto(_ENVELOPE.pack(src, dst) + frame, addr)
            count += 1
        return count

    def register_link(self, a: NodeId, b: NodeId) -> None:
        self.links.setdefault(a, set()).add(b)
        self.links.setdefault(b, set()).add(a)

    def unregister_link(self, a: NodeId, b: NodeId) -> None:
        peers = self.links.get(a)
        if peers is not None:
            peers.discard(b)
            if not peers:
                del self.links[a]
        peers = self.links.get(b)
        if peers is not None:
            peers.discard(a)
            if not peers:
                del self.links[b]

    def rtt(self, a: NodeId, b: NodeId) -> float:
        """Loopback RTT estimate; matches the live smoke's latency scale
        so protocol timeouts (6×RTT floors) stay in the same regime as
        the cross-checked simulated run."""
        return 0.002

    def capacity(self, node_id: NodeId) -> float:
        return 1.0

    def alive(self, node_id: NodeId) -> bool:
        node = self.nodes.get(node_id)
        if node is not None:
            return node.alive
        return node_id in self.addr_of

    def peer_stats(self, peer: NodeId, stream: int) -> "tuple[float, int] | None":
        return None  # not omniscient; piggybacking is future work

    def peer_uptime(self, peer: NodeId) -> "float | None":
        return None

    def peer_position(self, peer: NodeId, stream: int) -> Any:
        return None
