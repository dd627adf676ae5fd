"""Multi-process live harness: the scale spine's second runtime
(DESIGN.md §13).

:func:`run_live` takes the :class:`RunSpec` that :func:`run_spec` takes
and yields the :class:`StreamOutcome` rows a ``RunSpec(stack="brisa")``
run yields, so a live run and a simulated one compare row for row.

Process model — one synchronous coordinator (this process) plus N worker
processes, each running one asyncio event loop hosting M nodes on one
UDP socket:

1. The coordinator takes the spec's overlay checkpoint, or synthesizes
   one with the simulator's ``bootstrap="synthesized"`` draws into a
   temporary directory that lives as long as the run; it binds a TCP
   control socket and spawns the workers.
2. Each worker binds its UDP socket, reports ``hello`` with the port,
   and receives its ``config``: run seed, shared clock epoch, the full
   node->address table, and the active/passive views of the nodes it
   hosts.  Nodes are spawned with timers unarmed (static overlay — the
   same regime as the simulated scale runs).
3. On ``go``, source-hosting workers schedule the K injections; the
   coordinator polls ``status`` (per-worker rx/tx counters) and declares
   quiescence when all injections are done and the global counters hold
   still across consecutive polls.
4. ``report`` collects, per hosted node, its liveness and per stream its
   delivered count and tree parents (:func:`node_report`).  The
   coordinator reads the spec's whole population through
   :class:`ReportedNode` views into :func:`brisa_stream_outcomes`, the
   simulator's own accounting: a node whose report never arrived counts
   as undelivered and unattached.
5. The cross-check (default) runs the spec on the simulator restored
   from the same checkpoint file.  The legs agree when their rows are
   equal in every field but ``structure_reason``: a live tree's shape
   follows real timing, what it covers and delivers does not.

Control protocol: one JSON object per line, both directions.  Everything
a worker knows arrives through it — workers import no experiment state.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import socket
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

from repro.config import BrisaConfig, HyParViewConfig
from repro.errors import SimulationError
from repro.experiments.bootstrap import load_overlay, synthesize_checkpoint
from repro.experiments.scale_runner import (
    RunSpec,
    StreamOutcome,
    aggregate_outcomes,
    brisa_stream_outcomes,
    merge_json,
    outcomes_summary,
    run_spec,
    spread_sources,
)

#: Default bind/connect host for the control socket and the node address
#: table (CLI ``--control-host``): a routable address lets workers run on
#: other hosts — the address table and control protocol carry host:port
#: everywhere.
CONTROL_HOST = "127.0.0.1"

#: Poll cadence of the coordinator's quiescence loop (seconds).
POLL_PERIOD = 0.25
#: Consecutive unchanged polls (with injections done) declaring the run
#: drained.  Two periods cover any in-flight loopback packet many times
#: over.
QUIET_POLLS = 2

#: :class:`RunSpec` fields the live leg fixes -> (the value it runs, the
#: flag that sets the field).  Workers run the object BRISA node over a
#: checkpointed overlay on lossless loopback links; any other value
#: would be silently ignored.
LIVE_FIXED = {
    "stack": ("brisa", "--stack"),
    "kernel": (None, "--kernel"),
    "degree": (None, "--degree"),
    "topology": ("uniform", "--topology"),
    "loss_percent": (0.0, "--loss"),
}


def check_live_spec(spec: RunSpec, *, workers: int, control_host: str) -> int:
    """Reject, flag-phrased, what the live leg cannot honour; returns
    the population."""
    for name, (value, flag) in LIVE_FIXED.items():
        if getattr(spec, name) != value:
            raise ValueError(
                f"{flag} {getattr(spec, name)} is not available on repro live "
                f"(its workers run the brisa stack's object node over a "
                f"uniform, lossless, checkpointed overlay)"
            )
    if spec.bootstrap == "simulated":
        raise ValueError(
            "a simulated bootstrap is not available on repro live "
            "(it restores a synthesized overlay or a --checkpoint)"
        )
    if workers < 1:
        raise ValueError("--workers must be >= 1")
    if not control_host:
        raise ValueError("--control-host must be a non-empty host/address")
    nodes = spec.population()
    if nodes < max(3, workers):
        raise ValueError(
            f"need >= 3 nodes and >= 1 node per worker "
            f"({nodes} nodes, {workers} workers)"
        )
    spec.validate()
    return nodes


# ----------------------------------------------------------------------
# Worker reports -> StreamOutcome rows
# ----------------------------------------------------------------------
def node_report(nodes, streams: int) -> dict:
    """A worker's report on the nodes it hosts, JSON-ready: per node id,
    its liveness and per stream its delivered count and tree parents."""
    return {
        str(node.node_id): {
            "alive": node.alive,
            "delivered": [node.delivered_count(s) for s in range(streams)],
            "parents": [node.tree_parents(s) for s in range(streams)],
        }
        for node in nodes
    }


@dataclass(frozen=True)
class ReportedNode:
    """One node as its worker reported it: the read-only face
    :func:`brisa_stream_outcomes` walks.  A node nobody reported keeps
    the defaults — alive, nothing delivered, no parent."""

    node_id: int
    alive: bool = True
    delivered: Sequence[int] = ()
    parents: Sequence[Sequence[int]] = ()

    def delivered_count(self, stream: int) -> int:
        return self.delivered[stream] if stream < len(self.delivered) else 0

    def tree_parents(self, stream: int) -> list:
        return list(self.parents[stream]) if stream < len(self.parents) else []


def live_stream_outcomes(
    reports: Sequence[dict], nodes: int, streams: int, messages: int
) -> list[StreamOutcome]:
    """The per-stream rows of a live run: the spec's population (ids
    ``0..nodes-1``, whoever reported) through the simulator's
    accounting, publishers picked by the simulator's spread rule."""
    reported: dict = {}
    for report in reports:
        reported.update(report)
    population = [ReportedNode(i, **reported.get(str(i), {})) for i in range(nodes)]
    sources = spread_sources(population, streams)
    return brisa_stream_outcomes(
        sources, [node for node in population if node.alive], messages
    )


def _agreed(row: StreamOutcome) -> dict:
    """The fields both legs must share: all but the reason text."""
    return {**asdict(row), "structure_reason": None}


@dataclass
class LiveOutcome:
    """What a live run measured, and the rows both legs yield."""

    spec: RunSpec
    #: The population the spec resolved to (ids ``0..nodes-1``).
    nodes: int
    workers: int
    #: Per-stream rows of the live leg.
    rows: list[StreamOutcome]
    #: The same-seed simulated leg's rows (None: no cross-check).
    sim_rows: Optional[list[StreamOutcome]]
    rx_packets: int
    tx_packets: int
    rx_errors: int
    elapsed: float
    clean_shutdown: bool
    warnings: list = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        return aggregate_outcomes(self.rows, self.spec.messages)[1]

    @property
    def all_structures_ok(self) -> bool:
        return all(row.structure_complete for row in self.rows)

    @property
    def cross_check_ok(self) -> "bool | None":
        """Do the live and simulated legs agree (None: no sim leg)?"""
        if self.sim_rows is None:
            return None
        return list(map(_agreed, self.rows)) == list(map(_agreed, self.sim_rows))

    def to_json(self) -> dict:
        return {
            "harness": "live-udp",
            **asdict(self),
            "delivered_fraction": self.delivered_fraction,
            "all_structures_ok": self.all_structures_ok,
            "cross_check_ok": self.cross_check_ok,
        }

    def summary(self) -> str:
        lines = [
            f"live run: {self.nodes} nodes x {self.workers} workers, "
            f"{len(self.rows)} stream(s) x {self.spec.messages} messages",
            f"delivered: {self.delivered_fraction * 100:.2f}%  "
            f"udp rx/tx: {self.rx_packets}/{self.tx_packets}",
            f"structures: {'complete/acyclic' if self.all_structures_ok else 'INCOMPLETE'}  "
            f"shutdown: {'clean' if self.clean_shutdown else 'FORCED'}  "
            f"elapsed: {self.elapsed:.1f}s",
        ]
        if len(self.rows) > 1 or not self.all_structures_ok:
            lines.append(outcomes_summary(self.rows, indent="  "))
        if self.sim_rows is not None:
            agree = self.cross_check_ok
            lines.append(
                "cross-check vs same-seed sim: " + ("agree" if agree else "DISAGREE")
            )
            if not agree:
                lines.append(outcomes_summary(self.sim_rows, indent="  sim "))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Control-socket helpers (JSON lines)
# ----------------------------------------------------------------------
class _WorkerConn:
    """Coordinator-side view of one worker's control connection."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._file = sock.makefile("rb")
        self.worker_id: int = -1
        self.udp_port: int = -1

    def send(self, obj: dict) -> None:
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    def recv(self, expect: str, deadline: float) -> dict:
        self.sock.settimeout(max(0.05, deadline - time.monotonic()))
        line = self._file.readline()
        if not line:
            raise SimulationError(f"worker {self.worker_id} closed the control socket")
        obj = json.loads(line)
        if obj.get("type") != expect:
            raise SimulationError(
                f"worker {self.worker_id}: expected {expect!r}, got {obj.get('type')!r}"
            )
        return obj

    def close(self) -> None:
        try:
            self._file.close()
            self.sock.close()
        except OSError:
            pass


def _partition(n: int, workers: int) -> list[range]:
    """Contiguous node-id blocks, one per worker (sizes differ by <= 1)."""
    return [range((w * n) // workers, ((w + 1) * n) // workers) for w in range(workers)]


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@contextmanager
def _checkpoint_file(spec: RunSpec, nodes: int):
    """The overlay both legs restore: the caller's checkpoint, or one
    synthesized for the spec's seed that lives only as long as the run."""
    if spec.bootstrap not in (None, "synthesized"):
        yield pathlib.Path(spec.bootstrap)
        return
    with tempfile.TemporaryDirectory(prefix="brisa-live-") as tmp:
        yield synthesize_checkpoint(nodes, pathlib.Path(tmp) / "overlay.json", seed=spec.seed)


def run_live(
    spec: RunSpec,
    *,
    workers: int = 2,
    timeout: float = 60.0,
    cross_check: bool = True,
    control_host: str = CONTROL_HOST,
    json_path: "str | None" = None,
) -> LiveOutcome:
    """Run ``spec`` live over ``workers`` processes; returns the outcome.

    ``timeout`` bounds the coordinator (workers still running then are
    terminated); ``cross_check`` adds the same-seed simulated leg;
    ``json_path`` merge-writes the outcome under ``live_run``.

    Raises on a spec the live leg cannot run (``ValueError``) or a
    checkpoint of the wrong size (:class:`SimulationError`); workload
    and harness failures — missed deliveries, incomplete structures, a
    dead worker, a forced shutdown — are *reported* in the outcome so
    callers (CLI, smoke test) can decide.
    """
    nodes = check_live_spec(spec, workers=workers, control_host=control_host)
    started = time.monotonic()
    sim_rows = None
    with _checkpoint_file(spec, nodes) as path:
        checkpoint = load_overlay(path)
        if checkpoint.n != nodes:
            raise SimulationError(
                f"checkpoint holds {checkpoint.n} nodes, spec asks for {nodes}"
            )
        reports, clean, warnings = _coordinate(
            spec, checkpoint, workers, control_host, started + timeout
        )
        if cross_check:
            sim = run_spec(replace(spec, bootstrap=str(path)))
            sim_rows = [StreamOutcome(**row) for row in sim.per_stream]
    outcome = LiveOutcome(
        spec=spec,
        nodes=nodes,
        workers=workers,
        rows=live_stream_outcomes(
            [rep["nodes"] for rep in reports], nodes, spec.streams, spec.messages
        ),
        sim_rows=sim_rows,
        rx_packets=sum(rep["rx"] for rep in reports),
        tx_packets=sum(rep["tx"] for rep in reports),
        rx_errors=sum(rep["rx_errors"] for rep in reports),
        elapsed=time.monotonic() - started,
        clean_shutdown=clean,
        warnings=warnings,
    )
    if json_path:
        merge_json(json_path, {"live_run": outcome.to_json()})
    return outcome


def _coordinate(
    spec: RunSpec, checkpoint, workers: int, host: str, deadline: float
) -> tuple[list[dict], bool, list[str]]:
    """Spawn the workers, drive one dissemination to quiescence and
    collect their reports; returns (reports, clean shutdown, warnings)."""
    nodes = checkpoint.n
    stream_cfgs = [
        {
            "stream": i,
            "source": src,
            "count": spec.messages,
            "rate": spec.rate,
            "payload": spec.payload_bytes,
        }
        for i, src in enumerate(spread_sources(range(nodes), spec.streams))
    ]

    # create_server sets SO_REUSEADDR and closes the socket if bind fails.
    listener = socket.create_server((host, 0), backlog=workers)
    control_port = listener.getsockname()[1]

    # Fork (not spawn): the coordinator is synchronous — no event loop or
    # threads exist yet, so forking is safe — and spawn would re-execute
    # the parent's ``__main__``, which breaks under pytest and ad-hoc
    # drivers.  Workers build their own loop+sockets post-fork.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(w, host, control_port),
            daemon=True,
            name=f"live-worker-{w}",
        )
        for w in range(workers)
    ]
    for p in procs:
        p.start()

    conns: list[_WorkerConn] = []
    warnings: list[str] = []
    clean = False
    reports: list[dict] = []
    try:
        listener.settimeout(max(1.0, (deadline - time.monotonic()) / 2))
        by_id: dict[int, _WorkerConn] = {}
        for _ in range(workers):
            sock, _addr = listener.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(sock)
            hello = conn.recv("hello", deadline)
            conn.worker_id = int(hello["worker"])
            conn.udp_port = int(hello["udp_port"])
            by_id[conn.worker_id] = conn
        conns = [by_id[w] for w in range(workers)]

        blocks = _partition(nodes, workers)
        addrs = {}
        for w, block in enumerate(blocks):
            for nid in block:
                addrs[str(nid)] = [host, conns[w].udp_port]

        epoch = time.monotonic()
        for w, conn in enumerate(conns):
            conn.send(
                {
                    "type": "config",
                    "seed": spec.seed,
                    "epoch": epoch,
                    "mode": spec.mode if spec.mode is not None else "tree",
                    "addrs": addrs,
                    "nodes": {
                        str(nid): {
                            "active": list(checkpoint.active[nid]),
                            "passive": list(checkpoint.passive[nid]),
                        }
                        for nid in blocks[w]
                    },
                    "streams": stream_cfgs,
                }
            )
        for conn in conns:
            conn.recv("ready", deadline)
        for conn in conns:
            conn.send({"type": "go"})

        # Quiescence: all injections done + global rx/tx flat across
        # QUIET_POLLS consecutive polls.
        quiet = 0
        last = None
        while True:
            if time.monotonic() >= deadline:
                warnings.append("timeout waiting for quiescence")
                break
            time.sleep(POLL_PERIOD)
            for conn in conns:
                conn.send({"type": "status"})
            stats = [conn.recv("status", deadline) for conn in conns]
            totals = (
                sum(s["rx"] for s in stats),
                sum(s["tx"] for s in stats),
                all(s["inject_done"] for s in stats),
            )
            if totals[2] and last is not None and totals[:2] == last[:2]:
                quiet += 1
                if quiet >= QUIET_POLLS:
                    break
            else:
                quiet = 0
            last = totals

        for conn in conns:
            conn.send({"type": "report"})
        reports = [conn.recv("report", deadline) for conn in conns]
        for conn in conns:
            conn.send({"type": "exit"})
        clean = True
    except (SimulationError, OSError, socket.timeout, json.JSONDecodeError) as exc:
        warnings.append(f"harness failure: {exc}")
    finally:
        listener.close()
        for conn in conns:
            conn.close()
        join_deadline = max(time.monotonic() + 5.0, deadline)
        for p in procs:
            p.join(timeout=max(0.1, join_deadline - time.monotonic()))
            if p.is_alive():
                clean = False
                warnings.append(f"worker {p.name} killed after timeout")
                p.terminate()
                p.join(timeout=5.0)
        if clean:
            clean = all(p.exitcode == 0 for p in procs)
    return reports, clean, warnings


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, host: str, port: int) -> None:
    """Entry point of one worker process (spawn context)."""
    import asyncio

    asyncio.run(_worker_async(worker_id, host, port))


async def _worker_async(worker_id: int, host: str, port: int) -> None:
    import asyncio

    from repro.core.brisa import BrisaNode
    from repro.runtime.asyncio_backend import AsyncioClock, UdpTransport

    loop = asyncio.get_running_loop()
    clock = AsyncioClock(loop)
    transport = UdpTransport(clock)
    udp_port = await transport.open()

    reader, writer = await asyncio.open_connection(host, port)

    def reply(obj: dict) -> None:
        writer.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    reply({"type": "hello", "worker": worker_id, "udp_port": udp_port})
    await writer.drain()

    streams: list[dict] = []
    injected = 0
    inject_total = 0

    def _inject(node, stream: int, seq: int, payload: int) -> None:
        nonlocal injected
        node.inject(stream, seq, payload)
        injected += 1

    while True:
        line = await reader.readline()
        if not line:
            break
        msg = json.loads(line)
        mtype = msg["type"]

        if mtype == "config":
            clock.configure(seed=msg["seed"], epoch=msg["epoch"])
            transport.set_peers(
                {int(k): (v[0], v[1]) for k, v in msg["addrs"].items()}
            )
            transport.autostart_timers = False  # static overlay, no shuffles
            cfg = BrisaConfig(mode=msg["mode"])
            hpv = HyParViewConfig()
            streams = msg["streams"]
            for nid_str, views in msg["nodes"].items():
                node = transport.spawn(
                    lambda tr, nid: BrisaNode(tr, nid, cfg, hpv), int(nid_str)
                )
                node.install_overlay(
                    list(views["active"]), list(views["passive"])
                )
            reply({"type": "ready"})
            await writer.drain()

        elif mtype == "go":
            for s in streams:
                node = transport.nodes.get(s["source"])
                if node is None:
                    continue  # another worker hosts this source
                node.become_source(s["stream"])
                inject_total += s["count"]
                for seq in range(s["count"]):
                    clock.call_later(
                        seq / s["rate"], _inject, node, s["stream"], seq, s["payload"]
                    )

        elif mtype == "status":
            reply(
                {
                    "type": "status",
                    "rx": transport.rx_packets,
                    "tx": transport.tx_packets,
                    "inject_done": injected >= inject_total,
                }
            )
            await writer.drain()

        elif mtype == "report":
            reply(
                {
                    "type": "report",
                    "rx": transport.rx_packets,
                    "tx": transport.tx_packets,
                    "rx_errors": transport.rx_errors,
                    "nodes": node_report(transport.nodes.values(), len(streams)),
                }
            )
            await writer.drain()

        elif mtype == "exit":
            break

    transport.close()
    writer.close()
