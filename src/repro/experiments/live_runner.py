"""Multi-process live harness: BRISA over real UDP sockets (DESIGN.md §13).

Process model — one synchronous coordinator (this process) plus N worker
processes, each running one asyncio event loop hosting M nodes on one
UDP socket:

1. The coordinator synthesizes the overlay **checkpoint** (same
   ``derive(seed, "synth-overlay")`` draws as the simulator's
   ``bootstrap="synthesized"`` path — or an existing PR 2/3 checkpoint
   file is used as-is), binds a TCP control socket, and spawns the
   workers.
2. Each worker binds its UDP socket, reports ``hello`` with the port,
   and receives its ``config``: run seed, shared clock epoch, the full
   node->address table, and the active/passive views of the nodes it
   hosts.  Nodes are spawned with timers unarmed (static overlay — the
   same regime as the simulated scale runs).
3. On ``go``, source-hosting workers schedule the K injections; the
   coordinator polls ``status`` (per-worker rx/tx counters) and declares
   quiescence when all injections are done and the global counters hold
   still across consecutive polls.
4. ``report`` collects per-node delivery counts, duplicates, and tree
   parents; the coordinator assembles the global structure, checks
   §II-B completeness, and (by default) cross-checks delivery fraction
   and completeness against a same-seed simulated run restored from the
   *same checkpoint file* under ``ConstantLatency``.

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
from dataclasses import dataclass, field
from typing import Optional

import networkx as nx

from repro.config import BrisaConfig, HyParViewConfig
from repro.core.structure import is_complete_structure
from repro.errors import SimulationError
from repro.experiments import bootstrap as bootstrap_mod
from repro.experiments.scale_runner import spread_sources
from repro.ids import NodeId
from repro.sim.rng import derive

#: Default bind/connect host for the control socket and the node address
#: table.  Overridable per run via ``LiveSpec.control_host`` (CLI
#: ``--control-host``) so coordinator and workers can sit on different
#: hosts — the address table and control protocol already carry
#: host:port everywhere.
CONTROL_HOST = "127.0.0.1"

#: Poll cadence of the coordinator's quiescence loop (seconds).
POLL_PERIOD = 0.25
#: Consecutive unchanged polls (with injections done) declaring the run
#: drained.  Two periods cover any in-flight loopback packet many times
#: over.
QUIET_POLLS = 2


# ----------------------------------------------------------------------
# Spec / outcome
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveSpec:
    """One live run: cluster shape + workload + cross-check toggle."""

    nodes: int = 64
    workers: int = 2
    messages: int = 10
    streams: int = 1
    rate: float = 20.0
    payload_bytes: int = 256
    seed: int = 1
    mode: str = "tree"
    timeout: float = 60.0
    #: Existing overlay checkpoint to restore; None synthesizes one.
    checkpoint: "str | None" = None
    cross_check: bool = True
    #: Host the coordinator binds its control socket on (and advertises
    #: in the node address table).  The localhost default keeps the
    #: single-machine smoke unchanged; a routable address lets workers
    #: run on other hosts.
    control_host: str = CONTROL_HOST

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker process")
        if not self.control_host:
            raise ValueError("control_host must be a non-empty host/address")
        if self.nodes < max(3, self.workers):
            raise ValueError("need >= 3 nodes and >= 1 node per worker")
        if self.streams < 1 or self.messages < 1:
            raise ValueError("need >= 1 stream and >= 1 message")


@dataclass
class StreamReport:
    """Per-stream outcome assembled from worker reports."""

    stream: int
    source: NodeId
    delivered: int
    expected: int
    structure_ok: bool
    structure_reason: str

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.expected if self.expected else 1.0


@dataclass
class LiveOutcome:
    """Everything the live smoke asserts on (and the JSON artifact)."""

    spec: LiveSpec
    streams: list[StreamReport]
    duplicates: int
    rx_packets: int
    tx_packets: int
    rx_errors: int
    elapsed: float
    clean_shutdown: bool
    workers: int
    checkpoint_path: str
    #: Same-seed simulated leg: stream -> (delivered_fraction, structure_ok).
    sim_leg: "dict[int, tuple[float, bool]] | None" = None
    warnings: list = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        total = sum(s.delivered for s in self.streams)
        expected = sum(s.expected for s in self.streams)
        return total / expected if expected else 1.0

    @property
    def all_structures_ok(self) -> bool:
        return all(s.structure_ok for s in self.streams)

    @property
    def cross_check_ok(self) -> "bool | None":
        """Do the live and simulated legs agree (None: no sim leg)?"""
        if self.sim_leg is None:
            return None
        for s in self.streams:
            frac, ok = self.sim_leg[s.stream]
            if abs(frac - s.delivered_fraction) > 1e-9 or ok != s.structure_ok:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "harness": "live-udp",
            "nodes": self.spec.nodes,
            "workers": self.workers,
            "streams": [
                {
                    "stream": s.stream,
                    "source": s.source,
                    "delivered": s.delivered,
                    "expected": s.expected,
                    "delivered_fraction": s.delivered_fraction,
                    "structure_ok": s.structure_ok,
                    "structure_reason": s.structure_reason,
                }
                for s in self.streams
            ],
            "delivered_fraction": self.delivered_fraction,
            "duplicates": self.duplicates,
            "rx_packets": self.rx_packets,
            "tx_packets": self.tx_packets,
            "rx_errors": self.rx_errors,
            "elapsed_seconds": self.elapsed,
            "clean_shutdown": self.clean_shutdown,
            "seed": self.spec.seed,
            "messages": self.spec.messages,
            "payload_bytes": self.spec.payload_bytes,
            "sim_leg": (
                {
                    str(stream): {"delivered_fraction": frac, "structure_ok": ok}
                    for stream, (frac, ok) in self.sim_leg.items()
                }
                if self.sim_leg is not None
                else None
            ),
            "cross_check_ok": self.cross_check_ok,
            "warnings": self.warnings,
        }

    def summary(self) -> str:
        lines = [
            f"live run: {self.spec.nodes} nodes x {self.workers} workers, "
            f"{len(self.streams)} stream(s) x {self.spec.messages} messages",
            f"delivered: {self.delivered_fraction * 100:.2f}%  "
            f"duplicates: {self.duplicates}  "
            f"udp rx/tx: {self.rx_packets}/{self.tx_packets}",
            f"structures: {'complete/acyclic' if self.all_structures_ok else 'INCOMPLETE'}  "
            f"shutdown: {'clean' if self.clean_shutdown else 'FORCED'}  "
            f"elapsed: {self.elapsed:.1f}s",
        ]
        if self.sim_leg is not None:
            lines.append(
                "cross-check vs same-seed sim: "
                + ("agree" if self.cross_check_ok else "DISAGREE")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Checkpoint synthesis (no simulator required)
# ----------------------------------------------------------------------
def synthesize_checkpoint(
    n: int,
    path: "str | pathlib.Path",
    *,
    seed: int = 1,
    hpv: Optional[HyParViewConfig] = None,
    degree: Optional[int] = None,
) -> pathlib.Path:
    """Write a ``brisa-overlay/1`` checkpoint for ``n`` nodes (ids 0..n-1).

    Consumes the RNG exactly like ``Testbed.populate(bootstrap=
    "synthesized")`` — ``derive(seed, "synth-overlay")`` driving the
    topology then the passive draws — so a testbed with the same seed
    builds this very overlay.
    """
    hpv = hpv if hpv is not None else HyParViewConfig()
    if degree is None:
        degree = bootstrap_mod.default_degree(hpv)
    rng = derive(seed, "synth-overlay")
    topo = bootstrap_mod.synthesize_topology_arrays(
        n, degree=degree, max_degree=hpv.max_active, rng=rng
    )
    p_off, p_ent = bootstrap_mod.synthesize_passive_arrays(
        n, topo, size=hpv.passive_size, rng=rng
    )
    offsets, neighbors = topo.offsets, topo.neighbors
    payload = {
        "format": bootstrap_mod.CHECKPOINT_FORMAT,
        "n": n,
        "nodes": [
            {
                "id": i,
                "active": list(neighbors[offsets[i] : offsets[i + 1]]),
                "passive": list(p_ent[p_off[i] : p_off[i + 1]]),
            }
            for i in range(n)
        ],
    }
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def live_sources(n: int, streams: int) -> list[int]:
    """Stream sources over node ids 0..n-1: the simulator's spread rule,
    so the live and simulated legs publish from the same nodes."""
    return spread_sources(range(n), streams)


# ----------------------------------------------------------------------
# Control-socket helpers (JSON lines)
# ----------------------------------------------------------------------
def _send_obj(sock: socket.socket, obj: dict) -> None:
    sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")


class _WorkerConn:
    """Coordinator-side view of one worker's control connection."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._file = sock.makefile("rb")
        self.worker_id: int = -1
        self.udp_port: int = -1

    def send(self, obj: dict) -> None:
        _send_obj(self.sock, obj)

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
def run_live(spec: LiveSpec, *, json_path: "str | None" = None) -> LiveOutcome:
    """Run one live dissemination; returns the assembled outcome.

    Raises :class:`SimulationError` only on harness-level failures (a
    worker dying mid-protocol); workload failures — missed deliveries,
    incomplete structures, a forced shutdown after the timeout — are
    *reported* in the outcome so callers (CLI, smoke test) can decide.
    """
    started = time.monotonic()
    deadline = started + spec.timeout

    # Overlay checkpoint: synthesize unless restoring an existing one.
    if spec.checkpoint is not None:
        checkpoint_path = pathlib.Path(spec.checkpoint)
        checkpoint = bootstrap_mod.load_overlay(checkpoint_path)
        if checkpoint.n != spec.nodes:
            raise SimulationError(
                f"checkpoint holds {checkpoint.n} nodes, spec asks for {spec.nodes}"
            )
    else:
        checkpoint_path = pathlib.Path(tempfile.mkstemp(
            prefix="brisa-live-overlay-", suffix=".json"
        )[1])
        synthesize_checkpoint(spec.nodes, checkpoint_path, seed=spec.seed)
        checkpoint = bootstrap_mod.load_overlay(checkpoint_path)

    sources = live_sources(spec.nodes, spec.streams)
    stream_cfgs = [
        {
            "stream": i,
            "source": src,
            "count": spec.messages,
            "rate": spec.rate,
            "payload": spec.payload_bytes,
        }
        for i, src in enumerate(sources)
    ]

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((spec.control_host, 0))
    listener.listen(spec.workers)
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
            args=(w, spec.control_host, control_port),
            daemon=True,
            name=f"live-worker-{w}",
        )
        for w in range(spec.workers)
    ]
    for p in procs:
        p.start()

    conns: list[_WorkerConn] = []
    warnings: list[str] = []
    clean = False
    reports: list[dict] = []
    rx = tx = rx_errors = 0
    try:
        listener.settimeout(max(1.0, spec.timeout / 2))
        by_id: dict[int, _WorkerConn] = {}
        for _ in range(spec.workers):
            sock, _addr = listener.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(sock)
            hello = conn.recv("hello", deadline)
            conn.worker_id = int(hello["worker"])
            conn.udp_port = int(hello["udp_port"])
            by_id[conn.worker_id] = conn
        conns = [by_id[w] for w in range(spec.workers)]

        blocks = _partition(spec.nodes, spec.workers)
        addrs = {}
        for w, block in enumerate(blocks):
            for nid in block:
                addrs[str(nid)] = [spec.control_host, conns[w].udp_port]

        epoch = time.monotonic()
        for w, conn in enumerate(conns):
            conn.send(
                {
                    "type": "config",
                    "seed": spec.seed,
                    "epoch": epoch,
                    "mode": spec.mode,
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

    # ------------------------------------------------------------------
    # Assemble the outcome from worker reports
    # ------------------------------------------------------------------
    delivered: dict[int, dict[int, int]] = {c["stream"]: {} for c in stream_cfgs}
    parents: dict[int, dict[int, list[int]]] = {c["stream"]: {} for c in stream_cfgs}
    duplicates = 0
    for rep in reports:
        rx += rep["rx"]
        tx += rep["tx"]
        rx_errors += rep["rx_errors"]
        duplicates += rep["duplicates"]
        for stream_str, per_node in rep["delivered"].items():
            delivered[int(stream_str)].update(
                {int(k): v for k, v in per_node.items()}
            )
        for stream_str, per_node in rep["parents"].items():
            parents[int(stream_str)].update(
                {int(k): list(v) for k, v in per_node.items()}
            )

    all_ids = set(range(spec.nodes))
    stream_reports = []
    for cfg in stream_cfgs:
        sid, src = cfg["stream"], cfg["source"]
        got = sum(v for nid, v in delivered[sid].items() if nid != src)
        expected = (spec.nodes - 1) * spec.messages
        g = nx.DiGraph()
        g.add_nodes_from(all_ids)
        for child, plist in parents[sid].items():
            for parent in plist:
                g.add_edge(parent, child)
        if reports:
            ok, reason = is_complete_structure(g, src, all_ids)
        else:
            ok, reason = False, "no worker reports collected"
        stream_reports.append(
            StreamReport(
                stream=sid, source=src, delivered=got, expected=expected,
                structure_ok=ok, structure_reason=reason,
            )
        )

    sim_leg = None
    if spec.cross_check:
        sim_leg = run_sim_leg(spec, checkpoint_path)

    outcome = LiveOutcome(
        spec=spec,
        streams=stream_reports,
        duplicates=duplicates,
        rx_packets=rx,
        tx_packets=tx,
        rx_errors=rx_errors,
        elapsed=time.monotonic() - started,
        clean_shutdown=clean,
        workers=spec.workers,
        checkpoint_path=str(checkpoint_path),
        sim_leg=sim_leg,
        warnings=warnings,
    )
    if json_path:
        pathlib.Path(json_path).write_text(
            json.dumps(outcome.to_json(), indent=1, sort_keys=True) + "\n"
        )
    return outcome


# ----------------------------------------------------------------------
# Simulated cross-check leg
# ----------------------------------------------------------------------
def run_sim_leg(
    spec: LiveSpec, checkpoint_path: "str | pathlib.Path"
) -> dict[int, tuple[float, bool]]:
    """Same seed, same checkpointed overlay, same sources/workload — the
    BRISA scale stack (``run_scale_brisa``: ``ConstantLatency``, deferred
    timers) restored from the checkpoint.  Returns per-stream
    (delivered_fraction, structure_ok), computed from the same per-node
    accessors (``delivered_count`` / ``tree_parents``) the live workers
    report through."""
    from repro.experiments.scale_brisa import run_scale_brisa

    result = run_scale_brisa(
        spec.nodes, spec.messages, mode=spec.mode, rate=spec.rate,
        payload_bytes=spec.payload_bytes, seed=spec.seed,
        streams=spec.streams, bootstrap=str(checkpoint_path),
    )
    return {
        row["stream"]: (row["delivered_fraction"], row["structure_complete"])
        for row in result.per_stream
    }


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
            local_ids = list(transport.nodes)
            dup_counts = transport.metrics.duplicates_per_node(local_ids)
            reply(
                {
                    "type": "report",
                    "rx": transport.rx_packets,
                    "tx": transport.tx_packets,
                    "rx_errors": transport.rx_errors,
                    "duplicates": sum(dup_counts),
                    "delivered": {
                        str(s["stream"]): {
                            str(nid): node.delivered_count(s["stream"])
                            for nid, node in transport.nodes.items()
                        }
                        for s in streams
                    },
                    "parents": {
                        str(s["stream"]): {
                            str(nid): node.tree_parents(s["stream"])
                            for nid, node in transport.nodes.items()
                        }
                        for s in streams
                    },
                }
            )
            await writer.drain()

        elif mtype == "exit":
            break

    transport.close()
    writer.close()
