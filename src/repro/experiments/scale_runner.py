"""The scale spine: one table, one run function, one result type
(DESIGN.md §10).

Every scale scenario has the same shape: build a stack, spread K
publishers over it, mark the dissemination phase, schedule the injection
window, drain the heap while timing the loop, account deliveries, report.
The stack modules (``scale_flood`` / ``scale_brisa`` / ``scale_pull``)
build; everything after the build is said here once.

Pieces, in the order a run meets them:

- :data:`STACKS` — the stack table: entry point, accepted kernels,
  stack-only knobs and default degree of each ``--stack``;
  :meth:`RunSpec.validate`, :func:`run_spec`, :func:`check_kernel` and
  the CLI's choices all read it;
- :class:`RunSpec` / :func:`run_spec` — one declarative scale-run
  request, validated against the table and dispatched through it; the
  CLI's ``repro scale`` and ``repro live`` and the repo benchmark build
  one instead of duplicating keyword plumbing;
- :func:`run_stack` — the spine a ``run_scale_*`` entry point hands its
  built stack to: spread sources, :class:`ScaleRunner` (phase mark +
  per-stream injection windows + timed drain), the stack's accounting
  hook, the roll-up and :class:`ScaleResult` assembly;
- :func:`flood_stream_outcomes` / :func:`brisa_stream_outcomes` — the
  per-stream delivery accounting the hooks call: both walk per-node
  delivered counts (the one book every kernel keeps at scale, correct
  under churn); BRISA adds the per-stream §II-B structure invariants;
- :class:`ScaleResult` — the flat result of every stack (shared fields
  once, stack-specific fields defaulted) and the report it prints;
- :func:`merge_json` — the merge-write used for every BENCH/JSON
  artifact (CLI ``--json`` and the benchmark suite share it).
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.structure import extract_structure, is_complete_structure
from repro.experiments.bootstrap import TOPOLOGY_BUILDERS, quiet_collector
from repro.experiments.scale import get_scale
from repro.ids import NodeId
from repro.sim.engine import Simulator
from repro.sim.monitor import DISSEMINATION


@dataclass(frozen=True)
class Stack:
    """One row of the stack table: what ``--stack NAME`` runs and accepts."""

    #: ``module:function`` of the ``run_scale_*`` entry point — named, not
    #: imported, because the stack modules import this one.
    entry: str
    #: Delivery kernels the stack runs on; the first is the entry
    #: point's default, so :func:`run_spec` forwards only a different one.
    kernels: tuple[str, ...]
    #: :class:`RunSpec` fields only this stack takes -> the CLI flag that
    #: sets them.  The entry point takes each under the same keyword.
    knobs: dict[str, str]
    #: Overlay degree when the spec leaves it open (None: whatever the
    #: membership config's view cap settles at).
    default_degree: Optional[int]
    #: Scale-rung fields the entry point takes as keywords (the timing of
    #: the simulated join ramp).
    rung_params: tuple[str, ...] = ()


STACKS: dict[str, Stack] = {
    "flood": Stack(
        "repro.experiments.scale_flood:run_scale_flood",
        kernels=("object", "slotted", "vectorized"),
        knobs={"churn_percent": "--churn"},
        default_degree=5,
    ),
    "brisa": Stack(
        "repro.experiments.scale_brisa:run_scale_brisa",
        kernels=("object", "slotted"),
        knobs={"mode": "--mode", "bootstrap": "--bootstrap"},
        default_degree=None,
        rung_params=("join_spacing", "settle"),
    ),
    # Object kernel only: pull recovery is timer- and request-driven, off
    # the fan-out hot path the array kernels exist for.
    "pull": Stack(
        "repro.experiments.scale_pull:run_scale_pull",
        kernels=("object",),
        knobs={},
        default_degree=5,
    ),
}


def check_kernel(stack: str, kernel: str) -> None:
    """Reject a kernel ``stack`` has no implementation of."""
    known = STACKS[stack].kernels
    if kernel not in known:
        raise ValueError(
            f"--kernel {kernel} is not available on the {stack} stack "
            f"(it runs on: {', '.join(known)})"
        )


@dataclass(frozen=True)
class RunSpec:
    """One scale-run request, stack-agnostic until dispatch.

    A single validated value that the CLI, the live runner, the repo
    benchmark and library callers all share.  ``None`` means "stack
    default" for every optional knob, so a spec never has to know which
    stack it will be dispatched to until :meth:`validate` /
    :func:`run_spec` look its row up in :data:`STACKS`.

    Validation is fail-fast and flag-phrased (the CLI prints the
    messages as-is): a knob another stack owns, or a kernel this stack
    does not run on, is rejected, so a forgotten ``--stack brisa`` cannot
    silently benchmark the wrong stack while ignoring what the user
    asked for.
    """

    stack: str = "flood"
    #: Scale-rung name (:func:`repro.experiments.scale.get_scale`).
    size: str = "large"
    #: Population override; ``None`` uses the rung's ``cluster_nodes``.
    nodes: Optional[int] = None
    messages: int = 20
    rate: float = 20.0
    payload_bytes: int = 1024
    seed: int = 1
    streams: int = 1
    #: ``None`` -> object kernel.
    kernel: Optional[str] = None
    #: ``None`` -> the stack's ``default_degree``.
    degree: Optional[int] = None
    #: BRISA only: ``tree`` (default) or ``dag``.
    mode: Optional[str] = None
    #: BRISA only: ``synthesized`` (default) | ``simulated`` | checkpoint path.
    bootstrap: Optional[str] = None
    #: Flood only: percentage of the population churned during the stream
    #: (BRISA churn runs through the repair scenarios).
    churn_percent: Optional[float] = None
    #: Overlay topology class (``uniform`` | ``powerlaw`` | ``smallworld``).
    topology: str = "uniform"
    #: Per-link loss rate applied by the delivery layer (percent).
    loss_percent: float = 0.0

    def validate(self) -> None:
        if self.stack not in STACKS:
            raise ValueError(
                f"unknown stack {self.stack!r}; known: {', '.join(sorted(STACKS))}"
            )
        for owner, row in STACKS.items():
            for knob, flag in row.knobs.items():
                if owner != self.stack and getattr(self, knob) is not None:
                    raise ValueError(
                        f"{flag} applies to the {owner} stack only "
                        f"(run it with --stack {owner})"
                    )
        if self.kernel is not None:
            check_kernel(self.stack, self.kernel)
        if self.topology not in TOPOLOGY_BUILDERS:
            known = ", ".join(sorted(TOPOLOGY_BUILDERS))
            raise ValueError(
                f"unknown topology {self.topology!r}; known: {known}"
            )
        if not 0.0 <= self.loss_percent < 100.0:
            raise ValueError("--loss must be in [0, 100)")
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        validate_workload(self.messages, self.rate, self.streams, self.nodes)

    def population(self, scale) -> int:
        """Resolve the population against a :class:`~repro.experiments.scale.Scale`."""
        return self.nodes if self.nodes is not None else scale.cluster_nodes


def run_spec(spec: RunSpec) -> "ScaleResult":
    """Validate one :class:`RunSpec` and run it on its stack: the shared
    workload fields, the stack's own knobs where set, and the scale-rung
    fields its entry point asks for."""
    spec.validate()
    stack = STACKS[spec.stack]
    scale = get_scale(spec.size)
    module, _, name = stack.entry.partition(":")
    entry = getattr(importlib.import_module(module), name)
    keywords = {
        knob: getattr(spec, knob)
        for knob in stack.knobs
        if getattr(spec, knob) is not None
    }
    keywords.update({name: getattr(scale, name) for name in stack.rung_params})
    if spec.kernel is not None and spec.kernel != stack.kernels[0]:
        keywords["kernel"] = spec.kernel
    return entry(
        spec.population(scale),
        spec.messages,
        degree=spec.degree if spec.degree is not None else stack.default_degree,
        rate=spec.rate,
        payload_bytes=spec.payload_bytes,
        seed=spec.seed,
        streams=spec.streams,
        topology=spec.topology,
        loss_percent=spec.loss_percent,
        **keywords,
    )


@dataclass
class StreamOutcome:
    """Delivery (and, for BRISA, structure) outcome of one stream."""

    stream: int
    source: NodeId
    #: Audience size the fraction is measured over (survivors under churn).
    receivers: int
    #: First-time receptions of this stream across the audience.
    deliveries: int
    delivered_fraction: float
    #: §II-B invariant for structured stacks; None for flood.
    structure_complete: Optional[bool] = None
    structure_reason: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DriveStats:
    """Engine telemetry of one drained injection window."""

    start: float
    sim_time: float
    wall_time: float
    events: int


def validate_workload(
    messages: int, rate: float, streams: int = 1, population: Optional[int] = None
) -> None:
    """Fail-fast workload validation: every stack's entry point calls it
    first, so degenerate input is rejected *before* the (potentially
    minutes-long at xxl) overlay build.  :class:`ScaleRunner` re-checks
    at construction for library callers that skip the entry points."""
    if messages < 1:
        raise ValueError("need at least one message to disseminate")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    if population is not None and streams > population:
        raise ValueError(f"cannot spread {streams} sources over {population} nodes")


def spread_sources(nodes: Sequence, streams: int) -> list:
    """Pick ``streams`` publishers spread evenly over ``nodes``.

    Stream ``i``'s source is ``nodes[i * n // streams]`` — deterministic,
    collision-free for ``streams <= n``, and spanning the population so
    the emerged trees root in different overlay neighbourhoods.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    n = len(nodes)
    if streams > n:
        raise ValueError(f"cannot spread {streams} sources over {n} nodes")
    return [nodes[(i * n) // streams] for i in range(streams)]


class ScaleRunner:
    """One multi-stream injection window over an already-built stack.

    The runner owns phase marking, the K injection schedules (stream
    ``i`` is driven by ``sources[i]`` with ``stream_id=i``), the timed
    drain and the closing keep-alive accounting.  :func:`run_stack`
    wraps it with source spreading and result assembly; it knows nothing
    about the stack it drives.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        sources: Sequence,
        *,
        messages: int,
        rate: float,
        payload_bytes: int,
    ) -> None:
        validate_workload(messages, rate)
        self.sim = sim
        self.network = network
        self.sources = list(sources)
        self.messages = messages
        self.rate = rate
        self.payload_bytes = payload_bytes

    def schedule(self) -> float:
        """Mark the dissemination phase and schedule every stream's
        injection window (all streams share the window: sequence ``s``
        of every stream goes out at ``start + s/rate``).  Returns the
        window start."""
        sim = self.sim
        start = sim.now
        self.network.metrics.set_phase(DISSEMINATION, start)
        rate = self.rate
        payload = self.payload_bytes
        for stream_id, source in enumerate(self.sources):
            # Probe the class: ``hasattr`` on the instance is an attribute
            # read, and on a flood node a miss wakes it (DESIGN.md §8).
            if getattr(type(source), "become_source", None) is not None:
                source.become_source(stream_id)
            for seq in range(self.messages):
                sim.call_at(start + seq / rate, source.inject, stream_id, seq, payload)
        return start

    def drain(self, start: float) -> DriveStats:
        """Run the heap to idle, timing the loop, then close the phase
        and account keep-alives over the drained window."""
        sim = self.sim
        events_before = sim.events_processed
        t0 = time.perf_counter()
        sim.run_until_idle()
        wall = max(time.perf_counter() - t0, 1e-9)
        span = max(sim.now - start, 1e-9)
        self.network.metrics.close(sim.now)
        self.network.account_keepalives(DISSEMINATION, span)
        return DriveStats(
            start=start,
            sim_time=span,
            wall_time=wall,
            events=sim.events_processed - events_before,
        )

    def run(self) -> DriveStats:
        """Schedule + drain in one call (the common case)."""
        return self.drain(self.schedule())


# ----------------------------------------------------------------------
# Per-stream delivery accounting
# ----------------------------------------------------------------------
def flood_stream_outcomes(
    sources: Sequence, alive_nodes: Sequence, messages: int
) -> list[StreamOutcome]:
    """Unstructured-stack accounting: walk per-node delivered counts.

    Node state is the one book every kernel keeps at scale
    (``record_deliveries=False`` leaves Metrics without records, and the
    slotted planes answer ``delivered_count`` directly), and restricting
    ``alive_nodes`` to survivors makes the same walk correct under
    churn.  Each stream's audience is every live node except its own
    source — concurrent publishers are subscribers of each other.
    """
    outcomes = []
    for stream_id, source in enumerate(sources):
        receivers = [node for node in alive_nodes if node is not source]
        deliveries = sum(node.delivered_count(stream_id) for node in receivers)
        expected = len(receivers) * messages
        outcomes.append(
            StreamOutcome(
                stream=stream_id,
                source=source.node_id,
                receivers=len(receivers),
                deliveries=deliveries,
                delivered_fraction=deliveries / expected if expected else 1.0,
            )
        )
    return outcomes


def brisa_stream_outcomes(
    sources: Sequence,
    alive_nodes: Sequence,
    messages: int,
) -> list[StreamOutcome]:
    """BRISA accounting: the flood walk + §II-B structure.

    ``node.delivered_count(stream)`` is answered by
    ``StreamState.delivered`` on the object kernel and by the slot
    plane's ``delivered`` column on the slotted one, so the delivery walk
    is representation-independent (Metrics shards are not populated at
    scale).  Every stream must also have emerged a complete, acyclic
    structure over the live population;
    :func:`~repro.core.structure.extract_structure` reads the tree edges
    via ``tree_parents`` (``StreamState.parents`` on both kernels).
    """
    alive_ids = {node.node_id for node in alive_nodes}
    outcomes = flood_stream_outcomes(sources, alive_nodes, messages)
    for outcome in outcomes:
        graph = extract_structure(alive_nodes, outcome.stream)
        outcome.structure_complete, outcome.structure_reason = is_complete_structure(
            graph, outcome.source, alive_ids
        )
    return outcomes


def aggregate_outcomes(outcomes: Sequence[StreamOutcome], messages: int) -> tuple[int, float]:
    """Total deliveries and the aggregate delivered fraction over every
    (stream, sequence, receiver) pair."""
    total = sum(o.deliveries for o in outcomes)
    expected = sum(o.receivers for o in outcomes) * messages
    return total, (total / expected if expected else 1.0)


def outcomes_summary(outcomes: Sequence, indent: str = "") -> str:
    """The per-stream report block (printed when K > 1).  Accepts
    :class:`StreamOutcome` objects or their ``to_dict`` rows (results
    store the latter)."""
    lines = []
    for o in outcomes:
        row = o if isinstance(o, dict) else o.to_dict()
        line = (
            f"{indent}stream {row['stream']} (source {row['source']}): "
            f"{row['delivered_fraction'] * 100:.2f}% to "
            f"{row['receivers']:,} receivers"
        )
        if row.get("structure_complete") is not None:
            line += (
                "   structure: "
                + (
                    "complete/acyclic"
                    if row["structure_complete"]
                    else row["structure_reason"]
                )
            )
        lines.append(line)
    return "\n".join(lines)


def shard_receptions(metrics) -> int:
    """Data receptions (first deliveries + duplicates) booked in the
    per-stream Metrics shards — the count of the kernels that account
    per message (the array kernels keep their own)."""
    return sum(
        shard.first_deliveries + shard.duplicate_receptions
        for shard in metrics.streams.values()
    )


# ----------------------------------------------------------------------
# The result and the spine
# ----------------------------------------------------------------------
@dataclass
class ScaleResult:
    """Outcome + engine telemetry of one scale run, whatever the stack.

    The shared fields come first; a field only one stack measures keeps
    its default on the others (``None`` where a zero would read as a
    measurement)."""

    nodes: int
    messages: int
    payload_bytes: int
    seed: int
    #: Delivery kernel that ran ("object" | "slotted" | "vectorized").
    kernel: str
    #: Simulated seconds the dissemination spanned.
    sim_time: float
    #: Wall-clock seconds of the dissemination run loop.
    wall_time: float
    #: Wall-clock seconds the stack's entry point spent building it
    #: (spawn + overlay + kernel rows, or the simulated join ramp).
    bootstrap_wall: float
    #: Engine events processed during dissemination.
    events: int
    events_per_sec: float
    #: First-time message receptions across all receivers.
    deliveries: int
    deliveries_per_sec: float
    #: Fraction of (message, receiver) pairs delivered.
    delivered_fraction: float
    #: Data receptions processed (first deliveries + duplicates) — the
    #: unit of per-delivery handler work the array kernels cut.
    receptions: int
    receptions_per_sec: float
    #: Largest heap backlog ever observed.
    peak_pending: int
    #: EventHandle free-list high-water mark after the run.
    handle_pool_size: int
    #: Stream 0's receivers still alive at the end of the run (the
    #: delivered_fraction denominator under churn).
    survivors: int
    #: Requested overlay degree (None: the membership config's view cap).
    degree: Optional[int] = None
    #: Concurrent publishers (stream ``i`` driven by source ``i``).
    streams: int = 1
    #: Overlay topology class the run disseminated over.
    topology: str = "uniform"
    #: Per-link loss rate applied by the delivery layer (percent).
    loss_percent: float = 0.0
    #: Sends the loss model discarded (``dropped_loss`` counter).
    dropped_loss: int = 0
    #: Per-stream outcomes (``StreamOutcome.to_dict`` rows), including
    #: each stream's §II-B structure invariant on the BRISA stack.
    per_stream: list = field(default_factory=list)
    # -- flood stack ---------------------------------------------------
    #: Churn applied during the stream (percent of the population).
    churn_percent: float = 0.0
    kills: int = 0
    joins: int = 0
    # -- brisa stack ---------------------------------------------------
    mode: Optional[str] = None
    #: ``synthesized`` | ``simulated`` | ``checkpoint``.
    bootstrap: Optional[str] = None
    #: §II-B correctness: every emerged structure covers every node,
    #: acyclically.
    structure_complete: Optional[bool] = None
    structure_reason: str = ""
    #: Mean duplicate receptions per receiver (the Fig. 2 quantity BRISA
    #: drives toward zero once the structure emerges).
    duplicates_per_node: Optional[float] = None
    #: §IV relay-load-spread report (``RelayLoadSpread.to_dict``) of a
    #: multi-stream run.
    relay_spread: Optional[dict] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        structured = self.structure_complete is not None
        if structured:
            lines = [
                f"nodes: {self.nodes} ({self.mode} mode, {self.bootstrap} bootstrap, "
                f"{self.kernel} kernel)"
            ]
        else:
            lines = [f"nodes: {self.nodes} (degree ~{self.degree})   kernel: {self.kernel}"]
        if self.topology != "uniform" or self.loss_percent:
            line = f"topology: {self.topology}   link loss: {self.loss_percent:g}%"
            if self.loss_percent:
                line += f" ({self.dropped_loss:,} sends dropped)"
            lines.append(line)
        lines += [
            f"messages: {self.streams} stream(s) x {self.messages} x {self.payload_bytes} B",
            f"delivered: {self.delivered_fraction * 100:.2f}%",
        ]
        if structured:
            lines += [
                "structure: "
                + ("complete/acyclic" if self.structure_complete else self.structure_reason),
                f"duplicates/node (mean): {self.duplicates_per_node:.2f}",
            ]
        lines += [
            f"bootstrap: {self.bootstrap_wall:.2f} s wall",
            f"sim time: {self.sim_time:.2f} s   wall time: {self.wall_time:.2f} s",
            f"events: {self.events:,} ({self.events_per_sec:,.0f}/s)",
            f"deliveries: {self.deliveries:,} ({self.deliveries_per_sec:,.0f}/s)",
            f"receptions: {self.receptions:,} ({self.receptions_per_sec:,.0f}/s)",
            f"peak heap: {self.peak_pending:,}   handle pool: {self.handle_pool_size:,}",
        ]
        if self.streams > 1:
            lines.append(
                "per-stream delivery + structure:" if structured else "per-stream delivery:"
            )
            lines.append(outcomes_summary(self.per_stream, indent="  "))
        if self.relay_spread is not None:
            rs = self.relay_spread
            lines.append(
                f"relay-load spread: interior >=1 tree "
                f"{rs['interior_any']}/{rs['population']}   every tree "
                f"{rs['interior_all']}   sets differ: "
                f"{'yes' if rs['distinct_sets'] else 'no'}   "
                f"fan-in max {rs['fan_in_max']} mean {rs['fan_in_mean']:.2f}"
            )
        if self.churn_percent:
            lines.append(
                f"churn: {self.churn_percent:g}%   kills: {self.kills:,}   "
                f"joins: {self.joins:,}   survivors: {self.survivors:,}"
            )
        return "\n".join(lines)


# The built stack outlives the drain: frozen, the collector stays on and
# walks only what the drain allocates (DESIGN.md §8).
@quiet_collector(freeze=True)
def run_stack(
    sim: Simulator,
    network,
    population: Sequence,
    account: Callable[[list, list], tuple[list[StreamOutcome], int, dict]],
    *,
    nodes: int,
    messages: int,
    rate: float,
    payload_bytes: int,
    seed: int,
    streams: int,
    kernel: str,
    degree: Optional[int],
    topology: str,
    loss_percent: float,
    bootstrap_wall: float,
) -> ScaleResult:
    """Drive ``streams`` concurrent streams of ``messages`` messages over
    a built stack and assemble the result — everything a scale run does
    after its overlay exists.

    ``account(sources, alive)`` is the stack's one hook: called after
    the drain with the publishers and the initial population's
    survivors (joiners cannot have seen messages injected before they
    arrived, so they are nobody's audience), it returns the per-stream
    outcomes, the data receptions its kernel processed, and the
    :class:`ScaleResult` fields only that stack measures.

    The stack is static and shuffle-free, so the heap drains exactly
    when the last in-flight message lands (under churn or loss: when the
    last repair exchange settles) and the drain needs no bound.
    """
    sources = spread_sources(population, streams)
    stats = ScaleRunner(
        sim, network, sources,
        messages=messages, rate=rate, payload_bytes=payload_bytes,
    ).run()
    alive = [node for node in population if node.alive]
    outcomes, receptions, stack_fields = account(sources, alive)
    deliveries, delivered_fraction = aggregate_outcomes(outcomes, messages)
    wall = stats.wall_time
    return ScaleResult(
        nodes=nodes,
        messages=messages,
        payload_bytes=payload_bytes,
        seed=seed,
        kernel=kernel,
        sim_time=stats.sim_time,
        wall_time=wall,
        bootstrap_wall=bootstrap_wall,
        events=stats.events,
        events_per_sec=stats.events / wall,
        deliveries=deliveries,
        deliveries_per_sec=deliveries / wall,
        delivered_fraction=delivered_fraction,
        receptions=receptions,
        receptions_per_sec=receptions / wall,
        peak_pending=sim.peak_pending,
        handle_pool_size=sim.pool_size,
        survivors=outcomes[0].receivers,
        degree=degree,
        streams=streams,
        topology=topology,
        loss_percent=loss_percent,
        dropped_loss=network.metrics.counters.get("dropped_loss", 0),
        per_stream=[o.to_dict() for o in outcomes],
        **stack_fields,
    )


# ----------------------------------------------------------------------
# JSON merge-write
# ----------------------------------------------------------------------
def merge_json(path, updates: dict) -> dict:
    """Merge ``updates`` into a JSON artifact, preserving entries written
    by other runs — e.g. the xxl benchmarks (nightly CI) and the
    default-tier benchmarks update disjoint keys of one BENCH file.

    A corrupt or non-object existing file is replaced rather than
    raised on: these are regenerable artifacts, and a truncated file
    from an interrupted run must not cost the finished run its results.
    """
    import pathlib

    path = pathlib.Path(path)
    data: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            loaded = None
        if isinstance(loaded, dict):
            data = loaded
    data.update(updates)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data
