"""Synthesized-overlay bootstrap: HyParView-convergent topologies in O(n).

Simulating the join ramp costs hundreds of thousands of simulator events
at 2k nodes and dominates every large-population scenario (ROADMAP: "the
join ramp is now the scale bottleneck").  But the ramp's *outcome* is
statistically simple: a settled HyParView overlay is a connected,
bidirectional random graph whose degrees sit between ``active_size`` and
the expanded cap ``active_size * expansion_factor``, with full passive
views (§II-A).  This module synthesizes that converged state directly —
a Hamiltonian ring (connectivity guarantee) plus random chords up to the
empirical settled degree, capped per node at ``max_active`` — and wires
it into node state through :meth:`HyParViewNode.install_overlay` without
a single simulated message.

The production synthesizer is **array-backed** (DESIGN.md §8): the
ring+chords overlay is produced as flat integer arrays — a CSR-style
adjacency (``offsets``/``neighbors``) plus a degree vector — instead of
per-node dicts/objects, and installed in bulk through
:meth:`HyParViewNode.install_overlay` and
:meth:`Network.register_links_csr`.  The original dict-of-sets
primitives (:func:`synthesize_topology`, :func:`synthesize_passive`)
are kept as the readable reference implementation; both consume the RNG
identically, so they produce the *same* overlay for the same seed —an
equivalence pinned by property tests.

Three entry points:

- :func:`synthesize_overlay` — build + install a fresh topology over
  already-spawned nodes (any :class:`HyParViewNode` stack, including
  :class:`BrisaNode`, whose §II-C stream-state consistency rides the
  ``neighbor_up`` notifications that ``install_overlay`` fires).  The
  passive views stay in one :class:`PassiveReservoir` until a node reads
  its own — and a population that is born cold (the array flood
  kernels) leaves its active views there too, taking the reservoir in
  one step instead of one ``install_overlay`` per node;
  :func:`quiet_collector` keeps the cyclic collector out of the build
  (DESIGN.md §8).
- :func:`save_overlay` / :func:`synthesize_checkpoint` /
  :func:`load_overlay` / :func:`install_checkpoint` — JSON checkpoints of
  active/passive views, so repeated benchmark runs skip construction
  entirely and the live harness hands both its legs one overlay.
  Checkpoints store node ids and are rehydrated through an id map,
  robust to fresh testbeds allocating different ids.
- :func:`audit_overlay` / :func:`assert_valid_overlay` — the validation
  mode: checks the invariants under which a synthesized overlay is
  indistinguishable from a settled simulated one (bidirectionality,
  connectivity, degree bounds).  Degree-distribution closeness between
  the two bootstrap kinds is asserted in tests/test_bootstrap.py.
"""

from __future__ import annotations

import gc
import json
import pathlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from repro.config import HyParViewConfig
from repro.errors import SimulationError
from repro.ids import NodeId
from repro.membership.hyparview import HyParViewNode
from repro.sim.rng import derive

#: Version tag of the checkpoint JSON format.
CHECKPOINT_FORMAT = "brisa-overlay/1"


# ----------------------------------------------------------------------
# Topology synthesis
# ----------------------------------------------------------------------
def default_degree(hpv: HyParViewConfig) -> int:
    """Target mean degree of a synthesized overlay.

    Empirically a settled simulated ramp converges just under the
    expanded cap (mean ~7.0 for the paper's active_size=4, factor=2
    defaults, cap 8): joins grow views up to ``max_active`` and evictions
    between target and cap trigger no replacements, so views drift high.
    """
    return max(2, hpv.max_active - 1)


def static_view_config(degree: int | None) -> HyParViewConfig:
    """The membership config of a static overlay of mean ``degree``: the
    view cap sized so the degree is legal under the protocol's own limits
    instead of silently building a sparser overlay (``None``: the paper's
    defaults, which settle at :func:`default_degree`)."""
    if degree is None:
        return HyParViewConfig()
    return HyParViewConfig(active_size=max(4, degree), passive_size=16)


def check_topology_args(topology: str, n: int, degree: int, max_degree: int) -> None:
    """The one argument check of the topology synthesizers, flag-phrased:
    every builder of :data:`TOPOLOGY_BUILDERS` runs it first, and
    ``RunSpec.validate`` runs it before a scale run spawns anything."""
    if topology not in TOPOLOGY_BUILDERS:
        known = ", ".join(sorted(TOPOLOGY_BUILDERS))
        raise ValueError(f"unknown topology {topology!r}; known: {known}")
    if n < 3:
        raise ValueError("need at least 3 nodes for a ring overlay (--nodes)")
    if degree < 2:
        raise ValueError("--degree must be >= 2 (ring minimum)")
    if max_degree < degree:
        raise ValueError("max_degree must be >= degree")
    if topology == "smallworld":
        k = degree - (degree % 2)
        if k < 4:
            raise ValueError(
                "--topology smallworld needs --degree >= 4 (an even lattice "
                "degree of at least 4; the span-1 ring alone is not small-world)"
            )
        if n <= k:
            raise ValueError(
                f"--topology smallworld needs more than --degree {k} nodes "
                f"for a ring lattice"
            )


def synthesize_topology(
    n: int, *, degree: int, max_degree: int, rng
) -> list[set[int]]:
    """Ring + random chords adjacency (indices ``0..n-1``).

    The ring guarantees connectivity; chords are added uniformly at
    random up to a mean degree of ``degree``, never pushing any node past
    ``max_degree`` (HyParView's expanded active-view cap).  O(n * degree)
    expected time.
    """
    check_topology_args("uniform", n, degree, max_degree)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i].add(j)
        adj[j].add(i)
    edges = n  # the ring
    target_edges = (n * degree) // 2
    attempts = 0
    max_attempts = 20 * max(target_edges, 1)
    randrange = rng.randrange
    while edges < target_edges and attempts < max_attempts:
        attempts += 1
        a = randrange(n)
        b = randrange(n)
        if a == b or b in adj[a]:
            continue
        if len(adj[a]) >= max_degree or len(adj[b]) >= max_degree:
            continue
        adj[a].add(b)
        adj[b].add(a)
        edges += 1
    return adj


def synthesize_passive(
    n: int, adj: list[set[int]], *, size: int, rng
) -> list[set[int]]:
    """Random passive views (indices), excluding self and active peers.

    A settled overlay has full passive views (shuffles saturate them);
    uniformly random entries reproduce that reservoir.  Rejection
    sampling is attempt-bounded so tiny populations (where ``size``
    exceeds the available peers) terminate with partial views.
    """
    views: list[set[int]] = []
    randrange = rng.randrange
    for i in range(n):
        neigh = adj[i]
        view: set[int] = set()
        want = min(size, max(0, n - 1 - len(neigh)))
        attempts = 0
        max_attempts = 8 * max(size, 1)
        while len(view) < want and attempts < max_attempts:
            attempts += 1
            p = randrange(n)
            if p == i or p in neigh or p in view:
                continue
            view.add(p)
        views.append(view)
    return views


# ----------------------------------------------------------------------
# Array-backed topology synthesis (DESIGN.md §8)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CSRTopology:
    """Ring+chords overlay as flat integer arrays.

    Row ``i``'s neighbours are the index slice
    ``neighbors[offsets[i]:offsets[i+1]]``; ``degrees[i]`` is its length.
    Entries are node *indices* (``0..n-1``) — id translation happens at
    install time — so one topology is reusable across testbeds.
    """

    n: int
    #: Row starts, ``n + 1`` entries ('q': edge counts exceed 'i' range
    #: long before populations do).
    offsets: array
    #: Concatenated adjacency rows, ``2 * edges`` entries.
    neighbors: array
    #: Per-node degree vector (``offsets[i+1] - offsets[i]``).
    degrees: array


def synthesize_topology_arrays(
    n: int, *, degree: int, max_degree: int, rng
) -> CSRTopology:
    """Array-backed :func:`synthesize_topology`: same draws, same graph.

    Both synthesizers consume ``rng`` identically (one ``randrange`` pair
    per chord attempt, identical accept/reject decisions), so for the
    same seed they produce the same edge set — the property the
    bootstrap equivalence tests pin.  This one builds the overlay as an
    edge list plus a degree vector and assembles the CSR adjacency with
    a counting sort: O(n·degree) time with no per-node Python
    containers.
    """
    check_topology_args("uniform", n, degree, max_degree)
    # The Hamiltonian ring (connectivity guarantee).
    edge_a, edge_b, degrees, edge_keys = _ring_edges(n)
    edges = n
    target_edges = (n * degree) // 2
    attempts = 0
    max_attempts = 20 * max(target_edges, 1)
    randrange = rng.randrange
    while edges < target_edges and attempts < max_attempts:
        attempts += 1
        a = randrange(n)
        b = randrange(n)
        if a == b or (a * n + b if a < b else b * n + a) in edge_keys:
            continue
        if degrees[a] >= max_degree or degrees[b] >= max_degree:
            continue
        edge_keys.add(a * n + b if a < b else b * n + a)
        edge_a.append(a)
        edge_b.append(b)
        degrees[a] += 1
        degrees[b] += 1
        edges += 1
    return _assemble_csr(n, degrees, edge_a, edge_b)


def _assemble_csr(n: int, degrees: array, edge_a: array, edge_b: array) -> CSRTopology:
    """Counting-sort an undirected edge list into CSR rows (shared by
    every array-backed topology synthesizer)."""
    offsets = array("q", accumulate(degrees, initial=0))
    neighbors = array("i", bytes(4 * offsets[n]))
    cursor = array("q", offsets[:n])
    for a, b in zip(edge_a, edge_b):
        neighbors[cursor[a]] = b
        cursor[a] += 1
        neighbors[cursor[b]] = a
        cursor[b] += 1
    return CSRTopology(n=n, offsets=offsets, neighbors=neighbors, degrees=degrees)


def _ring_edges(n: int) -> tuple[array, array, array, set[int]]:
    """The Hamiltonian ring every synthesizer starts from: edge arrays, a
    degree vector, and the packed undirected edge-key set (min*n+max)."""
    degrees = array("i", [2]) * n  # n >= 3: every ring node has two
    edge_a = array("i", range(n))
    edge_b = array("i", range(1, n))
    edge_b.append(0)
    # Edge (i, i + 1) packs to i * (n + 1) + 1.
    edge_keys = set(range(1, (n - 1) * (n + 1), n + 1))
    edge_keys.add(n - 1)  # the wrap-around edge (0, n-1)
    return edge_a, edge_b, degrees, edge_keys


def synthesize_powerlaw_arrays(
    n: int, *, degree: int, max_degree: int, rng
) -> CSRTopology:
    """Ring + *preferential* chords: a Barabási–Albert-style heavy-tailed
    overlay, cap-clamped so the HyParView invariants still hold.

    The Hamiltonian ring supplies connectivity and the min-degree floor
    exactly as in :func:`synthesize_topology_arrays`; chords then attach
    both endpoints with probability proportional to current degree (a
    uniform draw from the edge-endpoint multiset — the classic BA
    construction), so early hubs keep attracting edges and the degree
    distribution grows a heavy tail *up to* ``max_degree``, where the
    active-view cap clamps it.  One ``randrange`` pair per chord attempt,
    identical accept/reject structure to the uniform builder, so the
    graph is draw-for-draw deterministic in ``rng``.
    """
    check_topology_args("powerlaw", n, degree, max_degree)
    edge_a, edge_b, degrees, edge_keys = _ring_edges(n)
    # Every edge endpoint, once per incidence: drawing a uniform index
    # here selects a node with probability proportional to its degree.
    endpoints = array("i")
    for a, b in zip(edge_a, edge_b):
        endpoints.append(a)
        endpoints.append(b)
    edges = n
    target_edges = (n * degree) // 2
    attempts = 0
    max_attempts = 20 * max(target_edges, 1)
    randrange = rng.randrange
    while edges < target_edges and attempts < max_attempts:
        attempts += 1
        a = endpoints[randrange(len(endpoints))]
        b = endpoints[randrange(len(endpoints))]
        if a == b or (a * n + b if a < b else b * n + a) in edge_keys:
            continue
        if degrees[a] >= max_degree or degrees[b] >= max_degree:
            continue
        edge_keys.add(a * n + b if a < b else b * n + a)
        edge_a.append(a)
        edge_b.append(b)
        endpoints.append(a)
        endpoints.append(b)
        degrees[a] += 1
        degrees[b] += 1
        edges += 1
    return _assemble_csr(n, degrees, edge_a, edge_b)


#: Watts–Strogatz rewiring probability: the small-world sweet spot where
#: path lengths have collapsed but clustering is still near-lattice.
SMALLWORLD_BETA = 0.1


def synthesize_smallworld_arrays(
    n: int, *, degree: int, max_degree: int, rng
) -> CSRTopology:
    """Ring lattice + rewired shortcuts: a Watts–Strogatz-style overlay.

    Each node starts connected to its ``k/2`` nearest neighbours per side
    (``k`` = ``degree`` rounded down to even); every chord of span ≥ 2 is
    then rewired to a uniform random endpoint with probability
    :data:`SMALLWORLD_BETA`.  The span-1 Hamiltonian ring is *never*
    rewired, so connectivity and the min-degree floor survive any coin
    sequence; rewiring targets that would break the ``max_degree`` cap or
    duplicate an edge are redrawn a bounded number of times and fall back
    to the lattice edge.  Draw-for-draw deterministic in ``rng`` (one
    coin per lattice chord, bounded redraws per rewire).
    """
    check_topology_args("smallworld", n, degree, max_degree)
    k = degree - (degree % 2)
    edge_a, edge_b, degrees, edge_keys = _ring_edges(n)
    random_ = rng.random
    randrange = rng.randrange
    for span in range(2, k // 2 + 1):
        for i in range(n):
            b = i + span if i + span < n else i + span - n
            if random_() < SMALLWORLD_BETA:
                for _ in range(8):
                    t = randrange(n)
                    if (
                        t == i
                        or (i * n + t if i < t else t * n + i) in edge_keys
                        or degrees[t] >= max_degree
                    ):
                        continue
                    b = t
                    break
            key = i * n + b if i < b else b * n + i
            if key in edge_keys or degrees[i] >= max_degree or degrees[b] >= max_degree:
                # A shortcut landed here first and used up the headroom;
                # dropping the lattice edge is the cap-respecting choice.
                continue
            edge_keys.add(key)
            edge_a.append(i)
            edge_b.append(b)
            degrees[i] += 1
            degrees[b] += 1
    return _assemble_csr(n, degrees, edge_a, edge_b)


#: Topology classes selectable through ``repro scale --topology`` — all
#: cap-clamped, ring-seeded (connected, min degree ≥ 2) and draw-for-draw
#: deterministic, so they are interchangeable under one HyParView config.
TOPOLOGY_BUILDERS = {
    "uniform": synthesize_topology_arrays,
    "powerlaw": synthesize_powerlaw_arrays,
    "smallworld": synthesize_smallworld_arrays,
}


def synthesize_passive_arrays(
    n: int, topo: CSRTopology, *, size: int, rng
) -> tuple[array, array]:
    """Array-backed :func:`synthesize_passive`: same draws, same views.

    Returns ``(offsets, entries)`` — node ``i``'s passive view is the
    index slice ``entries[offsets[i]:offsets[i+1]]``.  One small scratch
    set is reused across nodes; adjacency membership scans the CSR row
    (degree ≤ the expanded cap, so the scan beats set construction).
    """
    offsets = array("q", bytes(8 * (n + 1)))
    entries = array("i")
    extend = entries.extend
    t_offsets = topo.offsets
    t_neighbors = topo.neighbors
    randrange = rng.randrange
    max_attempts = 8 * max(size, 1)
    view: set[int] = set()
    for i in range(n):
        row = t_neighbors[t_offsets[i] : t_offsets[i + 1]]
        view.clear()
        want = min(size, max(0, n - 1 - len(row)))
        attempts = 0
        while len(view) < want and attempts < max_attempts:
            attempts += 1
            p = randrange(n)
            if p == i or p in row or p in view:
                continue
            view.add(p)
        extend(view)
        offsets[i + 1] = len(entries)
    return offsets, entries


class PassiveReservoir:
    """A population's views, left in the arrays until one is read.

    §II-A's passive view is "a reservoir of replacements when active
    entries fail"; a static, failure-free run never reads it.  So
    :func:`synthesize_overlay` hands every node ``partial(view, i)``
    instead of a materialised set, and the first node to read its
    ``passive`` (churn, a checkpoint, an audit) draws the views of the
    *whole* population with one :func:`synthesize_passive_arrays` call —
    the draw is a single pass over one RNG stream, so it cannot be made
    per node without changing every view after the first.

    A population that is born cold (the array flood kernels, DESIGN.md
    §8 "The population is born cold") leaves its *active* views here
    too: :meth:`active` is the CSR row, and a node takes both when it
    wakes.

    **The reservoir owns ``rng`` from here on**: it is the bootstrap
    stream positioned just after the topology draws, exactly where an
    eager build would have continued.  Both production callers pass a
    fresh ``sim.rng(...)`` nobody else holds; a caller that kept drawing
    from it would shift the views.  Under that rule a later reader gets
    the views an eager build would have produced — same draws, same CSR
    entries, same per-node insertion order (DESIGN.md §8).
    """

    def __init__(self, topo: CSRTopology, ids: list, *, size: int, rng) -> None:
        self.topo = topo
        #: Node ids by topology index.
        self.ids = ids
        self._size = size
        self._rng = rng
        #: ``(offsets, entries)`` once drawn.
        self._arrays: "tuple[array, array] | None" = None

    def active(self, i: int) -> list[NodeId]:
        """Node ``i``'s active view as ids, in CSR row order — the order
        ``install_overlay`` and ``SlotKernel.install_rows`` install."""
        topo = self.topo
        ids = self.ids
        return [ids[j] for j in topo.neighbors[topo.offsets[i] : topo.offsets[i + 1]]]

    def view(self, i: int) -> list[NodeId]:
        """Node ``i``'s passive entries as ids, in insertion order."""
        if self._arrays is None:
            self._arrays = synthesize_passive_arrays(
                self.topo.n, self.topo, size=self._size, rng=self._rng
            )
            self._rng = None
        offsets, entries = self._arrays
        ids = self.ids
        return [ids[j] for j in entries[offsets[i] : offsets[i + 1]]]


# ----------------------------------------------------------------------
# The collector during a build and a drain (DESIGN.md §8)
# ----------------------------------------------------------------------
@contextmanager
def quiet_collector():
    """Tell the cyclic collector what an array bootstrap and a scale
    drain already know: what they allocate is either long-lived or freed
    by reference counting.

    The collector is paused for the block — every walk it would start
    visits a population that cannot die and a drain's acyclic garbage —
    and a block that completes hands what it allocated to the oldest
    generation unwalked (freeze, then thaw) instead of leaving it young
    for the first allocation after the block to trip over.  Used around
    the two array builds and ``run_stack``'s drain; the simulated join
    ramp and ``Testbed`` runs are simulations that make real cyclic
    garbage and get neither (DESIGN.md §8).

    Every exit path restores what was found on entry: a collector found
    disabled stays disabled, and the heap is thawed if nothing was
    frozen before.  ``gc.unfreeze()`` is all-or-nothing, so under a
    caller that froze its own heap first (``bench/cell.py``) nothing is
    thawed: the block's objects join that permanent generation and
    whoever froze first owns the thaw.
    """
    enabled = gc.isenabled()
    thaw = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if thaw:
            gc.unfreeze()
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _require_hyparview(nodes) -> None:
    for node in nodes:
        if not isinstance(node, HyParViewNode):
            raise SimulationError(
                f"synthesized bootstrap requires HyParView stacks; "
                f"got {type(node).__name__}"
            )


def synthesize_overlay(
    nodes, network, *, rng, degree: int | None = None, topology: str = "uniform"
) -> None:
    """Build and install a HyParView-convergent overlay over ``nodes``.

    ``nodes`` are already-spawned (fresh, empty-view) HyParView-stack
    nodes; ``rng`` drives the topology draw (derive it from the
    simulation seed for reproducible overlays).  The topology comes from
    the array-backed synthesizer for ``topology`` (one of
    :data:`TOPOLOGY_BUILDERS` — uniform ring+chords, Barabási–Albert-style
    power-law, or Watts–Strogatz-style small-world; flat CSR arrays,
    DESIGN.md §8/§14) and is wired in bulk: per-node view installation
    through :meth:`HyParViewNode.install_overlay`'s fresh-node fast path,
    link registration through one :meth:`Network.register_links_csr` pass.

    Passive views are installed as providers backed by one
    :class:`PassiveReservoir`, which **takes ownership of ``rng``**: pass
    a stream nobody else draws from afterwards (both production callers
    pass a fresh ``sim.rng(...)``).  Whoever reads a view first pays for
    the whole population's draw and gets what an eager build would have
    installed; a run that reads none pays nothing.

    What the nodes *are* selects how the views get in, not an option: a
    population whose class takes the reservoir whole
    (:meth:`HyParViewNode.adopt_overlay` — cold flood nodes on an array
    kernel) installs nothing here and each node takes its rows when it
    wakes; every other population gets the per-node loop.
    """
    _require_hyparview(nodes)
    n = len(nodes)
    hpv = nodes[0].hpv_config
    if degree is None:
        degree = default_degree(hpv)
    elif degree > hpv.max_active:
        # Silently clamping would hand back a different topology than the
        # caller asked for; make the config mismatch explicit instead.
        raise ValueError(
            f"degree {degree} exceeds the expanded active-view cap "
            f"{hpv.max_active}; size HyParViewConfig.active_size/"
            f"expansion_factor accordingly"
        )
    check_topology_args(topology, n, degree, hpv.max_active)
    topo = TOPOLOGY_BUILDERS[topology](
        n, degree=degree, max_degree=hpv.max_active, rng=rng
    )
    ids = [node.node_id for node in nodes]
    reservoir = PassiveReservoir(topo, ids, size=hpv.passive_size, rng=rng)
    offsets = topo.offsets
    neighbors = topo.neighbors
    # A population born cold takes the reservoir whole and installs
    # nothing until a node wakes; everyone else gets their views now.
    if not type(nodes[0]).adopt_overlay(nodes, reservoir):
        passive_view = reservoir.view
        for i, node in enumerate(nodes):
            node.install_overlay(
                [ids[j] for j in neighbors[offsets[i] : offsets[i + 1]]],
                partial(passive_view, i),
                register_links=False,
            )
    # The synthesizer emits every edge in both rows by construction
    # (property-tested), so the symmetry validation pass is skipped.
    network.register_links_csr(ids, offsets, neighbors, validate=False)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverlayCheckpoint:
    """Parsed overlay checkpoint: per-node active/passive views by id."""

    ids: tuple[NodeId, ...]
    active: dict[NodeId, tuple[NodeId, ...]]
    passive: dict[NodeId, tuple[NodeId, ...]]

    @property
    def n(self) -> int:
        return len(self.ids)


def _write_checkpoint(rows: list[dict], path: "str | pathlib.Path") -> pathlib.Path:
    """The one ``brisa-overlay/1`` writer: one ``{id, active, passive}``
    row per node."""
    payload = {"format": CHECKPOINT_FORMAT, "n": len(rows), "nodes": rows}
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def save_overlay(nodes, path: "str | pathlib.Path") -> pathlib.Path:
    """Serialize the nodes' active/passive views to a JSON checkpoint."""
    _require_hyparview(nodes)
    return _write_checkpoint([node.overlay_snapshot() for node in nodes], path)


def synthesize_checkpoint(n: int, path: "str | pathlib.Path", *, seed: int = 1) -> pathlib.Path:
    """Write the checkpoint of the overlay a ``seed`` testbed synthesizes
    for ``n`` nodes (ids 0..n-1), without spawning a node.

    Consumes ``derive(seed, "synth-overlay")`` exactly like
    ``Testbed.populate(bootstrap="synthesized")`` under the default
    :class:`HyParViewConfig` — the topology, then the passive draws — so
    the file holds that very overlay (the live harness restores it in
    both legs, DESIGN.md §13).
    """
    hpv = HyParViewConfig()
    rng = derive(seed, "synth-overlay")
    topo = synthesize_topology_arrays(
        n, degree=default_degree(hpv), max_degree=hpv.max_active, rng=rng
    )
    p_off, p_ent = synthesize_passive_arrays(n, topo, size=hpv.passive_size, rng=rng)
    offsets, neighbors = topo.offsets, topo.neighbors
    return _write_checkpoint(
        [
            {
                "id": i,
                "active": list(neighbors[offsets[i] : offsets[i + 1]]),
                "passive": list(p_ent[p_off[i] : p_off[i + 1]]),
            }
            for i in range(n)
        ],
        path,
    )


def load_overlay(path: "str | pathlib.Path") -> OverlayCheckpoint:
    """Parse a checkpoint written by :func:`save_overlay`."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SimulationError(f"cannot read overlay checkpoint {path}: {exc}") from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise SimulationError(
            f"unsupported overlay checkpoint format {payload.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )
    entries = payload.get("nodes", [])
    if len(entries) != payload.get("n"):
        raise SimulationError("overlay checkpoint is corrupt: node count mismatch")
    ids = tuple(e["id"] for e in entries)
    active = {e["id"]: tuple(e["active"]) for e in entries}
    passive = {e["id"]: tuple(e["passive"]) for e in entries}
    return OverlayCheckpoint(ids=ids, active=active, passive=passive)


def install_checkpoint(nodes, network, checkpoint: OverlayCheckpoint) -> None:
    """Rehydrate a checkpointed overlay into freshly-spawned ``nodes``.

    The i-th checkpointed node maps onto the i-th fresh node; view
    entries are translated through that map, so restored testbeds do not
    depend on the fresh network allocating the same ids.
    """
    _require_hyparview(nodes)
    if len(nodes) != checkpoint.n:
        raise SimulationError(
            f"checkpoint holds {checkpoint.n} nodes, testbed spawned {len(nodes)}"
        )
    remap = {old: node.node_id for old, node in zip(checkpoint.ids, nodes)}
    edges: set[tuple[NodeId, NodeId]] = set()
    for old_id, node in zip(checkpoint.ids, nodes):
        try:
            act = [remap[p] for p in checkpoint.active[old_id]]
            pas = [remap[p] for p in checkpoint.passive[old_id]]
        except KeyError as exc:
            raise SimulationError(
                f"overlay checkpoint references unknown node id {exc.args[0]}"
            ) from exc
        node.install_overlay(act, pas, register_links=False)
        nid = node.node_id
        for p in act:
            edges.add((nid, p) if nid < p else (p, nid))
    network.register_links(edges)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverlayAudit:
    """Invariant audit of one overlay (synthesized or simulated)."""

    n: int
    bidirectional: bool
    connected: bool
    min_degree: int
    max_degree: int
    mean_degree: float

    def check(self, hpv: HyParViewConfig) -> tuple[bool, str]:
        """Is this overlay indistinguishable (by invariant) from a
        settled simulated one under ``hpv``?"""
        if not self.bidirectional:
            return False, "active views are not mutual"
        if not self.connected:
            return False, "overlay is not connected"
        if self.min_degree < 2:
            return False, f"min degree {self.min_degree} below ring minimum 2"
        if self.max_degree > hpv.max_active:
            return False, (
                f"max degree {self.max_degree} exceeds expanded cap {hpv.max_active}"
            )
        if not hpv.active_size - 1 <= self.mean_degree <= hpv.max_active:
            return False, (
                f"mean degree {self.mean_degree:.2f} outside "
                f"[{hpv.active_size - 1}, {hpv.max_active}]"
            )
        return True, "ok"


def audit_overlay(nodes) -> OverlayAudit:
    """Measure the invariants a settled HyParView overlay guarantees."""
    _require_hyparview(nodes)
    views = {node.node_id: node.active for node in nodes}
    bidirectional = all(
        nid in views.get(peer, ()) for nid, view in views.items() for peer in view
    )
    degrees = [len(view) for view in views.values()]
    # BFS over active views (cheaper than building a networkx graph).
    start = nodes[0].node_id
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for nid in frontier:
            for peer in views.get(nid, ()):
                if peer not in seen:
                    seen.add(peer)
                    nxt.append(peer)
        frontier = nxt
    return OverlayAudit(
        n=len(nodes),
        bidirectional=bidirectional,
        connected=len(seen) == len(nodes),
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
    )


def assert_valid_overlay(nodes, hpv: HyParViewConfig | None = None) -> OverlayAudit:
    """Validation mode of ``Testbed.populate``: raise unless the overlay
    satisfies every settled-ramp invariant."""
    _require_hyparview(nodes)
    if hpv is None:
        hpv = nodes[0].hpv_config
    audit = audit_overlay(nodes)
    ok, reason = audit.check(hpv)
    if not ok:
        raise SimulationError(f"overlay validation failed: {reason}")
    return audit
