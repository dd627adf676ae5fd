"""The strategy-input contract and what it buys on the emergence path.

A strategy declares, in ``ParentSelectionStrategy.inputs``, the
``Candidate`` fields its ``score``/``prefers`` read beyond the three
every node observes for free (``peer``, ``arrival``, ``path_delay``);
``BrisaNode`` fetches exactly those from the transport.  These tests
hold both sides of that contract: no strategy reads an undeclared field
or declares an unread one, and a run asks the transport for nothing its
strategy did not declare.
"""

from collections import Counter

import pytest

from repro.config import STRATEGY_NAMES, BrisaConfig, StreamConfig
from repro.core import brisa as brisa_module
from repro.core.brisa import BrisaNode
from repro.core.strategies import Candidate, make_strategy
from repro.experiments.common import build_brisa_testbed

#: What a node knows about a neighbour without asking the transport.
FREE_FIELDS = frozenset({"peer", "arrival", "path_delay"})
FETCHED_FIELDS = frozenset({"rtt", "uptime", "load", "capacity"})
#: The transport calls those fields cost.
TRANSPORT_HOOKS = ("rtt", "peer_stats", "peer_uptime", "capacity")


class StrictCandidate:
    """Candidate stand-in that records every field read and raises on
    one outside ``allowed``."""

    def __init__(self, allowed, reads, **values):
        self.__dict__.update(_allowed=allowed, _reads=reads, _values=values)

    def __getattr__(self, name):
        values = self.__dict__["_values"]
        if name not in values:
            raise AttributeError(name)
        if name not in self.__dict__["_allowed"]:
            raise AssertionError(f"read of undeclared Candidate field {name!r}")
        self.__dict__["_reads"].add(name)
        return values[name]


def test_every_registered_strategy_declares_known_inputs():
    for name in STRATEGY_NAMES:
        strategy = make_strategy(name)
        assert strategy.name == name
        assert strategy.inputs <= FETCHED_FIELDS, name
    assert not make_strategy("first-come").inputs


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_strategy_reads_exactly_its_declared_inputs(name):
    strategy = make_strategy(name)
    reads = set()

    def cand(peer, **overrides):
        values = dict(peer=peer, arrival=float(peer), rtt=0.01 * peer,
                      uptime=10.0 * peer, load=peer, capacity=1.0 + peer,
                      path_delay=0.001 * peer)
        values.update(overrides)
        return StrictCandidate(FREE_FIELDS | strategy.inputs, reads, **values)

    cands = [cand(1), cand(2), cand(3, arrival=1.0), cand(4)]
    for c in cands:
        strategy.score(c)
    for a in cands:
        for b in cands:
            strategy.prefers(a, b)
    assert strategy.best(cands) in cands
    assert strategy.worst(cands) in cands
    assert sorted(c.peer for c in strategy.sort(cands)) == [1, 2, 3, 4]
    unread = strategy.inputs - reads
    assert not unread, f"{name} declares {sorted(unread)} but never reads them"


def _emergence_run(strategy, monkeypatch):
    """256-node, 3-message object-kernel run; returns the transport-hook
    call counts, the Candidate construction count and the bed."""
    bed = build_brisa_testbed(
        256, seed=11, config=BrisaConfig(strategy=strategy), bootstrap="synthesized",
    )
    bed.stop_shuffles()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for hook in TRANSPORT_HOOKS:
        setattr(bed.network, hook, counting(hook, getattr(bed.network, hook)))
    monkeypatch.setattr(brisa_module, "Candidate", counting("Candidate", Candidate))
    monkeypatch.setattr(
        BrisaNode, "_adopt_parent", counting("adoptions", BrisaNode._adopt_parent)
    )
    result = bed.run_stream(
        bed.choose_source(), StreamConfig(count=3, rate=5.0, payload_bytes=64),
        drain=2.0,
    )
    assert result.delivered_fraction() == 1.0
    assert result.structure_ok()[0]
    return calls, bed


def test_first_come_emergence_asks_the_transport_nothing(monkeypatch):
    calls, bed = _emergence_run("first-come", monkeypatch)
    assert not any(calls[hook] for hook in TRANSPORT_HOOKS)
    # One first-contact record per (node, stream, neighbour) heard from,
    # reused as the contention newcomer, plus one snapshot per adoption.
    first_contacts = sum(
        len(state.candidates) for node in bed.nodes for state in node.streams.values()
    )
    assert calls["adoptions"] >= len(bed.nodes) - 1
    assert 0 < calls["Candidate"] <= first_contacts + calls["adoptions"]


def test_delay_aware_emergence_reads_only_rtt(monkeypatch):
    calls, _ = _emergence_run("delay-aware", monkeypatch)
    assert calls["rtt"] > 0
    assert calls["peer_stats"] == calls["peer_uptime"] == calls["capacity"] == 0


def test_gerontocratic_emergence_builds_no_load_list(monkeypatch):
    """Uptime is fetched without the relay load, an O(degree)
    ``children_of`` list built on the peer: an uptime-only strategy
    makes no ``children_of`` call at all."""
    built = Counter()
    children_of = BrisaNode.children_of

    def counting_children_of(self, stream=0):
        built["children_of"] += 1
        return children_of(self, stream)

    monkeypatch.setattr(BrisaNode, "children_of", counting_children_of)
    calls, bed = _emergence_run("gerontocratic", monkeypatch)
    assert calls["peer_uptime"] > 0
    assert calls["rtt"] == calls["peer_stats"] == calls["capacity"] == 0
    assert built["children_of"] == 0
    # ...while the load query does build it.
    bed.network.peer_stats(bed.nodes[1].node_id, 0)
    assert built["children_of"] == 1


def test_peer_stats_is_a_pure_read_of_the_queried_stream():
    """The omniscient hook must not write: it used to materialize the
    peer's stream state (snapshotting ``in_active``) and, with the tail
    probe on, arm a timer on the peer — and it was asked about stream 0
    whatever stream the decision was for."""
    bed = build_brisa_testbed(
        32, seed=3, bootstrap="synthesized",
        config=BrisaConfig(strategy="load-balancing", tail_probe=True),
    )
    bed.stop_shuffles()
    sim, net = bed.sim, bed.network
    peer = bed.nodes[5]
    scheduled = sim._seq
    uptime, load = net.peer_stats(peer.node_id, 1)
    assert peer.streams == {}
    assert sim._seq == scheduled
    assert (uptime, load) == (peer.uptime, len(peer.active))
    # Load is per stream: muting one of peer's links on stream 1 only.
    peer.stream_state(1).out_deactivated.add(next(iter(peer.active)))
    assert net.peer_stats(peer.node_id, 1)[1] == len(peer.active) - 1
    assert net.peer_stats(peer.node_id, 0)[1] == len(peer.active)
    assert 0 not in peer.streams
    # ...and the node asks about the stream it is deciding on.
    asked = []
    net.peer_stats = lambda p, stream: asked.append(stream)
    bed.nodes[0]._candidate(bed.nodes[0].stream_state(1), peer.node_id)
    assert asked == [1]
