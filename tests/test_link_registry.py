"""The link registry keeps a bulk-wired overlay in the synthesizer's CSR
arrays (DESIGN.md §8, "The link registry stays in the arrays").

``Network.links`` must read, iterate and change exactly as the dict of
peer sets it replaced: the same keys in the same order, every peer set
iterating in the same order (``crash`` draws one failure-notice delay
per peer in that order), and the same invariant verdicts.  The
reference is ``tests/helpers.py::DictLinks``, the old writers' code.
"""

from __future__ import annotations

from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments import bootstrap
from repro.experiments.scale_runner import RunSpec, run_spec
from tests.helpers import DictLinks, make_network

#: Node ids 0..POOL-1; small enough that peer sets collide in their
#: hash tables, so iteration order depends on insertion history.
POOL = 40
IDS = st.integers(min_value=0, max_value=POOL - 1)


def csr(ids, rows) -> tuple:
    """``(ids, offsets, neighbors)`` with row ``i`` holding ``rows[i]``."""
    offsets, neighbors = array("q", [0]), array("i")
    for row in rows:
        neighbors.extend(row)
        offsets.append(len(neighbors))
    return ids, offsets, neighbors


@st.composite
def csr_adjacencies(draw):
    """``(ids, offsets, neighbors)``: a simple symmetric adjacency over
    ``n`` ids — a run of consecutive ids (kept as the registry's base
    when it is empty) or scattered ones (built at once) — with empty
    rows allowed and every row in a drawn order."""
    n = draw(st.integers(min_value=0, max_value=16))
    if draw(st.booleans()):
        first = draw(st.integers(min_value=0, max_value=POOL - n))
        ids = list(range(first, first + n))
    else:
        ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    rows = [[] for _ in range(n)]
    if n >= 2:
        index = st.integers(min_value=0, max_value=n - 1)
        pairs = draw(st.lists(
            st.tuples(index, index).filter(lambda p: p[0] < p[1]),
            max_size=3 * n, unique=True,
        ))
        for a, b in pairs:
            rows[a].append(b)
            rows[b].append(a)
    return csr(ids, [draw(st.permutations(row)) for row in rows])


OPS = st.one_of(
    st.tuples(st.just("csr"), csr_adjacencies()),
    st.tuples(st.just("link"), IDS, IDS).filter(lambda op: op[1] != op[2]),
    st.tuples(st.just("unlink"), IDS, IDS),
    st.tuples(st.just("crash"), IDS),
    # A one-directional entry written through ``links[a]`` and a node
    # dead without ``crash``: what the invariant check exists to catch.
    st.tuples(st.just("dangle"), IDS, IDS),
    st.tuples(st.just("die"), IDS),
)


def assert_same(net, ref: DictLinks) -> None:
    """Every read that builds nothing agrees with the dict of sets."""
    links = net.links
    assert list(links) == list(ref)
    assert len(links) == len(ref)
    assert list(links.degrees()) == [(nid, len(peers)) for nid, peers in ref.items()]
    for nid in range(POOL):
        assert (nid in links) == (nid in ref)
        assert list(links.peers(nid)) == list(ref.get(nid, ()))
        row = ref.get(nid, ())
        assert [links.linked(nid, peer) for peer in range(POOL)] == [
            peer in row for peer in range(POOL)
        ]
    try:
        net.check_link_invariants()
        violated = False
    except SimulationError:
        violated = True
    assert violated == ref.violated(net.nodes)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, max_size=20))
# Row 0's peers 9 and 1 share a hash slot, so its set iterates in the
# order the row inserts them; id 3's base row is empty, so a link added
# later puts it after the keys added before.
@example(ops=[("csr", csr(list(range(10)), [[9, 1], [0], [], [], [], [], [], [], [], [0]]))])
@example(ops=[
    ("csr", csr([0, 1, 2, 3], [[1], [0], [], []])),
    ("link", 20, 21),
    ("link", 3, 22),
])
def test_registry_matches_the_dict_of_sets(ops):
    _, net, _ = make_network(POOL)
    notices = []
    net._schedule_failure_notice = lambda observer, failed: notices.append(
        (observer, failed)
    )
    ref = DictLinks()
    for op in ops:
        kind = op[0]
        if kind == "csr":
            ids, offsets, neighbors = op[1]
            net.register_links_csr(ids, offsets, neighbors)
            ref.install(ids, offsets, neighbors)
        elif kind == "link":
            _, a, b = op
            net.register_link(a, b)
            if net.alive(a) and net.alive(b):
                ref.add(a, b)
                ref.add(b, a)
        elif kind == "unlink":
            _, a, b = op
            net.unregister_link(a, b)
            ref.discard(a, b)
            ref.discard(b, a)
        elif kind == "crash":
            del notices[:]
            expected = ref.crash(op[1]) if net.alive(op[1]) else []
            net.crash(op[1])
            assert notices == [(peer, op[1]) for peer in expected]
        elif kind == "dangle":
            _, a, b = op
            if a in ref:
                net.links[a].add(b)
                ref[a].add(b)
        else:
            net.nodes[op[1]].alive = False
        assert_same(net, ref)
    # ``==`` and ``links[nid]`` build every row: still the same sets.
    assert net.links == ref
    assert [list(net.links[nid]) for nid in ref] == [list(p) for p in ref.values()]


def test_static_xl_vectorized_run_builds_no_row(monkeypatch):
    """A static run reads the registry (``linked``, the keep-alive walk)
    and builds no peer set: the tripwire for a stray read that does."""
    networks = []
    build = bootstrap.synthesize_overlay

    def capturing_build(nodes, network, **kwargs):
        networks.append(network)
        return build(nodes, network, **kwargs)

    monkeypatch.setattr(bootstrap, "synthesize_overlay", capturing_build)
    result = run_spec(RunSpec(stack="flood", size="xl", kernel="vectorized"))
    (net,) = networks
    assert result.delivered_fraction == 1.0
    assert net.links._rows == {} and net.links._moved == set()
    assert len(net.links) == 10_000
