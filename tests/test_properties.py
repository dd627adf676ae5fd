"""Property-based tests (hypothesis) on core data structures & invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycle import (
    BloomFilterPredictor,
    DepthLabelPredictor,
    PathEmbeddingPredictor,
)
from repro.core.recovery import MessageBuffer
from repro.metrics.stats import CDF, percentile_summary, rate_per_minute
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sim.trace import churn_trace, parse_trace


# ----------------------------------------------------------------------
# Event engine
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
def test_engine_processes_events_in_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=40),
    st.data(),
)
def test_engine_cancellation_never_fires(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(delays) - 1))
    )
    for i in to_cancel:
        handles[i].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


# ----------------------------------------------------------------------
# CDF / stats
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1))
def test_cdf_fraction_is_monotone_and_bounded(sample):
    cdf = CDF.of(sample)
    xs = sorted({cdf.min, cdf.median, cdf.max, 0.0})
    fractions = [cdf.fraction_at_most(x) for x in xs]
    assert fractions == sorted(fractions)
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert cdf.fraction_at_most(cdf.max) == 1.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
def test_cdf_percentiles_within_range(sample):
    cdf = CDF.of(sample)
    for q in (0, 25, 50, 75, 100):
        assert cdf.min - 1e-9 <= cdf.percentile(q) <= cdf.max + 1e-9


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1))
def test_percentile_summary_is_sorted(sample):
    s = percentile_summary(sample)
    values = [s[p] for p in sorted(s)]
    assert values == sorted(values)


@given(
    st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False)),
    st.floats(min_value=0, max_value=500, allow_nan=False),
    st.floats(min_value=0.1, max_value=500, allow_nan=False),
)
def test_rate_per_minute_counts_only_window(times, start, width):
    # Half-open [start, end): boundary events belong to the next window.
    rate = rate_per_minute(times, (start, start + width))
    inside = sum(1 for t in times if start <= t < start + width)
    assert rate * (width / 60.0) == inside or abs(rate * width / 60.0 - inside) < 1e-6


# ----------------------------------------------------------------------
# Message buffer
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=32),
    st.lists(st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=10_000))),
)
def test_buffer_never_exceeds_capacity(capacity, ops):
    buf = MessageBuffer(capacity)
    for seq, size in ops:
        buf.store(seq, size)
        assert len(buf) <= capacity
    out = list(buf.after(-1))
    assert [s for s, _ in out] == sorted(s for s, _ in out)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1),
    st.integers(min_value=-1, max_value=100),
)
def test_buffer_after_returns_only_newer(seqs, threshold):
    buf = MessageBuffer(capacity=200)
    for s in seqs:
        buf.store(s, 1)
    assert all(s > threshold for s, _ in buf.after(threshold))


# ----------------------------------------------------------------------
# Churn trace DSL
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=10_000),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_churn_trace_builder_always_parses(n, pct):
    trace = churn_trace(n, round(pct, 3))
    assert trace.total_joins == n
    assert trace.stop_time >= trace.churn_ops()[0].start


@given(
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
    st.floats(min_value=0, max_value=1e4, allow_nan=False),
    st.integers(min_value=0, max_value=100_000),
)
def test_join_ramp_roundtrip(a, b, count):
    # The DSL takes plain decimals (no scientific notation), as in the
    # paper's Listing 1 — format accordingly.
    start, end = (f"{min(a, b):.3f}", f"{max(a, b):.3f}")
    trace = parse_trace(f"from {start} s to {end} s join {count}")
    op = trace.ops[0]
    assert (op.start, op.end, op.count) == (float(start), float(end), count)


# ----------------------------------------------------------------------
# Cycle predictors
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=20),
)
def test_path_embedding_is_exact(node, path):
    p = PathEmbeddingPredictor()
    meta = tuple(path)
    assert p.eligible(node, None, meta) == (node not in meta)


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12),
)
def test_path_adopt_appends_exactly_self(node, path):
    p = PathEmbeddingPredictor()
    new = p.adopt(node, tuple(path))
    assert new[:-1] == tuple(path) and new[-1] == node


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_depth_adopt_strictly_below_parent(node, meta):
    p = DepthLabelPredictor()
    assert p.adopt(node, meta) == meta + 1 > meta


@given(
    st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=15, unique=True)
)
def test_bloom_never_misses_real_ancestors(chain):
    """A Bloom filter may reject valid parents (false positives) but must
    NEVER miss a real ancestor — that is what makes it cycle-safe."""
    p = BloomFilterPredictor(bits=512, hashes=4)
    pos = p.source_position(chain[0])
    for nid in chain[1:]:
        pos = p.adopt(nid, pos)
    for ancestor in chain:
        assert p.contains(pos, ancestor)
        assert not p.eligible(ancestor, None, pos)


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**62), st.text(max_size=30))
def test_derive_seed_is_pure(root, label):
    assert derive_seed(root, label) == derive_seed(root, label)
    assert 0 <= derive_seed(root, label) < 2**64
