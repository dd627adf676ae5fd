"""Tests for the shared multi-stream scale harness (DESIGN.md §10)."""

from __future__ import annotations

import json
import math
import pickle
import re
from dataclasses import replace

import pytest

from repro.experiments.scale_runner import (
    STACKS,
    RunSpec,
    ScaleResult,
    StreamOutcome,
    aggregate_outcomes,
    merge_json,
    outcomes_summary,
    run_spec,
    spread_sources,
)
from repro.experiments.structural import relay_load_spread
from repro.sim.network import Network


class TestSpreadSources:
    def test_single_stream_keeps_the_head(self):
        assert spread_sources([10, 11, 12, 13], 1) == [10]

    def test_sources_spread_and_distinct(self):
        nodes = list(range(100))
        sources = spread_sources(nodes, 8)
        assert len(sources) == len(set(sources)) == 8
        assert sources[0] == 0 and sources[4] == 50

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValueError):
            spread_sources([1, 2, 3], 0)
        with pytest.raises(ValueError):
            spread_sources([1, 2, 3], 4)


class TestAggregation:
    def test_aggregate_outcomes(self):
        outcomes = [
            StreamOutcome(0, 1, receivers=10, deliveries=20, delivered_fraction=1.0),
            StreamOutcome(1, 2, receivers=10, deliveries=10, delivered_fraction=0.5),
        ]
        total, frac = aggregate_outcomes(outcomes, messages=2)
        assert total == 30
        assert frac == pytest.approx(30 / 40)
        text = outcomes_summary(outcomes)
        assert "stream 0" in text and "50.00%" in text

    def test_empty_population_is_vacuously_complete(self):
        total, frac = aggregate_outcomes(
            [StreamOutcome(0, 1, receivers=0, deliveries=0, delivered_fraction=1.0)],
            messages=5,
        )
        assert total == 0 and frac == 1.0


class TestMergeJson:
    def test_merge_preserves_disjoint_keys(self, tmp_path):
        path = tmp_path / "bench.json"
        merge_json(path, {"a": 1})
        merge_json(path, {"b": {"x": 2}})
        data = json.loads(path.read_text())
        assert data == {"a": 1, "b": {"x": 2}}

    def test_merge_overwrites_same_key(self, tmp_path):
        path = tmp_path / "bench.json"
        merge_json(path, {"a": 1})
        data = merge_json(path, {"a": 3})
        assert data["a"] == 3

    def test_merge_replaces_corrupt_or_non_object_files(self, tmp_path):
        # A truncated file from an interrupted run must not cost the
        # finished run its results.
        path = tmp_path / "bench.json"
        path.write_text('{"a": 1,')  # truncated
        assert merge_json(path, {"b": 2}) == {"b": 2}
        path.write_text("[1, 2, 3]")  # not an object
        assert merge_json(path, {"b": 2}) == {"b": 2}
        assert json.loads(path.read_text()) == {"b": 2}


class TestMultiStreamFlood:
    def test_multistream_run_accounts_per_stream(self):
        result = run_spec(RunSpec(nodes=96, messages=4, seed=5, streams=3))
        assert result.streams == 3
        assert len(result.per_stream) == 3
        assert {row["stream"] for row in result.per_stream} == {0, 1, 2}
        assert len({row["source"] for row in result.per_stream}) == 3
        for row in result.per_stream:
            assert row["receivers"] == 95  # everyone but the stream's source
            assert row["delivered_fraction"] == 1.0
        assert result.delivered_fraction == 1.0
        assert result.deliveries == 3 * 95 * 4
        assert "per-stream delivery" in result.summary()

    def test_kernels_match_on_multistream(self):
        a = run_spec(RunSpec(nodes=96, messages=4, seed=5, streams=3, kernel="object"))
        b = run_spec(RunSpec(nodes=96, messages=4, seed=5, streams=3, kernel="slotted"))
        assert a.per_stream == b.per_stream
        assert a.receptions == b.receptions
        assert a.events == b.events

    def test_single_stream_shape_unchanged(self):
        result = run_spec(RunSpec(nodes=64, messages=5, seed=4))
        assert result.streams == 1
        assert result.per_stream[0]["receivers"] == 63
        assert result.survivors == 63
        assert result.delivered_fraction == 1.0

    def test_too_many_streams_rejected(self):
        with pytest.raises(ValueError, match="--streams"):
            run_spec(RunSpec(nodes=16, messages=2, streams=17))
        with pytest.raises(ValueError, match="--streams"):
            run_spec(RunSpec(nodes=16, messages=2, streams=0))
        # An open population is the rung's: tiny has 32 nodes.
        with pytest.raises(ValueError, match=re.escape("--streams must be in [1, 32]")):
            run_spec(RunSpec(size="tiny", messages=2, streams=33))

    def test_degenerate_workloads_fail_fast(self, monkeypatch):
        """Every rejection comes from ``RunSpec.validate``, in its flag's
        words, before anything is spawned: at xxl the build alone costs
        minutes.  Spawning raises here, so a check that runs only once
        the population exists fails the test."""
        def tripwire(*args, **kwargs):
            raise AssertionError("spawned before the spec was rejected")

        monkeypatch.setattr(Network, "spawn_many", tripwire)
        monkeypatch.setattr(Network, "spawn", tripwire)
        for stack, changes, flag in _degenerate_specs():
            spec = RunSpec(stack=stack, size="small", nodes=16, messages=2)
            with pytest.raises(ValueError, match=re.escape(flag)):
                run_spec(replace(spec, **changes))


class TestMultiStreamBrisa:
    def test_multistream_emerges_independent_structures(self):
        result = run_spec(RunSpec(
            stack="brisa", nodes=128, messages=6, rate=10.0, seed=5, streams=4
        ))
        assert result.streams == 4
        assert result.structure_complete, result.structure_reason
        assert result.delivered_fraction == 1.0
        assert len(result.per_stream) == 4
        for row in result.per_stream:
            assert row["structure_complete"], row["structure_reason"]
            assert row["delivered_fraction"] == 1.0
        rs = result.relay_spread
        assert rs is not None
        assert rs["streams"] == 4
        assert rs["distinct_sets"] is True
        assert rs["interior_all"] <= min(rs["interior_per_stream"].values())
        assert rs["interior_any"] <= rs["population"]
        assert rs["fan_in_max"] >= 1
        assert "relay-load spread" in result.summary()

    def test_single_stream_has_no_relay_report(self):
        result = run_spec(RunSpec(stack="brisa", nodes=64, messages=3, rate=10.0, seed=4))
        assert result.streams == 1
        assert result.relay_spread is None
        assert result.structure_complete


#: ScaleResult fields that read the wall clock; every other field is a
#: function of the spec.
TIMINGS = {
    "wall_time", "bootstrap_wall", "events_per_sec", "deliveries_per_sec",
    "receptions_per_sec",
}


def deterministic(result: ScaleResult) -> dict:
    return {k: v for k, v in result.to_dict().items() if k not in TIMINGS}


class TestLossyPull:
    def test_lossy_pull_is_deterministic_and_its_spec_pickles(self):
        """Pull recovery under loss, through the one entry point: a seed
        fixes the run, and a spec that crossed a process boundary (a
        pickle round trip) runs to the same result."""
        spec = RunSpec(
            stack="pull", size="small", nodes=256, messages=10, seed=3,
            loss_percent=5.0,
        )
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        first, again, unpickled = run_spec(spec), run_spec(spec), run_spec(copy)
        assert deterministic(first) == deterministic(again) == deterministic(unpickled)
        assert first.dropped_loss > 0
        assert first.receptions >= first.deliveries > 0
        assert first.loss_percent == 5.0 and first.kernel == "object"


class TestRelayLoadSpread:
    def test_relay_spread_on_synthetic_structures(self):
        class FakeNode:
            def __init__(self, node_id, parents_by_stream):
                self.node_id = node_id
                self.alive = True
                self.streams = {
                    s: type("S", (), {"parents": p})()
                    for s, p in parents_by_stream.items()
                }

        # Stream 0: 0 -> 1 -> 2; stream 1: 2 -> 1 -> 0 (reversed chain).
        nodes = [
            FakeNode(0, {0: [], 1: [1]}),
            FakeNode(1, {0: [0], 1: [2]}),
            FakeNode(2, {0: [1], 1: []}),
        ]
        rs = relay_load_spread(nodes, [0, 1])
        assert rs.interior_per_stream == {0: 2, 1: 2}
        assert rs.interior_any == 3  # 0 and 2 relay once, 1 relays twice
        assert rs.interior_all == 1  # only node 1 is interior in both
        assert rs.distinct_sets is True
        assert rs.fan_in_max == 2
        assert rs.fan_in_mean == pytest.approx(4 / 3)
        assert rs.children_max == 2
        assert "sets differ: yes" in rs.summary()

    def test_identical_sets_not_distinct(self):
        class FakeNode:
            def __init__(self, node_id, parents_by_stream):
                self.node_id = node_id
                self.alive = True
                self.streams = {
                    s: type("S", (), {"parents": p})()
                    for s, p in parents_by_stream.items()
                }

        nodes = [
            FakeNode(0, {0: [], 1: []}),
            FakeNode(1, {0: [0], 1: [0]}),
        ]
        rs = relay_load_spread(nodes, [0, 1])
        assert rs.distinct_sets is False
        assert rs.interior_any == rs.interior_all == 1


def _degenerate_specs():
    """(stack, RunSpec changes, the flag the rejection names) for every
    stack, over a 16-node small-rung spec."""
    for stack in STACKS:
        for changes, flag in [
            ({"messages": 0}, "--messages"),
            ({"rate": 0.0}, "--rate"),
            ({"rate": math.nan}, "--rate"),
            ({"rate": math.inf}, "--rate"),
            ({"payload_bytes": -1}, "--payload"),
            ({"streams": 0}, "--streams"),
            ({"streams": 17}, "--streams"),
            ({"nodes": None, "streams": 65}, "--streams must be in [1, 64]"),
            ({"nodes": 0}, "--nodes"),
            ({"nodes": 2}, "--nodes"),
            ({"nodes": None, "size": "bogus"}, "unknown scale"),
            ({"kernel": "bogus"}, "--kernel bogus"),
            ({"degree": 1}, "--degree must be >= 2"),
            ({"topology": "smallworld", "degree": 3}, "--degree >= 4"),
            ({"topology": "smallworld", "degree": 4, "nodes": 4},
             "--topology smallworld needs more than --degree 4 nodes"),
            ({"topology": "torus"}, "unknown topology 'torus'"),
            ({"loss_percent": 100.0}, "--loss"),
            ({"loss_percent": math.nan}, "--loss"),
        ]:
            yield stack, changes, flag
    yield "flood", {"churn_percent": 100.0}, "--churn"
    yield "flood", {"churn_percent": -1.0}, "--churn"
    yield "brisa", {"bootstrap": "simulated", "degree": 5}, "--degree"
    yield "brisa", {"bootstrap": "simulated", "topology": "powerlaw"}, "--topology"
    yield "brisa", {"bootstrap": "overlay.json", "degree": 9}, "--degree"


#: A set value for every stack-only knob of the table (a knob the table
#: gains without one fails collection with a KeyError).
KNOB_VALUES = {"mode": "dag", "bootstrap": "simulated", "churn_percent": 1.0}


def _specs_the_table_rejects():
    """Foreign knobs and kernels of every row, and the --payload and
    --rate values no stack runs."""
    every_kernel = {k for row in STACKS.values() for k in row.kernels}
    for stack, row in STACKS.items():
        for owner, other in STACKS.items():
            for knob, flag in other.knobs.items():
                if owner != stack:
                    yield stack, knob, KNOB_VALUES[knob], (
                        f"{flag} applies to the {owner} stack only "
                        f"(run it with --stack {owner})"
                    )
        for kernel in sorted(every_kernel - set(row.kernels)):
            yield stack, "kernel", kernel, (
                f"--kernel {kernel} is not available on the {stack} stack"
            )
        yield stack, "payload_bytes", -1, "--payload must be >= 0"
        for rate in (math.nan, math.inf):
            yield stack, "rate", rate, "--rate must be a positive, finite rate"


class TestStackTable:
    @pytest.mark.parametrize("stack,field,value,message", _specs_the_table_rejects())
    def test_foreign_knobs_and_kernels_are_rejected(self, stack, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunSpec(stack=stack, nodes=64, **{field: value}).validate()

    def test_unknown_stack_names_the_known_ones(self):
        with pytest.raises(ValueError, match="known: brisa, flood, pull"):
            RunSpec(stack="plumtree").validate()

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_run_spec_forwards_own_knobs_and_returns_what_the_gates_read(self, stack):
        from bench.workloads import _scale_outcome
        from benchmarks.compare_bench import GATED_METRICS

        row = STACKS[stack]
        own = {knob: KNOB_VALUES[knob] for knob in row.knobs}
        result = run_spec(RunSpec(
            stack=stack, size="small", nodes=64, messages=3, seed=2,
            kernel=row.kernels[-1], **own,
        ))
        assert isinstance(result, ScaleResult)
        assert result.nodes == 64 and result.kernel == row.kernels[-1]
        assert result.degree == row.default_degree
        # Every stack times its build: the report splits build from drain.
        assert result.bootstrap_wall > 0
        assert f"bootstrap: {result.bootstrap_wall:.2f} s wall" in result.summary()
        for knob, value in own.items():
            assert getattr(result, knob) == value
        gated = {
            dotted.split(".")[1]
            for rows in GATED_METRICS.values()
            for dotted, _ in rows
            if dotted.startswith("scale_run.")
        }
        assert gated <= set(result.to_dict())
        outcome = _scale_outcome(result, 3)
        assert outcome["receptions"] == result.receptions >= result.deliveries > 0
        assert outcome["events"] == result.events
        assert outcome["structures"] == (1 if stack == "brisa" else 0)
