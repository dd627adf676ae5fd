"""Live multi-process UDP runner (DESIGN.md §13).

The smokes here are deliberately small — 16 nodes over 2 worker OS
processes — so they run on every push; the CI live-smoke job drives the
64-node ``repro live --size small`` configuration.  What they pin is the
whole seam stack at once: checkpoint bootstrap, wire codec, asyncio
clock/transport, coordinator handshake, quiescence detection, and the
cross-check against the same-seed simulated leg.  The row assembly the
cross-check rests on is pinned without processes, from a simulated run.
"""

import json
import os
import pathlib
import tempfile
from dataclasses import replace

import pytest

from repro.experiments import scale_brisa
from repro.experiments.bootstrap import CHECKPOINT_FORMAT, synthesize_checkpoint
from repro.experiments.live_runner import (
    LiveOutcome,
    _partition,
    live_stream_outcomes,
    node_report,
    run_live,
)
from repro.experiments.scale_runner import RunSpec, StreamOutcome, run_spec


def live_spec(**kwargs) -> RunSpec:
    return RunSpec(**{"stack": "brisa", "payload_bytes": 256, **kwargs})


@pytest.mark.live
def test_live_smoke_two_workers(tmp_path):
    """16 nodes across 2 OS processes over real UDP: full delivery, a
    complete/acyclic tree, clean worker shutdown, and live/sim agreement."""
    out = tmp_path / "live.json"
    outcome = run_live(
        live_spec(nodes=16, messages=3), workers=2, timeout=30.0, json_path=str(out)
    )

    assert outcome.clean_shutdown, "workers had to be terminated"
    assert outcome.delivered_fraction == 1.0
    assert outcome.all_structures_ok
    assert outcome.cross_check_ok is True
    assert outcome.rx_errors == 0
    # Real cross-process traffic happened: a 16-node dissemination plus
    # overlay control plane far exceeds the node count in packets.
    assert outcome.rx_packets > outcome.nodes == 16

    data = json.loads(out.read_text())["live_run"]
    assert data["harness"] == "live-udp"
    assert data["delivered_fraction"] == 1.0
    assert data["clean_shutdown"] is True
    assert data["cross_check_ok"] is True


@pytest.mark.live
def test_live_multistream_three_workers():
    """Two concurrent streams across three workers emerge two complete
    per-stream structures (§IV) over the same live overlay."""
    outcome = run_live(
        live_spec(nodes=12, messages=2, streams=2), workers=3, timeout=30.0
    )
    assert outcome.clean_shutdown
    assert outcome.delivered_fraction == 1.0
    assert len(outcome.rows) == 2
    assert outcome.all_structures_ok
    assert outcome.cross_check_ok is True


@pytest.mark.live
def test_json_merge_keeps_other_runs(tmp_path):
    """``--json`` merge-writes, as its help promises: another run's
    entry in the file survives a live run."""
    out = tmp_path / "runs.json"
    out.write_text(json.dumps({"scale_run": {"nodes": 7}}))
    run_live(live_spec(nodes=6, messages=1), workers=1, cross_check=False,
             json_path=str(out))
    data = json.loads(out.read_text())
    assert data["scale_run"] == {"nodes": 7}
    assert data["live_run"]["delivered_fraction"] == 1.0


@pytest.mark.live
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_run_leaves_no_descriptor_or_checkpoint(tmp_path, monkeypatch):
    """A synthesized checkpoint lives only as long as its run: no open
    descriptor and no file outlive ``run_live``."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    fds = len(os.listdir("/proc/self/fd"))
    outcome = run_live(live_spec(nodes=8, messages=2), workers=1, cross_check=False)
    assert outcome.delivered_fraction == 1.0
    assert len(os.listdir("/proc/self/fd")) == fds
    assert list(scratch.iterdir()) == []
    assert outcome.spec.bootstrap is None


def test_reports_of_a_sim_run_give_its_rows(tmp_path, monkeypatch):
    """The coordinator's assembly, fed worker reports of a same-seed
    simulated run, yields that run's ``per_stream`` rows; a lost report
    counts its nodes undelivered and unattached, never as absent."""
    nodes, streams, messages = 24, 2, 3
    captured = []

    def capture(sources, alive, messages):
        captured.extend(alive)
        return brisa_stream_outcomes(sources, alive, messages)

    brisa_stream_outcomes = scale_brisa.brisa_stream_outcomes
    monkeypatch.setattr(scale_brisa, "brisa_stream_outcomes", capture)
    checkpoint = synthesize_checkpoint(nodes, tmp_path / "ck.json", seed=5)
    spec = live_spec(nodes=nodes, messages=messages, streams=streams, seed=5)
    sim = run_spec(replace(spec, bootstrap=str(checkpoint)))
    assert sim.delivered_fraction == 1.0 and sim.structure_complete

    by_id = {node.node_id: node for node in captured}
    reports = [
        node_report([by_id[i] for i in block], streams)
        for block in _partition(nodes, 3)
    ]
    rows = live_stream_outcomes(json.loads(json.dumps(reports)), nodes, streams, messages)
    assert [row.to_dict() for row in rows] == sim.per_stream

    dropped = live_stream_outcomes(reports[1:], nodes, streams, messages)
    for row in dropped:
        assert row.receivers == nodes - 1
        assert row.delivered_fraction < 1.0
        assert row.structure_complete is False


def test_cross_check_ignores_only_the_reason_text():
    """The legs agree when their rows match in every field but
    ``structure_reason``: a live tree's shape follows real timing."""
    row = StreamOutcome(0, 0, receivers=9, deliveries=18, delivered_fraction=1.0,
                        structure_complete=True, structure_reason="ok")

    def cross_check(sim_rows):
        return LiveOutcome(
            spec=live_spec(nodes=10, messages=2), nodes=10, workers=1, rows=[row],
            sim_rows=sim_rows, rx_packets=0, tx_packets=0, rx_errors=0,
            elapsed=0.0, clean_shutdown=True,
        ).cross_check_ok

    assert cross_check(None) is None
    assert cross_check([replace(row, structure_reason="another shape")]) is True
    assert cross_check([replace(row, deliveries=17)]) is False
    assert cross_check([replace(row, receivers=10)]) is False


def test_synthesized_checkpoint_shape(tmp_path):
    path = synthesize_checkpoint(24, tmp_path / "ck.json", seed=7)
    data = json.loads(pathlib.Path(path).read_text())
    assert data["format"] == CHECKPOINT_FORMAT
    assert data["n"] == 24
    assert len(data["nodes"]) == 24
    for row in data["nodes"]:
        assert row["active"], "synthesized overlay must be connected-ready"
        assert row["id"] not in row["active"]


def test_live_spec_validation():
    """What the live leg cannot honour is refused before a process
    starts, in the flag's own words."""
    for kwargs, workers, match in [
        ({"nodes": 16}, 0, "--workers"),
        ({"nodes": 2}, 2, "node per worker"),
        ({"nodes": 16, "messages": 0}, 2, "message"),
        ({"nodes": 16, "stack": "flood"}, 2, "--stack flood"),
        ({"nodes": 16, "kernel": "slotted"}, 2, "--kernel"),
        ({"nodes": 16, "degree": 4}, 2, "--degree"),
        ({"nodes": 16, "topology": "powerlaw"}, 2, "--topology"),
        ({"nodes": 16, "loss_percent": 1.0}, 2, "--loss"),
        ({"nodes": 16, "bootstrap": "simulated"}, 2, "simulated bootstrap"),
    ]:
        with pytest.raises(ValueError, match=match):
            run_live(live_spec(**kwargs), workers=workers)
    with pytest.raises(ValueError, match="--control-host"):
        run_live(live_spec(nodes=16), control_host="")


def test_protocol_modules_are_simulator_free():
    """The runtime-seam guarantee: protocol code talks to Clock and
    MessageTransport only — no direct Simulator/Network attribute access
    and no simulator imports."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    for rel in ("core/brisa.py", "membership/hyparview.py", "membership/cyclon.py"):
        text = (src / rel).read_text()
        for forbidden in (
            "self.network.",
            "self.sim.",
            "from repro.sim.engine",
            "from repro.sim.network",
            "import repro.sim",
        ):
            assert forbidden not in text, f"{rel} uses {forbidden!r}"
