"""Live multi-process UDP runner (DESIGN.md §13).

The smoke here is deliberately small — 16 nodes over 2 worker OS
processes — so it runs on every push; the CI live-smoke job drives the
64-node ``repro live --size small`` configuration.  What it pins is the
whole seam stack at once: checkpoint bootstrap, wire codec, asyncio
clock/transport, coordinator handshake, quiescence detection, and the
cross-check against the same-seed simulated leg.
"""

import json
import pathlib

import pytest

from repro.experiments.live_runner import (
    LiveSpec,
    live_sources,
    run_live,
    synthesize_checkpoint,
)
from repro.experiments.bootstrap import CHECKPOINT_FORMAT


@pytest.mark.live
def test_live_smoke_two_workers(tmp_path):
    """16 nodes across 2 OS processes over real UDP: full delivery, a
    complete/acyclic tree, clean worker shutdown, and live/sim agreement."""
    out = tmp_path / "live.json"
    spec = LiveSpec(nodes=16, workers=2, messages=3, timeout=30.0)
    outcome = run_live(spec, json_path=str(out))

    assert outcome.clean_shutdown, "workers had to be terminated"
    assert outcome.delivered_fraction == 1.0
    assert outcome.all_structures_ok
    assert outcome.cross_check_ok is True
    assert outcome.rx_errors == 0
    # Real cross-process traffic happened: a 16-node dissemination plus
    # overlay control plane far exceeds the node count in packets.
    assert outcome.rx_packets > spec.nodes

    data = json.loads(out.read_text())
    assert data["harness"] == "live-udp"
    assert data["delivered_fraction"] == 1.0
    assert data["clean_shutdown"] is True
    assert data["cross_check_ok"] is True


@pytest.mark.live
def test_live_multistream_three_workers(tmp_path):
    """Two concurrent streams across three workers emerge two complete
    per-stream structures (§IV) over the same live overlay."""
    spec = LiveSpec(nodes=12, workers=3, messages=2, streams=2, timeout=30.0)
    outcome = run_live(spec)
    assert outcome.clean_shutdown
    assert outcome.delivered_fraction == 1.0
    assert len(outcome.streams) == 2
    assert outcome.all_structures_ok
    assert outcome.cross_check_ok is True


def test_synthesized_checkpoint_shape(tmp_path):
    path = synthesize_checkpoint(24, tmp_path / "ck.json", seed=7)
    data = json.loads(pathlib.Path(path).read_text())
    assert data["format"] == CHECKPOINT_FORMAT
    assert data["n"] == 24
    assert len(data["nodes"]) == 24
    for row in data["nodes"]:
        assert row["active"], "synthesized overlay must be connected-ready"
        assert row["id"] not in row["active"]


def test_live_sources_spread():
    """Same spread rule as the simulator's spread_sources, so the live
    and sim legs inject from identical publishers."""
    assert live_sources(64, 1) == [0]
    assert live_sources(64, 4) == [0, 16, 32, 48]
    assert len(set(live_sources(10, 10))) == 10


def test_live_spec_validation():
    with pytest.raises(ValueError):
        LiveSpec(nodes=16, workers=0)
    with pytest.raises(ValueError):
        LiveSpec(nodes=2, workers=2)
    with pytest.raises(ValueError):
        LiveSpec(nodes=16, workers=2, messages=0)


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
