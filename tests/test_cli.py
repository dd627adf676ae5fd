"""Tests for the command-line interface."""

import json
import re
from types import SimpleNamespace

import pytest

from repro.cli import main, make_parser
from repro.experiments import robustness
from repro.experiments.bootstrap import synthesize_checkpoint
from repro.experiments.scenarios import ARTIFACTS


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ARTIFACTS:
        assert name in out


def test_run_single_experiment(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert main(["run", "fig8"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 8" in out and "max depth" in out


@pytest.mark.parametrize("scale, churn", [("paper", 3.0), ("fast", 6.0)])
def test_run_fig14_churns_at_the_rungs_rate(monkeypatch, scale, churn):
    """`repro run fig14 --scale paper` churns at the paper's 3 %/min;
    the smaller rungs at 6 %.  The testbed builder and the churn run are
    patched, so nothing is simulated."""
    asked = []

    class Asked(Exception):
        pass

    def run_churn(bed, source, *, churn_percent, **timing):
        asked.append(churn_percent)
        raise Asked

    monkeypatch.setattr(
        robustness, "build_brisa_testbed",
        lambda n, **kw: SimpleNamespace(choose_source=lambda: None),
    )
    monkeypatch.setattr(robustness, "_run_churn", run_churn)
    with pytest.raises(Asked):
        main(["run", "fig14", "--scale", scale])
    assert asked == [churn]


def test_run_with_explicit_scale(capsys):
    assert main(["run", "fig2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "view size = 4" in out


def test_quickstart_command(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out


def test_scale_command_runs_and_writes_json(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--nodes", "64", "--messages", "5",
        "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "Scale flood" in printed and "delivered: 100.00%" in printed
    # What the process took is printed, not stored (the JSON is the run).
    assert re.search(r"^peak rss: [\d,]+ MiB$", printed, re.M)
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["nodes"] == 64
    assert data["scale_run"]["delivered_fraction"] == 1.0
    assert set(data) == {"scale_run"}


def test_scale_command_rejects_degenerate_input(capsys):
    assert main(["scale", "--nodes", "64", "--messages", "0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["scale", "--scale", "bogus"]) == 2
    assert "unknown scale" in capsys.readouterr().err
    assert main(["scale", "--nodes", "64", "--rate", "0"]) == 2
    assert "rate" in capsys.readouterr().err
    assert main(["scale", "--nodes", "64", "--churn", "100"]) == 2
    assert "churn" in capsys.readouterr().err


def test_scale_command_slotted_kernel(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--nodes", "64", "--messages", "5", "--kernel", "slotted",
        "--json", str(out),
    ]) == 0
    assert "kernel: slotted" in capsys.readouterr().out
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["kernel"] == "slotted"
    assert data["scale_run"]["delivered_fraction"] == 1.0
    assert data["scale_run"]["receptions"] > data["scale_run"]["deliveries"]


def test_scale_command_churn(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--nodes", "256", "--messages", "5", "--churn", "8",
        "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "churn: 8%" in printed and "survivors" in printed
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["churn_percent"] == 8.0
    assert data["scale_run"]["kills"] > 0
    assert data["scale_run"]["survivors"] < 255


def test_scale_command_multistream_flood(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--nodes", "96", "--messages", "4", "--streams", "3",
        "--kernel", "slotted", "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "3 stream(s)" in printed and "per-stream delivery" in printed
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["streams"] == 3
    assert len(data["scale_run"]["per_stream"]) == 3
    for row in data["scale_run"]["per_stream"]:
        assert row["delivered_fraction"] == 1.0


def test_scale_command_multistream_brisa(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--stack", "brisa", "--nodes", "96", "--messages", "4",
        "--streams", "3", "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "per-stream delivery + structure" in printed
    assert "relay-load spread" in printed
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["streams"] == 3
    assert data["scale_run"]["structure_complete"] is True
    assert data["scale_run"]["relay_spread"]["streams"] == 3


def test_scale_command_rejects_bad_streams(capsys):
    assert main(["scale", "--nodes", "32", "--streams", "0"]) == 2
    assert "streams" in capsys.readouterr().err
    assert main(["scale", "--nodes", "8", "--streams", "9"]) == 2
    assert "spread" in capsys.readouterr().err


def test_scale_churn_rejected_on_brisa_stack(capsys):
    """--kernel works on both stacks since the slotted BRISA kernel
    landed (DESIGN.md §11); --churn stays flood-only."""
    assert main([
        "scale", "--stack", "brisa", "--nodes", "32", "--churn", "5",
    ]) == 2
    assert "flood stack only" in capsys.readouterr().err


def test_scale_command_slotted_brisa_kernel(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--stack", "brisa", "--nodes", "96", "--messages", "4",
        "--streams", "2", "--kernel", "slotted",
        "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "slotted kernel" in printed
    assert "delivered: 100.00%" in printed
    assert "complete/acyclic" in printed
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["kernel"] == "slotted"
    assert data["scale_run"]["structure_complete"] is True
    assert data["scale_run"]["delivered_fraction"] == 1.0
    assert len(data["scale_run"]["per_stream"]) == 2


def test_scale_command_uses_scale_population(capsys):
    assert main(["scale", "--scale", "tiny", "--messages", "3"]) == 0
    printed = capsys.readouterr().out
    assert "nodes: 32" in printed  # tiny.cluster_nodes


def test_scale_command_size_alias(capsys):
    assert main(["scale", "--size", "tiny", "--messages", "3"]) == 0
    printed = capsys.readouterr().out
    assert "nodes: 32" in printed


def test_scale_brisa_stack_runs_and_writes_json(capsys, tmp_path):
    out = tmp_path / "bench.json"
    assert main([
        "scale", "--stack", "brisa", "--nodes", "64", "--messages", "3",
        "--json", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "Scale brisa" in printed
    assert "delivered: 100.00%" in printed
    assert "complete/acyclic" in printed
    import json

    data = json.loads(out.read_text())
    assert data["scale_run"]["nodes"] == 64
    assert data["scale_run"]["structure_complete"] is True
    assert data["scale_run"]["bootstrap"] == "synthesized"


def test_scale_brisa_stack_rejects_bad_checkpoint(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main([
        "scale", "--stack", "brisa", "--nodes", "32", "--messages", "2",
        "--bootstrap", str(missing),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_scale_brisa_flags_rejected_on_flood_stack(capsys):
    assert main(["scale", "--nodes", "32", "--mode", "dag"]) == 2
    assert "--stack brisa" in capsys.readouterr().err
    assert main([
        "scale", "--nodes", "32", "--bootstrap", "simulated",
    ]) == 2
    assert "--stack brisa" in capsys.readouterr().err


@pytest.mark.live
def test_live_command_runs_the_spec_it_was_given(capsys, tmp_path):
    """`repro live` hands its flags to run_live as one RunSpec: the
    payload and the checkpoint ride the spec, and both legs agree."""
    out = tmp_path / "live.json"
    checkpoint = tmp_path / "ck.json"
    synthesize_checkpoint(8, checkpoint, seed=3)
    assert main([
        "live", "--nodes", "8", "--workers", "1", "--messages", "2",
        "--seed", "3", "--payload", "64", "--checkpoint", str(checkpoint),
        "--json", str(out),
    ]) == 0
    assert "cross-check vs same-seed sim: agree" in capsys.readouterr().out
    spec = json.loads(out.read_text())["live_run"]["spec"]
    assert spec["payload_bytes"] == 64
    assert spec["bootstrap"] == str(checkpoint)


def test_live_command_rejects_what_it_cannot_run(capsys):
    assert main(["live", "--nodes", "8", "--workers", "9"]) == 2
    assert "node per worker" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["run", "fig99"])


def test_command_required():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])
