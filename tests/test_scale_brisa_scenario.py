"""Tests for the large-scale BRISA scenario (small populations here;
the 2k/10k runs live in benchmarks/test_scale_brisa.py)."""

import pytest

from repro.experiments.scale_brisa import run_scale_brisa


class TestRunScaleBrisa:
    def test_full_delivery_and_structure_on_small_population(self):
        result = run_scale_brisa(96, 10, seed=6)
        assert result.delivered_fraction == 1.0
        assert result.structure_complete, result.structure_reason
        assert result.deliveries == 95 * 10
        assert result.bootstrap == "synthesized"
        assert result.bootstrap_wall > 0
        assert result.events > 0
        assert result.wall_time > 0

    def test_dag_mode(self):
        result = run_scale_brisa(64, 8, mode="dag", seed=7)
        assert result.mode == "dag"
        assert result.delivered_fraction == 1.0
        assert result.structure_complete, result.structure_reason

    def test_simulated_bootstrap_also_works(self):
        result = run_scale_brisa(
            48, 5, seed=8, bootstrap="simulated", join_spacing=0.05, settle=10.0
        )
        assert result.bootstrap == "simulated"
        assert result.delivered_fraction == 1.0
        assert result.structure_complete, result.structure_reason

    def test_result_serializes_for_bench_json(self):
        result = run_scale_brisa(48, 3, seed=9)
        d = result.to_dict()
        for key in (
            "nodes", "messages", "bootstrap", "bootstrap_wall",
            "delivered_fraction", "structure_complete", "duplicates_per_node",
            "events_per_sec", "deliveries_per_sec",
        ):
            assert key in d
        assert "delivered: 100.00%" in result.summary()
        assert "complete/acyclic" in result.summary()

    def test_deterministic_for_fixed_seed(self):
        a = run_scale_brisa(48, 4, seed=10)
        b = run_scale_brisa(48, 4, seed=10)
        assert a.events == b.events
        assert a.deliveries == b.deliveries
        assert a.sim_time == b.sim_time

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            run_scale_brisa(64, 0)
        with pytest.raises(ValueError):
            run_scale_brisa(64, 5, rate=0.0)
        with pytest.raises(ValueError):
            run_scale_brisa(64, 5, kernel="vectorized")

    @pytest.mark.parametrize("bootstrap", ["synthesized", "simulated"])
    def test_slotted_kernel_matches_object_outcome(self, bootstrap):
        """The kernel switch is a pure throughput lever (DESIGN.md §11):
        the slotted run reports the identical deterministic outcome,
        over a synthesized overlay and over the simulated join ramp,
        which fills the views one ``neighbor_up`` at a time (``settle``
        only applies to the ramp)."""
        results = {
            kernel: run_scale_brisa(
                96, 6, seed=6, streams=2, kernel=kernel,
                bootstrap=bootstrap, settle=10.0,
            )
            for kernel in ("object", "slotted")
        }
        a, b = results["object"], results["slotted"]
        assert b.kernel == "slotted" and "slotted kernel" in b.summary()
        for field in (
            "deliveries", "delivered_fraction", "receptions", "events",
            "sim_time", "duplicates_per_node", "structure_complete",
            "per_stream", "relay_spread",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert b.delivered_fraction == 1.0
        assert b.structure_complete, b.structure_reason


class TestTailProbeRecovery:
    """Lossy links expose §II-F's blind spot: gap recovery needs a later
    seq to arrive, so a lost *final* message orphans its whole subtree
    silently.  The quiescence tail probe (BrisaConfig.tail_probe, on by
    default for lossy runs) closes it."""

    def test_tail_probe_recovers_tail_losses(self):
        """Same seed, same losses: without the probe, orphaned subtrees
        never learn what they missed; with it, they recover.  Complete
        delivery is *not* the claim — the probe has blind spots of its
        own (ROADMAP 1(e)): 31 of seeds 1–40 stay below 1.0 with it (worst
        0.9882, seed 36) — but it beats the blind run on every one."""
        from repro.config import BrisaConfig

        for seed in (3, 11, 36):
            blind = run_scale_brisa(
                128, 8, seed=seed, loss_percent=10.0,
                config=BrisaConfig(mode="tree", tail_probe=False),
            )
            probed = run_scale_brisa(128, 8, seed=seed, loss_percent=10.0)
            assert blind.dropped_loss > 0, seed
            assert blind.delivered_fraction < 1.0, seed
            assert probed.delivered_fraction > blind.delivered_fraction, seed

    def test_lossless_runs_skip_the_probe(self):
        """No loss -> no probe traffic: the lossless event count is
        byte-identical to what it was before the probe existed."""
        plain = run_scale_brisa(96, 6, seed=6)
        assert plain.delivered_fraction == 1.0
        assert plain.dropped_loss == 0
