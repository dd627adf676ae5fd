"""Tests for configuration validation."""

import pytest

from repro.config import (
    BrisaConfig,
    CyclonConfig,
    GossipConfig,
    HyParViewConfig,
    SimpleTreeConfig,
    StreamConfig,
    TagConfig,
)
from repro.errors import ConfigError


class TestHyParViewConfig:
    def test_defaults_match_paper(self):
        cfg = HyParViewConfig()
        assert cfg.active_size == 4
        assert cfg.expansion_factor == 2.0
        assert cfg.max_active == 8

    def test_max_active_rounds_up(self):
        assert HyParViewConfig(active_size=3, expansion_factor=1.5).max_active == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"active_size": 0},
            {"expansion_factor": 0.5},
            {"arwl": 2, "prwl": 3},
            {"shuffle_period": 0},
            {"passive_size": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HyParViewConfig(**kwargs)


class TestBrisaConfig:
    def test_tree_defaults(self):
        cfg = BrisaConfig()
        assert cfg.mode == "tree"
        assert cfg.num_parents == 1
        assert cfg.cycle_predictor == "path"

    def test_dag_defaults_to_depth_predictor(self):
        cfg = BrisaConfig(mode="dag", num_parents=2)
        assert cfg.cycle_predictor == "depth"

    def test_dag_with_path_predictor_rejected(self):
        with pytest.raises(ConfigError):
            BrisaConfig(mode="dag", num_parents=2, cycle_predictor="path")

    def test_tree_with_many_parents_rejected(self):
        with pytest.raises(ConfigError):
            BrisaConfig(mode="tree", num_parents=2)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            BrisaConfig(strategy="psychic")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            BrisaConfig(mode="ring")

    def test_bloom_predictor_allowed_for_dag(self):
        cfg = BrisaConfig(mode="dag", num_parents=3, cycle_predictor="bloom")
        assert cfg.cycle_predictor == "bloom"


class TestStreamConfig:
    def test_paper_defaults(self):
        cfg = StreamConfig()
        assert cfg.count == 500 and cfg.rate == 5.0
        assert cfg.duration == pytest.approx(99.8)

    @pytest.mark.parametrize("kwargs", [{"count": 0}, {"rate": 0}, {"payload_bytes": -1}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StreamConfig(**kwargs)


class TestGossipConfig:
    def test_fanout_defaults_to_ln_n(self):
        cfg = GossipConfig()
        assert cfg.effective_fanout(512) == 7  # ceil(ln 512) = ceil(6.24)
        assert cfg.effective_fanout(128) == 5

    def test_explicit_fanout_wins(self):
        assert GossipConfig(fanout=3).effective_fanout(512) == 3

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            GossipConfig(fanout=-1)


class TestOtherConfigs:
    def test_cyclon_validation(self):
        with pytest.raises(ConfigError):
            CyclonConfig(view_size=4, shuffle_length=5)

    def test_simpletree_validation(self):
        with pytest.raises(ConfigError):
            SimpleTreeConfig(max_children=-1)
        assert SimpleTreeConfig().max_children == 0

    def test_tag_validation(self):
        with pytest.raises(ConfigError):
            TagConfig(pull_period=0)
        with pytest.raises(ConfigError):
            TagConfig(max_children=0)
        assert TagConfig().connection_setup_rtts == 1.5
