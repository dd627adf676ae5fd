"""Tests for the cycle predictors (§II-D, §II-G)."""

import pytest

from repro.config import BrisaConfig
from repro.core.cycle import (
    PARENT_CYCLE,
    PARENT_DEMOTE,
    PARENT_OK,
    BloomFilterPredictor,
    DepthLabelPredictor,
    PathEmbeddingPredictor,
    make_predictor,
)
from repro.core.messages import ActivateAck, BloomUpdate, Data, DepthUpdate
from repro.ids import NODE_ID_BYTES


class TestPathEmbedding:
    def setup_method(self):
        self.p = PathEmbeddingPredictor()

    def test_source_position_is_own_path(self):
        assert self.p.source_position(7) == (7,)

    def test_adopt_appends_self(self):
        assert self.p.adopt(3, (0, 1, 2)) == (0, 1, 2, 3)

    def test_candidate_containing_self_ineligible(self):
        # Fig. 4: grey nodes (paths through N) are not eligible parents of N.
        assert not self.p.eligible(5, (9, 5), (1, 5, 2))
        assert self.p.eligible(5, (9, 5), (1, 2, 3))

    def test_none_meta_ineligible(self):
        assert not self.p.eligible(5, None, None)

    def test_fresh_position_still_checks_path(self):
        # Hard-repaired node (position None): eligible unless in the path.
        assert self.p.eligible(5, None, (1, 2))
        assert not self.p.eligible(5, None, (1, 5))

    def test_check_parent_detects_cycle(self):
        assert self.p.check_parent(5, (0, 5), (0, 3, 5)) == PARENT_CYCLE
        assert self.p.check_parent(5, (0, 5), (0, 3)) == PARENT_OK

    def test_exactness_no_false_negatives(self):
        # Any candidate whose path avoids the node is accepted.
        for path in [(0,), (1, 2, 3), tuple(range(100))]:
            assert self.p.eligible(1000, (0, 1000), path)

    def test_message_fields(self):
        assert self.p.message_fields((0, 1)) == {"path": (0, 1), "bloom_bits": 0}

    def test_join_takes_the_newest_parent(self):
        assert self.p.join(3, (0, 3), (0, 1, 2)) == (0, 1, 2, 3)
        assert self.p.join(3, None, (0,)) == (0, 3)

    def test_refresh_re_embeds_the_parent_path(self):
        assert self.p.refresh(3, (0, 3), (0, 1), [(0, 1)]) == (0, 1, 3)

    def test_hops_and_update(self):
        assert self.p.hops((0, 1, 3)) == 2
        # A path change pushes nothing: children re-embed from data.
        assert self.p.update(0, (0, 3), (0, 1, 3)) is None
        assert self.p.relay_bytes == NODE_ID_BYTES


class TestDepthLabels:
    def setup_method(self):
        self.p = DepthLabelPredictor()

    def test_source_depth_zero(self):
        assert self.p.source_position(7) == 0

    def test_adopt_increments(self):
        assert self.p.adopt(3, 4) == 5

    def test_depth_not_greater_than_own_required(self):
        # §II-G: parents may sit at "any depth not greater than i"; an
        # equal-depth adoption demotes the adopter to i+1 afterwards.
        assert self.p.eligible(1, position=3, meta=2)
        assert self.p.eligible(1, position=3, meta=3)
        assert not self.p.eligible(1, position=3, meta=4)

    def test_fresh_node_accepts_anyone(self):
        assert self.p.eligible(1, position=None, meta=17)

    def test_false_negative_possible(self):
        # Fig. 5: a causally-unrelated node that happens to carry a deeper
        # label is rejected — the price of the approximate predictor.
        assert not self.p.eligible(1, position=2, meta=3)

    def test_check_parent_demotes_on_equal_or_deeper(self):
        assert self.p.check_parent(1, position=3, meta=3) == PARENT_DEMOTE
        assert self.p.check_parent(1, position=3, meta=5) == PARENT_DEMOTE
        assert self.p.check_parent(1, position=3, meta=2) == PARENT_OK

    def test_message_fields(self):
        assert self.p.message_fields(4) == {"depth": 4, "bloom_bits": 0}

    def test_join_sits_below_the_deepest_parent(self):
        assert self.p.join(1, None, 2) == 3
        assert self.p.join(1, 5, 2) == 5
        assert self.p.join(1, 3, 3) == 4

    def test_refresh_leaves_the_label(self):
        assert self.p.refresh(1, 4, 2, [2, 3]) == 4

    def test_update_pushes_demotions_only(self):
        assert self.p.hops(4) == 4
        update = self.p.update(0, 3, 4)
        assert isinstance(update, DepthUpdate) and update.depth == 4
        assert self.p.update(0, 4, 3) is None
        assert self.p.update(0, None, 4) is None


class TestBloomFilter:
    def setup_method(self):
        self.p = BloomFilterPredictor(bits=256, hashes=4)

    def test_source_contains_self(self):
        pos = self.p.source_position(9)
        assert self.p.contains(pos, 9)

    def test_adopt_adds_self_to_ancestors(self):
        pos = self.p.source_position(0)
        child = self.p.adopt(1, pos)
        assert self.p.contains(child, 0)
        assert self.p.contains(child, 1)

    def test_descendant_filter_blocks_ancestor(self):
        pos = self.p.source_position(0)
        for nid in range(1, 6):
            pos = self.p.adopt(nid, pos)
        # Node 3 is an ancestor in this chain: ineligible as parent target.
        assert not self.p.eligible(3, None, pos)

    def test_unrelated_candidate_usually_eligible(self):
        pos = self.p.adopt(1, self.p.source_position(0))
        eligible = sum(1 for nid in range(100, 200) if self.p.eligible(nid, None, pos))
        # A few false positives are possible, but the vast majority pass.
        assert eligible >= 95

    def test_small_filter_has_false_positives(self):
        tiny = BloomFilterPredictor(bits=8, hashes=4)
        pos = tiny.source_position(0)
        for nid in range(1, 10):
            pos = tiny.adopt(nid, pos)
        rejected = sum(1 for nid in range(100, 300) if not tiny.eligible(nid, None, pos))
        assert rejected > 50  # saturated filter rejects aggressively

    def test_check_parent_cycle(self):
        pos = self.p.adopt(2, self.p.source_position(0))
        assert self.p.check_parent(2, None, pos) == PARENT_CYCLE

    def test_join_and_refresh_take_the_union(self):
        a = self.p.source_position(0)
        b = self.p.source_position(7)
        joined = self.p.join(1, self.p.adopt(1, a), b)
        assert joined == a | b | self.p.source_position(1)
        assert self.p.refresh(1, self.p.adopt(1, a), a, [a, b]) == joined
        # Parents mid-hard-repair (None) contribute nothing.
        assert self.p.refresh(1, self.p.adopt(1, a), a, [None]) == self.p.adopt(1, a)

    def test_update_pushes_growth_and_no_hops(self):
        pos = self.p.source_position(0)
        update = self.p.update(0, pos, pos | 1)
        assert isinstance(update, BloomUpdate)
        assert (update.bloom, update.bloom_bits) == (pos | 1, 256)
        assert self.p.message_fields(pos) == {"bloom": pos, "bloom_bits": 256}
        assert self.p.update(0, pos, pos) is None
        assert self.p.hops(pos) is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilterPredictor(bits=0)


class TestConsistency:
    """A child is consistent with a parent iff joining the parent's
    position leaves the child's unchanged — the oracle clause of
    ``tests/helpers.py::assert_positions_consistent``."""

    def test_path_is_parent_path_plus_self(self):
        p = PathEmbeddingPredictor()
        assert p.join(5, (0, 1, 5), (0, 1)) == (0, 1, 5)
        assert p.join(5, (0, 2, 5), (0, 1)) != (0, 2, 5)  # stale label
        assert p.join(5, None, (0, 1)) is not None

    def test_depth_is_strictly_below(self):
        p = DepthLabelPredictor()
        assert p.join(1, 3, 2) == 3
        assert p.join(1, 3, 0) == 3
        assert p.join(1, 3, 3) != 3

    def test_bloom_is_a_superset(self):
        p = BloomFilterPredictor(bits=256, hashes=4)
        parent = p.adopt(3, p.source_position(0))
        child = p.adopt(1, parent)
        assert p.join(1, child, parent) == child
        stale = p.adopt(1, p.source_position(0))  # lacks node 3's bits
        assert p.join(1, stale, parent) != stale


class TestFactoryAndMeta:
    def test_make_predictor_dispatch(self):
        assert make_predictor(BrisaConfig()).name == "path"
        assert make_predictor(BrisaConfig(mode="dag", num_parents=2)).name == "depth"
        cfg = BrisaConfig(cycle_predictor="bloom", bloom_bits=128, bloom_hashes=2)
        pred = make_predictor(cfg)
        assert pred.name == "bloom" and pred.bits == 128

    def test_extract_meta_prefers_path(self):
        # Each predictor reads its own field, so the path predictor takes
        # the path even when a depth label rides along.
        msg = Data(0, 1, 10, path=(1, 2))
        assert PathEmbeddingPredictor().meta(msg) == (1, 2)
        both = Data(0, 1, 10, path=(1, 2), depth=3)
        assert PathEmbeddingPredictor().meta(both) == (1, 2)
        assert DepthLabelPredictor().meta(both) == 3

    def test_extract_meta_depth_and_bloom(self):
        assert DepthLabelPredictor().meta(Data(0, 1, 10, depth=3)) == 3
        bloom = BloomFilterPredictor(bits=8)
        assert bloom.meta(Data(0, 1, 10, bloom=0b101, bloom_bits=8)) == 0b101

    def test_meta_of_a_message_without_metadata_is_none(self):
        # A fresh node's ActivateAck carries no position; update messages
        # carry only their own predictor's field.
        assert PathEmbeddingPredictor().meta(ActivateAck(0)) is None
        assert BloomFilterPredictor().meta(DepthUpdate(0, 3)) is None
        assert DepthLabelPredictor().meta(DepthUpdate(0, 3)) == 3

    def test_metadata_size_accounting(self):
        # §II-D: path costs 6 B/hop; depth 4 B; bloom bits/8.
        base = Data(0, 1, 0).size_bytes()
        assert Data(0, 1, 0, path=(1, 2, 3)).size_bytes() == base + 18
        assert Data(0, 1, 0, depth=5).size_bytes() == base + 4
        assert Data(0, 1, 0, bloom=1, bloom_bits=1024).size_bytes() == base + 128
