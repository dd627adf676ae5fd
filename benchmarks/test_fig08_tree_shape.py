"""Fig. 8 — sample tree shapes, 100 nodes, view 4 vs 8, expansion 1.

The paper shows the two trees visually; we emit DOT files plus shape
summaries and assert the visual takeaways: the view-8 tree is shallower
and bushier than the view-4 tree, and both are spanning trees.
"""


def test_fig08_tree_shape(artifact):
    result = artifact("fig8")

    for view in (4, 8):
        s = result.summary[view]
        assert s["nodes"] == 100
        assert s["edges"] == 99, "must be a spanning tree"
    # The visual takeaway: view 8 is shallower and bushier than view 4.
    assert result.summary[8]["max_depth"] <= result.summary[4]["max_depth"]
    assert result.summary[8]["max_degree"] >= result.summary[4]["max_degree"]
