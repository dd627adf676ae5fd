"""Fig. 8 — sample tree shapes, 100 nodes, view 4 vs 8, expansion 1.

The paper shows the two trees visually; we emit DOT files plus shape
summaries and assert the visual takeaways: the view-8 tree is shallower
and bushier than the view-4 tree, and both are spanning trees.
"""

from repro.experiments.report import banner, table
from repro.experiments.scenarios import fig8_tree_shape

from benchmarks.conftest import RUN_DIR


def test_fig08_tree_shape(benchmark, emit):
    result = benchmark.pedantic(
        lambda: fig8_tree_shape(n=100, view_sizes=(4, 8)), rounds=1, iterations=1
    )
    rows = []
    for view in (4, 8):
        s = result.summary[view]
        rows.append(
            [f"view={view}", s["nodes"], s["edges"], s["max_depth"],
             round(s["mean_depth"], 2), s["max_degree"], s["leaves"]]
        )
        (RUN_DIR / f"fig08_tree_view{view}.dot").write_text(result.dot[view])
    text = banner("Fig. 8 — sample tree shapes (100 nodes, expansion factor 1)") + "\n"
    text += table(
        ["config", "nodes", "edges", "max depth", "mean depth", "max degree", "leaves"],
        rows,
    )
    text += "\nDOT exports: benchmarks/run/fig08_tree_view{4,8}.dot"
    emit("fig08_tree_shape", text)

    for view in (4, 8):
        s = result.summary[view]
        assert s["nodes"] == 100
        assert s["edges"] == 99, "must be a spanning tree"
    # The visual takeaway: view 8 is shallower and bushier than view 4.
    assert result.summary[8]["max_depth"] <= result.summary[4]["max_depth"]
    assert result.summary[8]["max_degree"] >= result.summary[4]["max_degree"]
