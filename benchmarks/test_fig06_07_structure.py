"""Figs. 6 & 7 — depth and degree distributions of emerged structures.

One scenario run produces both figures (they inspect the same stabilized
structures); the Fig. 6 bench times the emergence, the Fig. 7 bench the
degree analysis over the cached result.

Paper anchors: larger views build shallower trees; DAG depth (longest
path) exceeds tree depth; DAGs leave fewer leaves (more nodes relay);
curves are steep — structures stay balanced, no chain degeneration.
"""


def test_fig06_depth(artifact):
    dists = artifact("fig6")

    # Larger views allow more children -> shallower trees.
    assert (
        dists.depth["tree, view=8"].mean <= dists.depth["tree, view=4"].mean + 0.25
    )
    # DAG depth measures the longest path: at least the tree's depth.
    assert (
        dists.depth["DAG 2 parents, view=4"].max
        >= dists.depth["tree, view=4"].max - 1
    )
    # Balanced structures: the deepest node sits within a small factor of
    # the mean (no chain degeneration, §III-A).
    for label, cdf in dists.depth.items():
        assert cdf.max <= cdf.mean * 4 + 3, (label, cdf.summary())


def test_fig07_degree(artifact):
    dists = artifact("fig6")

    # DAGs engage a greater share of nodes in relaying (fewer leaves).
    assert dists.degree["DAG 2 parents, view=4"].fraction_at_most(0) <= (
        dists.degree["tree, view=4"].fraction_at_most(0)
    )
    # Degree stays bounded by the expanded view cap.
    assert dists.degree["tree, view=4"].max <= 8 + 1
    assert dists.degree["tree, view=8"].max <= 16 + 1
    # Larger views -> shallower trees -> more leaves (§III-A).
    assert dists.degree["tree, view=8"].fraction_at_most(0) >= (
        dists.degree["tree, view=4"].fraction_at_most(0) - 0.05
    )
