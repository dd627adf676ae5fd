"""Figs. 10 & 11 — per-node download/upload percentiles (KB/s).

One scenario run produces both figures.  Paper anchors: trees download
exactly one copy (DAGs about two); upload spreads with the degree
distribution; view-8 configurations pay slightly more PSS overhead; rates
scale with the payload size.
"""


def test_fig10_download(artifact):
    result = artifact("fig10")

    for kb in sorted({kb for _, kb in result.download}):
        tree = result.download[("tree, view=4", kb)]
        dag = result.download[("DAG 2 parents, view=4", kb)]
        # DAGs receive up to one extra copy per message: median download
        # sits clearly above the tree's but below ~2.2x.  At the largest
        # payload the per-node bandwidth share saturates and compresses
        # the gap (hence the softer threshold).
        factor = 1.15 if kb < 100 else 1.05
        assert dag[50] > tree[50] * factor, (kb, tree, dag)
        assert dag[50] < tree[50] * 2.4, (kb, tree, dag)
    # Download grows with payload size.
    assert (
        result.download[("tree, view=4", 100)][50]
        > result.download[("tree, view=4", 1)][50] * 10
    )


def test_fig11_upload(artifact):
    result = artifact("fig10")

    for kb in (10, 100):
        tree = result.upload[("tree, view=4", kb)]
        dag = result.upload[("DAG 2 parents, view=4", kb)]
        # DAGs maintain more links -> more relaying at the upper
        # percentiles (Fig. 11's taller DAG bars).
        assert dag[90] >= tree[90] * 0.9, (kb, tree, dag)
        # The upload spread mirrors the degree distribution: the 90th
        # percentile clearly exceeds the median (leaves upload ~nothing).
        assert tree[90] > tree[50], (kb, tree)
        assert tree[25] <= tree[50]
