"""Fig. 12 — stabilization + dissemination bandwidth, four protocols.

Paper anchors: SimpleTree's management cost is the smallest (one round
trip with the coordinator); BRISA and TAG are comparable, paying a small
PSS/structure overhead over SimpleTree; SimpleGossip is competitive at
tiny payloads but blows up at 10–20 KB because of its duplicate factor.
"""

from repro.experiments.paperdata import FIG12_ORDER_AT_20KB


def test_fig12_bandwidth_comparison(artifact):
    result = artifact("fig12")

    # SimpleTree has the cheapest management (empty payload column).
    assert result.total("SimpleTree", 0) <= result.total("BRISA", 0)
    assert result.total("SimpleTree", 0) <= result.total("TAG", 0)
    # BRISA and TAG are comparable (within ~2x of each other).
    assert result.total("BRISA", 10) < result.total("TAG", 10) * 2.0
    assert result.total("TAG", 10) < result.total("BRISA", 10) * 2.0
    # SimpleGossip's duplicates dominate at large payloads: the paper's
    # ordering at 20 KB has it most expensive by a wide margin.
    totals = {p: result.total(p, 20) for p in result.data}
    ranked = sorted(totals, key=totals.get)
    assert ranked[0] == FIG12_ORDER_AT_20KB[0] == "SimpleTree"
    assert ranked[-1] == FIG12_ORDER_AT_20KB[-1] == "SimpleGossip"
    assert totals["SimpleGossip"] > totals["BRISA"] * 2.0
