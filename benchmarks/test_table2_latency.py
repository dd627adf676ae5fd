"""Table II — dissemination latency for 1 KB streams, four protocols.

Paper: SimpleTree 100.025 s (the 500-message stream spans 99.8 s, so the
ideal span is ~100 s), BRISA +6%, SimpleGossip +28%, TAG +100% (the pull
period + bounded batch cannot sustain the injection rate, so the backlog
drains after injection stops).
"""


def test_table2_latency(artifact):
    result = artifact("table2")

    lat = result.latency
    # SimpleTree sits at the ideal span.
    assert lat["SimpleTree"] <= result.ideal * 1.1
    # BRISA within a few percent of SimpleTree (paper: +6%).
    assert lat["BRISA"] <= lat["SimpleTree"] * 1.15
    # SimpleGossip pays the anti-entropy recovery tail (paper: +28%).
    assert lat["SimpleGossip"] >= lat["BRISA"]
    # TAG's pull throttling roughly doubles the span (paper: +100%).
    assert lat["TAG"] >= lat["SimpleTree"] * 1.5
    # Everything was actually delivered.
    for proto, frac in result.delivered.items():
        assert frac > 0.999, (proto, frac)
