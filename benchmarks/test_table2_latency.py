"""Table II — dissemination latency for 1 KB streams, four protocols.

Paper: SimpleTree 100.025 s (the 500-message stream spans 99.8 s, so the
ideal span is ~100 s), BRISA +6%, SimpleGossip +28%, TAG +100% (the pull
period + bounded batch cannot sustain the injection rate, so the backlog
drains after injection stops).
"""

from repro.experiments.paperdata import TABLE2
from repro.experiments.report import banner, overhead_percent, table
from repro.experiments.scenarios import table2_latency


def test_table2_latency(benchmark, scale, emit):
    result = benchmark.pedantic(
        lambda: table2_latency(scale), rounds=1, iterations=1
    )
    rows = []
    for proto in ("SimpleTree", "BRISA", "SimpleGossip", "TAG"):
        paper_lat, paper_over = TABLE2[proto]
        rows.append(
            [
                proto,
                result.latency[proto],
                overhead_percent(result.overhead(proto)),
                f"{result.delivered[proto] * 100:.1f}%",
                paper_lat,
                overhead_percent(paper_over),
            ]
        )
    text = banner(
        f"Table II — dissemination latency (ideal span {result.ideal:.1f}s)"
    ) + "\n" + table(
        ["protocol", "latency (s)", "overhead", "delivered", "paper (s)", "paper overhead"],
        rows,
    )
    emit("table2_latency", text)

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
