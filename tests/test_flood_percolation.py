"""An exact referee for every flood kernel at zero loss.

On a static lossless overlay a flood is fully determined by counting:
the source sends each message to its ``deg(s)`` neighbours, and every
other node, on its first copy, forwards to all neighbours but the one
it heard from.  Every send is a reception, so a message costs
``deg(s) + sum(deg(v) - 1 for v != s) = 2E - (n - 1)`` receptions, E the
registered links.  The kernel parity suites compare kernels with each
other; this one compares each with arithmetic.
"""

import pytest

from repro.experiments.scale_flood import build_static_flood_overlay
from repro.experiments.scale_runner import ScaleRunner, shard_receptions

try:
    import numpy as _np
except ImportError:  # pragma: no cover - CI always installs numpy
    _np = None

N, SEED, MESSAGES = 512, 3, 4


@pytest.mark.parametrize("topology", ["uniform", "powerlaw", "smallworld"])
@pytest.mark.parametrize("kernel", ["object", "slotted", "vectorized"])
def test_lossless_flood_receptions_are_exact(kernel, topology):
    if kernel == "vectorized" and _np is None:
        pytest.skip("the vectorized kernel needs numpy")
    sim, net, nodes = build_static_flood_overlay(
        N, seed=SEED, kernel=kernel, topology=topology
    )
    links = sum(len(peers) for peers in net.links.values())
    assert links % 2 == 0, "every registered link appears in both rows"
    edges = links // 2
    ScaleRunner(sim, net, [nodes[0]], messages=MESSAGES, rate=20.0,
                payload_bytes=64).run()

    receptions = (
        shard_receptions(net.metrics) if kernel == "object" else nodes[0].kernel.receptions
    )
    assert receptions == MESSAGES * (2 * edges - (N - 1))
    assert all(node.delivered_count(0) == MESSAGES for node in nodes[1:])
