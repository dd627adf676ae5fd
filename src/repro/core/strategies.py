"""Parent selection strategies (§II-E plus the §IV perspectives).

A strategy ranks eligible parent candidates; BRISA keeps the best
``num_parents`` of them and deactivates the rest.  Scores are
*lower-is-better* so all strategies reduce to a single comparison rule:

- ``first-come`` — keep whoever delivered first (§II-E #1).  An existing
  parent always beats a newcomer, which is what enables the symmetric
  deactivation optimization.
- ``delay-aware`` — lowest keep-alive-measured RTT wins (§II-E #2).
- ``gerontocratic`` — highest uptime wins (§IV): long-lived nodes are the
  least likely to fail next (Bhagwan et al.'s availability observation).
- ``load-balancing`` — fewest current children wins (§IV): the dual of
  gerontocratic, spreading the relay effort onto fresh nodes.
- ``heterogeneity`` — highest available bandwidth capacity wins (§IV).

The inputs beyond first-arrival order (RTT, uptime, load, capacity) are
piggybacked on HyParView keep-alives in the paper (§II-E, §II-F); the
simulator surfaces them through :class:`Candidate` snapshots built by the
node (``BrisaNode._candidate``), which fetches only the fields the
configured strategy declares in :attr:`ParentSelectionStrategy.inputs`
(``BrisaNode._observe``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.ids import NodeId

#: Relative score improvement a newcomer needs before an existing parent
#: is swapped out — avoids thrashing between near-equal candidates.
SWAP_MARGIN = 0.05


@dataclass
class Candidate:
    """Snapshot of one potential parent at decision time."""

    peer: NodeId
    #: Time the first message from this peer arrived (first-come order).
    arrival: float
    rtt: float = 0.0
    uptime: float = 0.0
    load: int = 0
    capacity: float = 1.0
    #: Smoothed source-to-candidate cumulative delay, observed from the
    #: per-hop timestamps its messages carry (0 when never observed).
    path_delay: float = 0.0


class ParentSelectionStrategy(ABC):
    """Ranks candidates; lower :meth:`score` is better."""

    name: str = ""
    #: Whether the symmetric deactivation optimization of §II-E is sound
    #: for this strategy (only first-come: observing a duplicate from C
    #: proves C already has an earlier-arriving candidate than us).
    supports_symmetric: bool = False
    #: :class:`Candidate` fields, beyond ``peer``/``arrival``/
    #: ``path_delay`` (which the node observes for free), that
    #: :meth:`score` and :meth:`prefers` read.  The node fetches exactly
    #: these from the transport; the rest keep their defaults
    #: (tests/test_strategy_inputs.py holds every strategy to it).
    inputs: frozenset = frozenset()

    @abstractmethod
    def score(self, candidate: Candidate) -> float:
        """Cost of selecting this candidate (lower wins)."""

    def best(self, candidates: list[Candidate]) -> Candidate:
        """The winning candidate (ties broken by arrival, then id)."""
        return min(candidates, key=lambda c: (self.score(c), c.arrival, c.peer))

    def worst(self, candidates: list[Candidate]) -> Candidate:
        return max(candidates, key=lambda c: (self.score(c), c.arrival, c.peer))

    def prefers(self, newcomer: Candidate, incumbent: Candidate) -> bool:
        """Should ``newcomer`` replace ``incumbent`` as a parent?

        Requires a strictly better score beyond :data:`SWAP_MARGIN` so
        structures stabilize (§III-A measures *stabilized* structures).
        """
        new, old = self.score(newcomer), self.score(incumbent)
        margin = abs(old) * SWAP_MARGIN
        return new < old - margin

    def sort(self, candidates: list[Candidate]) -> list[Candidate]:
        return sorted(candidates, key=lambda c: (self.score(c), c.arrival, c.peer))


class FirstComeStrategy(ParentSelectionStrategy):
    """First-come first-picked (§II-E #1)."""

    name = "first-come"
    supports_symmetric = True

    def score(self, candidate: Candidate) -> float:
        return candidate.arrival

    def prefers(self, newcomer: Candidate, incumbent: Candidate) -> bool:
        # A newcomer by definition arrived later: never swap.
        return newcomer.arrival < incumbent.arrival


class DelayAwareStrategy(ParentSelectionStrategy):
    """Lowest delivery delay (§II-E #2).

    The cost of a candidate is the end-to-end delay a message would
    experience through it: the measured source-to-candidate cumulative
    delay (piggybacked per-hop timestamps, smoothed) plus one link
    crossing (half the keep-alive RTT).  Scoring the *neighbour RTT
    alone* degenerates — greedy min-RTT adoption inflates tree depth
    faster than it saves per-link delay (see DESIGN.md §5); the
    end-to-end form reproduces the Fig. 9 behaviour the paper reports.
    """

    name = "delay-aware"
    inputs = frozenset({"rtt"})

    def score(self, candidate: Candidate) -> float:
        return candidate.path_delay + candidate.rtt / 2.0


class GerontocraticStrategy(ParentSelectionStrategy):
    """Highest uptime (§IV perspective i).

    Uptime is a *moving* attribute (every candidate ages at the same
    rate), so swaps need strong hysteresis: without it a bootstrap cohort
    whose uptimes differ by seconds churns parents forever.  A newcomer
    must be meaningfully older (25% + 5 s) to displace an incumbent.
    """

    name = "gerontocratic"
    inputs = frozenset({"uptime"})

    def score(self, candidate: Candidate) -> float:
        return -candidate.uptime

    def prefers(self, newcomer: Candidate, incumbent: Candidate) -> bool:
        return newcomer.uptime > incumbent.uptime * 1.25 + 5.0


class LoadBalancingStrategy(ParentSelectionStrategy):
    """Fewest children (§IV perspective iii).

    Loads are small integers that change with every adoption; swapping on
    a small difference oscillates (the newcomer's load rises the moment
    it is adopted, making the old parent attractive again).  Require a
    three-child advantage so the balancing converges.
    """

    name = "load-balancing"
    inputs = frozenset({"load"})

    def score(self, candidate: Candidate) -> float:
        return float(candidate.load)

    def prefers(self, newcomer: Candidate, incumbent: Candidate) -> bool:
        return newcomer.load < incumbent.load - 2


class HeterogeneityAwareStrategy(ParentSelectionStrategy):
    """Highest available bandwidth (§IV perspective ii)."""

    name = "heterogeneity"
    inputs = frozenset({"capacity"})

    def score(self, candidate: Candidate) -> float:
        return -candidate.capacity

    def prefers(self, newcomer: Candidate, incumbent: Candidate) -> bool:
        return newcomer.capacity > incumbent.capacity * 1.25


_STRATEGIES = {
    cls.name: cls
    for cls in (
        FirstComeStrategy,
        DelayAwareStrategy,
        GerontocraticStrategy,
        LoadBalancingStrategy,
        HeterogeneityAwareStrategy,
    )
}


def make_strategy(name: str) -> ParentSelectionStrategy:
    """Instantiate a registered strategy by name."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {sorted(_STRATEGIES)}"
        ) from None
