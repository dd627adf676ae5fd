"""Pure BRISA state-transition rules (the engine/protocol seam).

The decisions of Fig. 3 and §II-D–§II-F are *pure* functions of
(predictor, strategy, own position, parent set, incoming metadata) — no
sends, no metrics, no timers.  What remains here:
:func:`provider_action` (Fig. 3's first tier: maintain, prune, ignore,
adopt or contend), :func:`contention_action` (parents full: swap, keep
the live feed or reject), :func:`symmetric_mute` (§II-E's silent mute),
:func:`maintenance_action` (revalidate a parent: skip, drop on a cycle or
a demotion chase, demote, refresh) and :func:`wants_gap_recovery` (the
rate-limited §II-F gap trigger).  What a *position* means — combining
parents, refreshing, hop counts, the update a change pushes — belongs to
the predictor (:mod:`repro.core.cycle`).  Every kernel applies the same
table:

- :class:`repro.core.brisa.BrisaNode` (the reference object kernel, run
  by the simulator and by the asyncio UDP backend of
  :mod:`repro.runtime`) threads the verdicts through its side effects;
- :class:`repro.core.brisa_slotted.SlottedBrisaKernel` uses them to
  prove its array fast path sound: a reception whose inputs match the
  last maintenance decision *by object identity* must produce the same
  verdict, so the whole maintenance step can be skipped (see
  DESIGN.md §11).

Verdict values are interned module-level strings, so callers may compare
with ``is``.
"""

from __future__ import annotations

from typing import Any

from repro.core.cycle import PARENT_CYCLE, PARENT_DEMOTE, CyclePredictor

# -- provider_action verdicts (Fig. 3, first tier) ----------------------
#: ``src`` is already a parent: revalidate it (maintenance_action).
MAINTAIN = "maintain"
#: Ineligible provider and we have parents: deactivate the link.
PRUNE = "prune"
#: Ineligible provider but zero parents: keep the link as fallback flow.
IGNORE = "ignore"
#: Eligible and the parent set has room: adopt.
ADOPT = "adopt"
#: Eligible but parents are full: run the contention rule.
CONTEND = "contend"

# -- contention_action verdicts (Fig. 3, parents full) ------------------
#: Newcomer beats the worst incumbent: swap them.
SWAP = "swap"
#: First reception from a non-parent: keep the live feed (§II-F).
KEEP_FEED = "keep-feed"
#: Duplicate from a worse provider: deactivate it.
REJECT = "reject"

# -- maintenance_action verdicts (§II-D / §II-G) ------------------------
#: Parent is mid-hard-repair (meta is None): nothing to check.
PARENT_SKIP = "skip"
#: Cycle evidence: drop the parent (demote counts untouched).
PARENT_DROP_CYCLE = "drop-cycle"
#: Demotion chase detected: drop the parent and forget its count.
PARENT_DROP_DEMOTED = "drop-demoted"
#: Depth race: move below the parent (demote count incremented).
PARENT_DEMOTE_STEP = "demote"
#: Parent stands: refresh own position from its metadata.
PARENT_REFRESH = "refresh"


def provider_action(
    predictor: CyclePredictor,
    node_id,
    position: Any,
    parents,
    num_parents: int,
    src,
    meta: Any,
) -> str:
    """First tier of the Fig. 3 decision for a message from ``src``."""
    if src in parents:
        return MAINTAIN
    if not predictor.eligible(node_id, position, meta):
        return PRUNE if parents else IGNORE
    if len(parents) < num_parents:
        return ADOPT
    return CONTEND


def contention_action(strategy, newcomer, parents, first: bool):
    """Parents full: (verdict, worst_peer) between newcomer and the
    incumbent ``parents`` (peer -> candidate, never empty).

    ``first`` receptions from non-parents never deactivate (link
    deactivation is a duplicate-triggered decision): the provider is
    ahead of every current parent, so its feed stays live until a parent
    actually resumes service.

    A tree under a strategy that ``supports_symmetric`` (first-come) never
    swaps its only parent.  First-contact records predate repairs, so
    comparing arrivals would send a repaired child back to its old parent,
    which may already have muted it silently (:func:`symmetric_mute`,
    DESIGN.md §7).
    """
    if len(parents) == 1:
        if strategy.supports_symmetric:
            return (KEEP_FEED if first else REJECT), None
        # Tree mode: the sole incumbent is the worst one, unranked.
        (worst,) = parents.values()
    else:
        worst = strategy.worst(list(parents.values()))
    if strategy.prefers(newcomer, worst):
        return SWAP, worst.peer
    if first:
        return KEEP_FEED, None
    return REJECT, None


def symmetric_mute(config, strategy, src_reactivated: bool) -> bool:
    """§II-E symmetric deactivation: may we silently stop relaying to a
    peer that demonstrably received this message before us?  Trees only,
    and never for peers that explicitly re-activated the link (repair
    adoptions are not governed by first-come order).

    The muted peer is never told, so this is sound only if a peer that
    relayed the message to us cannot take us as its parent afterwards:
    :func:`contention_action` keeps a first-come tree child on the parent
    it has, and ``reactivated`` exempts peers that adopted us through an
    explicit ``Activate`` (DESIGN.md §7)."""
    return (
        config.symmetric_deactivation
        and strategy.supports_symmetric
        and config.num_parents == 1
        and not src_reactivated
    )


def maintenance_action(
    predictor: CyclePredictor,
    node_id,
    position: Any,
    meta: Any,
    demote_count: int,
    backflow_open: bool,
    demote_limit: int,
) -> tuple[str, int]:
    """Steady-state revalidation of an existing parent: (verdict, count).

    ``backflow_open`` is whether the parent still accepts our relays
    (``src not in out_deactivated``) — the mutual-adoption tell: a
    legitimate parent deactivates our backflow, so a parent that keeps
    demoting us while consuming our relays is chasing its own depth
    labels around a two-cycle.
    """
    if meta is None:
        return PARENT_SKIP, demote_count
    verdict = predictor.check_parent(node_id, position, meta)
    if verdict == PARENT_CYCLE:
        return PARENT_DROP_CYCLE, demote_count
    if verdict == PARENT_DEMOTE:
        count = demote_count + 1
        suspicious = count >= 2 and backflow_open
        if suspicious or count > demote_limit:
            return PARENT_DROP_DEMOTED, count
        return PARENT_DEMOTE_STEP, count
    return PARENT_REFRESH, demote_count


def wants_gap_recovery(
    seq: int,
    max_contig: int,
    recovered: bool,
    now: float,
    last_request: float,
    cooldown: float,
) -> bool:
    """Sequence-gap recovery trigger (§II-F), rate-limited."""
    return (
        seq > max_contig + 1
        and not recovered
        and now - last_request > cooldown
    )
