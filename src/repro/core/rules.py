"""Pure BRISA state-transition rules (the engine/protocol seam).

The link-deactivation decision of Fig. 3 and the steady-state parent
revalidation of §II-D/§II-G are *pure* functions of (predictor, strategy,
own position, parent set, incoming metadata).  This module states them
once, free of object plumbing — no sends, no metrics, no timers — so
every kernel applies the same rule table:

- :class:`repro.core.brisa.BrisaNode` (reference object kernel) threads
  the verdicts through its message/metrics side effects;
- :class:`repro.core.brisa_slotted.SlottedBrisaKernel` uses them to
  prove its array fast path sound: a reception whose inputs match the
  last maintenance decision *by object identity* must produce the same
  verdict, so the whole maintenance step can be skipped (see
  DESIGN.md §11);
- a future asyncio backend (ROADMAP) gets the protocol logic without the
  simulator.

Verdict values are interned module-level strings, so callers may compare
with ``is``.
"""

from __future__ import annotations

from typing import Any, Iterable

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
    """
    if len(parents) == 1:
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
    adoptions are not governed by first-come order)."""
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


def merge_position(predictor_name: str, old: Any, new: Any) -> Any:
    """Combine the constraints of multiple parents (DAG depth = max,
    Bloom = union, path = freshest)."""
    if old is None:
        return new
    if predictor_name == "depth":
        return max(old, new)
    if predictor_name == "bloom":
        return old | new
    return new


def hops_from_position(predictor_name: str, position: Any, last_hops) -> int:
    """Distance implied by a position; Bloom filters carry none, so the
    last reception's count stands in."""
    if predictor_name == "path":
        return len(position) - 1
    if predictor_name == "depth":
        return int(position)
    return last_hops if last_hops is not None else 1


def fold_parent_filters(position: Any, parent_metas: Iterable[Any]) -> Any:
    """Union of own Bloom position with every parent's current filter —
    the growth that _broadcast_bloom pushes downstream (§II-G safety)."""
    combined = position
    for parent_meta in parent_metas:
        if parent_meta is None:
            continue
        combined = parent_meta if combined is None else combined | parent_meta
    return combined


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
