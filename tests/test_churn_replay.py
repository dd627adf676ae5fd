"""Joiners stop replaying the stream (DESIGN.md §14, "Recovery horizon").

A node that joins mid-stream never sees the seqs injected before it
arrived.  Its ``max_contig`` used to stay at -1, so every
``GAP_REQUEST_COOLDOWN`` it asked its parent for everything after -1 and
got the parent's whole buffer back, almost all of it duplicates.  The
recovery horizon (``StreamState.note_delivered``) moves the prefix past
what no buffer can still hold: a joiner asks once, for the window its
parent buffers, and its prefix then tracks the stream.

Both beds are the golden Table I churn beds of
``tests/test_schedule_digest.py`` (64 nodes, 125 messages — deeper than
the 64-message buffer).  Before the horizon, each ended with a live
joiner stuck at -1: the tree bed after 17 such requests and 1 126
replayed ``Data``, the DAG bed after 20 and 1 283.
"""

from __future__ import annotations

import collections

import pytest

from repro.core import messages as bm
from repro.core.brisa import BrisaNode
from tests.test_schedule_digest import N, table1_churn_bed


@pytest.mark.parametrize("mode", ["tree", "dag"])
def test_churn_bed_joiners_catch_up_without_a_replay_storm(mode, monkeypatch):
    asked_for_all = collections.Counter()  # node -> have_up_to == -1 requests
    replayed = 0
    send = BrisaNode.send

    def counting_send(self, dst, msg):
        nonlocal replayed
        if isinstance(msg, bm.RetransmitRequest):
            if msg.have_up_to == -1:
                asked_for_all[self.node_id] += 1
        elif isinstance(msg, bm.Data) and msg.recovered:
            replayed += 1
        send(self, dst, msg)

    monkeypatch.setattr(BrisaNode, "send", counting_send)
    bed = table1_churn_bed(mode)

    last = max(bed.metrics.streams[0].injections)
    lagging = {
        node.node_id: state.max_contig
        for node in bed.alive_nodes()
        if (state := node.streams.get(0)) is not None
        and state.engaged
        and not state.is_source
        and state.max_contig != last
    }
    assert not lagging, f"max_contig short of {last}: {lagging}"

    joiners = {node.node_id for node in bed.nodes[N:]}
    assert joiners
    assert set(asked_for_all) <= joiners
    assert max(asked_for_all.values(), default=0) <= 1
    repairs = len(bed.metrics.repair_events)
    buffer_size = bed.nodes[0].config.buffer_size
    assert replayed <= (len(joiners) + repairs) * buffer_size
