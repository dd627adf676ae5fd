"""Fig. 2 — CDF of duplicates per node under flooding, view 4/6/8/10.

Paper anchor: with 500 messages on 512 nodes, half of the nodes see more
than 1 duplicate *per message* at view 4 and more than 7 at view 10 (the
figure's x-axis is duplicates per message).
"""


def test_fig02_duplicates(artifact):
    result = artifact("fig2")
    per_message = result.per_message()

    # Shape: duplicates grow monotonically with the view size...
    medians = [per_message[f"view size = {v}"].median for v in sorted(result.by_view)]
    assert all(a <= b * 1.05 for a, b in zip(medians, medians[1:])), medians
    # ...and the view-10 median is several times the view-4 median
    # (paper: >1 at view 4 vs >7 at view 10).
    assert medians[-1] > medians[0] * 1.8
    # Flooding keeps producing duplicates for the typical node (a rare
    # degree-1 node may legitimately see none).
    assert per_message["view size = 4"].mean >= 0.5
