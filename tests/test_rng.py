"""Tests for deterministic seed derivation."""

from repro.sim.rng import derive, derive_seed


def test_same_labels_same_stream():
    assert derive(1, "a", 2).random() == derive(1, "a", 2).random()


def test_different_labels_differ():
    seeds = {derive_seed(1, label) for label in ["a", "b", "c", 1, 2, (1, 2)]}
    assert len(seeds) == 6


def test_different_roots_differ():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_label_order_matters():
    assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


def test_no_concatenation_collisions():
    # ("ab",) must differ from ("a", "b") — the separator prevents it.
    assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


def test_seed_is_64_bit():
    s = derive_seed(123, "component")
    assert 0 <= s < 2**64


def test_seeds_are_pinned():
    """The SHA-256 source may change (DESIGN.md §17); the seeds may not."""
    assert derive_seed(1, "x") == 14927992519662226210
    assert derive_seed(7, "node", 3, "BrisaNode") == 9587281011249085191
