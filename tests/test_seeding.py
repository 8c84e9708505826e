import pytest

from mgmarket import seeding


def test_same_inputs_same_seed():
    assert seeding.derive_seed(42, 0, "strategies:1") == seeding.derive_seed(42, 0, "strategies:1")


def test_run_indices_get_distinct_seeds():
    assert seeding.derive_seed(42, 0, "strategies:1") != seeding.derive_seed(42, 1, "strategies:1")


def test_stream_labels_get_distinct_seeds():
    assert seeding.derive_seed(42, 0, "strategies:1") != seeding.derive_seed(42, 0, "events:1")


def test_per_stock_streams_distinct():
    one = seeding.derive_seed(42, 3, seeding.stock_label(seeding.TIEBREAK, 1))
    two = seeding.derive_seed(42, 3, seeding.stock_label(seeding.TIEBREAK, 2))
    assert one != two


def test_master_seed_changes_everything():
    assert seeding.derive_seed(1, 0, "warmup:1") != seeding.derive_seed(2, 0, "warmup:1")


def test_fold_seed_ignores_negative_zero():
    assert seeding.fold_seed(7, "cell", (0.0, 1.0)) == seeding.fold_seed(7, "cell", (-0.0, 1.0))


def test_fold_seed_distinguishes_values_and_tags():
    assert seeding.fold_seed(7, "cell", (0.1, 0.2)) != seeding.fold_seed(7, "cell", (0.2, 0.1))
    assert seeding.fold_seed(7, "a", (0.1,)) != seeding.fold_seed(7, "b", (0.1,))


def test_streams_produce_independent_draws():
    g1 = seeding.stream(42, 0, "strategies:1")
    g2 = seeding.stream(42, 0, "strategies:2")
    assert g1.integers(0, 2, 32).tolist() != g2.integers(0, 2, 32).tolist()


def test_negative_run_index_rejected():
    with pytest.raises(ValueError, match="^run_index must be non-negative$"):
        seeding.derive_seed(1, -1, "strategies")
