import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mgmarket import (
    CoefficientOutOfRangeError,
    ConfigError,
    EvenAgentCountError,
    EventModel,
    HomogeneousCoupling,
    ModelConfig,
    UniformCoupling,
    config_digest,
    from_text,
    to_text,
    validate,
)
from mgmarket.config import from_items, parse_items

from conftest import small_config
from test_golden import CASES as GOLDEN_CASES


def test_paper_scale_config_accepted():
    cfg = ModelConfig(
        n_agents=1001, memory=1, n_strategies=2, horizon=1000,
        initial_price=2000.0, a=(1.0, 1.0), coupling=HomogeneousCoupling(0.5, 0.5),
    )
    assert validate(cfg) is cfg


def test_even_agent_count_rejected():
    with pytest.raises(EvenAgentCountError):
        validate(ModelConfig(n_agents=1000))


@pytest.mark.parametrize("a", [(0.0, 1.0), (1.0, 1.5), (-0.2, 0.5)])
def test_persistence_weight_out_of_range(a):
    with pytest.raises(CoefficientOutOfRangeError):
        validate(ModelConfig(a=a))


@pytest.mark.parametrize("a", [(0.5,), (0.5, 0.5, 0.5)], ids=["one", "three"])
def test_persistence_weights_not_two_rejected(a):
    with pytest.raises(ConfigError, match=r"^a must hold two weights \(a1, a2\), got "):
        validate(ModelConfig(a=a))


def test_memory_above_maximum_rejected():
    # by its own check: the strategy-table budget would refuse it too
    with pytest.raises(ConfigError, match="^memory 21 exceeds supported maximum 20$"):
        validate(ModelConfig(memory=21))


def test_negative_delta_rejected():
    with pytest.raises(CoefficientOutOfRangeError):
        validate(ModelConfig(coupling=UniformCoupling(0.0, -0.5, 0.0, 1.0)))


def test_event_probability_bounds():
    with pytest.raises(CoefficientOutOfRangeError):
        validate(ModelConfig(events=EventModel(probability=1.5, strength=1.0)))
    with pytest.raises(CoefficientOutOfRangeError):
        validate(ModelConfig(events=EventModel(probability=0.5, strength=-1.0)))


def test_event_strength_alone_takes_the_paper_probability():
    cfg = from_items({"event_strength": 3.0})
    assert cfg.events == EventModel(probability=0.0082, strength=3.0)
    assert cfg == from_items({"event_probability": 0.0082, "event_strength": 3.0})


def test_unsupported_coupling_spec_rejected():
    with pytest.raises(ConfigError, match=r"^unsupported coupling spec \(0.5, 0.5\)$"):
        validate(ModelConfig(coupling=(0.5, 0.5)))


@pytest.mark.parametrize(
    "field,value,shown",
    [("allow_hold", "no", "allow_hold = 'no'"), ("n_agents", 11.0, "n_agents = 11.0"),
     ("master_seed", 1.5, "master_seed = 1.5"), ("n_agents", True, "n_agents = True"),
     # not a float subclass, and under NEP 50 it would compute in float32
     ("initial_price", np.float32(2000.0), "initial_price = np.float32(2000.0)")],
    ids=["allow-hold-word", "float-agents", "float-seed", "bool-agents", "np-float32-price"],
)
def test_config_whose_text_does_not_read_back_rejected(field, value, shown):
    cfg = ModelConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(shown)} does not read back"):
        validate(cfg)


@pytest.mark.parametrize(
    "field,value,line",
    [("n_agents", np.int64(11), "n_agents = 11"), ("initial_price", 2000, "initial_price = 2000"),
     ("initial_price", np.float64(2000.0), "initial_price = 2000.0"),
     ("master_seed", 2**64 - 1, "master_seed = 18446744073709551615")],
    ids=["np-int64", "int", "np-float64", "largest-seed"],
)
def test_config_whose_text_reads_back_accepted(field, value, line):
    cfg = ModelConfig(**{field: value})
    assert validate(cfg) is cfg
    assert line in to_text(cfg).splitlines()
    assert from_text(to_text(cfg)) == cfg


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two-to-the-64"])
def test_master_seed_outside_64_bits_rejected(seed):
    with pytest.raises(ConfigError, match=rf"^master_seed must lie in \[0, 2\^64\), got {seed}$"):
        validate(ModelConfig(master_seed=seed))


def test_numpy_float64_coupling_has_the_text_and_digest_of_its_float():
    # a b1 taken straight from np.linspace, say
    cfg = ModelConfig(coupling=HomogeneousCoupling(np.float64(0.5), 0.5))
    plain = ModelConfig(coupling=HomogeneousCoupling(0.5, 0.5))
    assert validate(cfg) is cfg
    assert to_text(cfg) == to_text(plain)
    assert config_digest(cfg) == config_digest(plain)


@pytest.mark.parametrize(
    "field,value",
    [("horizon", 0), ("horizon", 1), ("n_strategies", 0), ("memory", 0), ("initial_price", 0.0),
     ("n_runs", 0), ("n_agents", -3)],
)
def test_nonpositive_sizes_rejected(field, value):
    with pytest.raises(ConfigError):
        validate(ModelConfig(**{field: value}))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "key",
    ["initial_price", "b1", "b2", "c1", "delta1", "c2", "delta2", "event_strength"],
)
def test_non_finite_float_rejected(key, value):
    items = {"event_probability": 0.5, key: value}
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got"):
        from_items(items)


@pytest.mark.parametrize(
    "c,delta", [(0.0, 1e308), (1e308, 1e308), (-1e308, 1e308)], ids=["width", "upper", "lower"]
)
def test_uniform_coupling_without_finite_support_rejected(c, delta):
    for coupling in (UniformCoupling(c, delta, 0.0, 1.0), UniformCoupling(0.0, 1.0, c, delta)):
        with pytest.raises(CoefficientOutOfRangeError, match="has no finite support"):
            validate(ModelConfig(coupling=coupling))


def test_widest_finite_uniform_support_accepted():
    validate(ModelConfig(coupling=UniformCoupling(0.0, 8e307, 0.0, 1.0)))


@pytest.mark.parametrize(
    "key,coupling",
    [("b1", HomogeneousCoupling(1e308, 0.5)), ("b2", HomogeneousCoupling(0.5, -1e306)),
     ("c1", UniformCoupling(-1e306, 0.0, 0.0, 1.0)), ("c2", UniformCoupling(0.0, 1.0, 1e308, 1.0))],
    ids=["b1", "b2", "c1", "c2"],
)
def test_coupling_whose_agent_sum_overflows_rejected(key, coupling):
    # the engine's mean of the n_agents couplings would overflow
    message = f"^{key}=.* summed over 1001 agents overflows"
    with pytest.raises(CoefficientOutOfRangeError, match=message):
        validate(ModelConfig(coupling=coupling))


def test_largest_coupling_with_finite_agent_sum_accepted():
    validate(ModelConfig(coupling=HomogeneousCoupling(1.7e305, -1.7e305)))


def test_round_trip_homogeneous():
    cfg = ModelConfig(coupling=HomogeneousCoupling(0.1 + 0.2, -0.30000000000000004))
    assert from_text(to_text(cfg)) == cfg


def test_round_trip_uniform_with_events():
    cfg = ModelConfig(
        coupling=UniformCoupling(0.4, 0.2, -0.3, 1.0),
        events=EventModel(probability=0.0082, strength=3.0),
        allow_hold=True,
    )
    assert from_text(to_text(cfg)) == cfg


def test_text_of_uniform_config_with_events_and_holds():
    cfg = ModelConfig(
        n_agents=101, a=(1.0, 0.3), coupling=UniformCoupling(0.4, 0.2, -0.3, 1.0),
        allow_hold=True, events=EventModel(probability=0.0082, strength=3.0),
    )
    assert to_text(cfg) == (
        "n_agents = 101\nmemory = 1\nn_strategies = 2\nhorizon = 1000\n"
        "initial_price = 2000.0\na1 = 1.0\na2 = 0.3\n"
        "coupling = uniform\nc1 = 0.4\ndelta1 = 0.2\nc2 = -0.3\ndelta2 = 1.0\n"
        "allow_hold = true\nevent_probability = 0.0082\nevent_strength = 3.0\n"
        "n_runs = 50\nmaster_seed = 20170918\n"
    )


@given(
    b1=st.floats(-2, 2, allow_nan=False),
    b2=st.floats(-2, 2, allow_nan=False),
    price=st.floats(1e-3, 1e6, allow_nan=False),
    seed=st.integers(0, 2**63 - 1),
)
def test_round_trip_is_bit_exact(b1, b2, price, seed):
    cfg = ModelConfig(
        coupling=HomogeneousCoupling(b1, b2), initial_price=price, master_seed=seed
    )
    again = from_text(to_text(cfg))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_items("n_agents = 11\nbogus = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_items("memory = 1\nmemory = 2\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("n_agents = 1.5\n", "line 1: n_agents must be an integer, got '1.5'"),
        ("memory = 1\nb1 = abc\n", "line 2: b1 must be a number, got 'abc'"),
        ("n_agents 11\n", "line 1: expected 'key = value', got 'n_agents 11'"),
        ("allow_hold = maybe\n", "line 1: allow_hold must be true or false"),
        ("coupling = normal\n", "line 1: coupling must be homogeneous or uniform"),
    ],
)
def test_malformed_value_is_config_error(text, message):
    with pytest.raises(ConfigError) as err:
        parse_items(text)
    assert str(err.value) == message


def test_unused_key_rejected():
    with pytest.raises(ConfigError, match=r"^unused keys \['foo'\]$"):
        from_items({"foo": 1})


def test_comments_and_blank_lines_ignored():
    items = parse_items("# header\n\nn_agents = 11  # inline\n")
    assert items == {"n_agents": 11}


def test_mixed_coupling_keys_rejected():
    with pytest.raises(ConfigError):
        from_items({"b1": 0.5, "c1": 0.2})


def test_uniform_keys_with_homogeneous_kind_rejected():
    with pytest.raises(ConfigError):
        from_items({"coupling": "homogeneous", "delta1": 1.0})


def test_strategy_tables_over_memory_budget_rejected_without_allocating():
    # memory = 20 at paper scale asks for an int64 draw of
    # 8 * 1001 * 2 * 2^21 bytes (about 33.6 GB) per stock
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="33587986432-byte draw"):
            validate(ModelConfig(memory=20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_memory_budget_is_inclusive():
    # 8 bytes * 1 agent * 128 slots * 2^20 rows is exactly 1 GiB
    at_limit = ModelConfig(n_agents=1, n_strategies=128, memory=19)
    assert validate(at_limit) is at_limit
    with pytest.raises(ConfigError, match="1082130432-byte draw"):
        validate(ModelConfig(n_agents=1, n_strategies=129, memory=19))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_configs_within_memory_budget(name):
    cfg = small_config(**GOLDEN_CASES[name])
    assert validate(cfg) is cfg


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_agents=1001, horizon=1000, n_runs=4),
        dict(n_agents=1001, horizon=1000, n_runs=1, events=EventModel(0.0082, 4.0)),
        dict(n_agents=101, horizon=1000, n_runs=3, memory=3, n_strategies=3, allow_hold=True,
             coupling=UniformCoupling(1.0, 1.0, 1.0, 1.0)),
    ],
    ids=["paper_cell", "events_grid", "cli_pipeline"],
)
def test_benchmark_configs_within_memory_budget(overrides):
    cfg = ModelConfig(**overrides)
    assert validate(cfg) is cfg
