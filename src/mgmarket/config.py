"""Model configuration: parameters, validation, and the flat config-file format.

A :class:`ModelConfig` holds everything a simulation batch needs.  Configs are
immutable; the engine and sweeps copy-and-replace fields via
:func:`dataclasses.replace`.  The external format is flat ``key = value`` text,
one parameter per line, which round-trips bit-exactly (floats are written with
``repr``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Union

from .errors import CoefficientOutOfRangeError, ConfigError, EvenAgentCountError

BINARY_DECISIONS = (-1, 1)
HOLD_DECISIONS = (-1, 0, 1)

_MAX_MEMORY = 20  # 2^(m+1) strategy rows; anything bigger is a config mistake
# bytes the largest holding an input may ask for: one stock's int64 strategy-table draw,
# a run's series, a batch's or sweep's kept runs or the verify-appendix peak; see check_memory
_MEMORY_BUDGET_BYTES = 1 << 30
DEFAULT_EVENT_PROBABILITY = 0.0082  # the paper's; an event model without one takes it


@dataclass(frozen=True)
class HomogeneousCoupling:
    """Every agent uses the same cross-stock weights (b1, b2)."""

    b1: float
    b2: float


@dataclass(frozen=True)
class UniformCoupling:
    """Per-agent weights drawn uniformly from [c - delta, c + delta] per stock."""

    c1: float
    delta1: float
    c2: float
    delta2: float


Coupling = Union[HomogeneousCoupling, UniformCoupling]


@dataclass(frozen=True)
class EventModel:
    """Exogenous demand shocks: each step, with probability ``probability``,
    a shock of magnitude ``strength`` times the baseline demand std hits a
    stock with a random sign."""

    probability: float
    strength: float


@dataclass(frozen=True)
class ModelConfig:
    n_agents: int = 1001
    memory: int = 1
    n_strategies: int = 2
    horizon: int = 1000
    initial_price: float = 2000.0
    a: tuple[float, float] = (1.0, 1.0)
    coupling: Coupling = HomogeneousCoupling(0.5, 0.5)
    allow_hold: bool = False
    events: EventModel | None = None
    n_runs: int = 50
    master_seed: int = 20170918

    @property
    def decision_set(self) -> tuple[int, ...]:
        return HOLD_DECISIONS if self.allow_hold else BINARY_DECISIONS

    @property
    def warmup_steps(self) -> int:
        return max(1, self.memory)


def series_bytes(config: ModelConfig) -> int:
    """Bytes of one run's series: five 8-byte series per stock and warm-up or
    recorded step (see engine.simulate_trajectory)."""
    return 80 * (config.warmup_steps + config.horizon)


def check_memory(nbytes: int, what: str) -> None:
    """Refuse ``what``, which holds ``nbytes`` bytes at once, past the memory budget."""
    if nbytes > _MEMORY_BUDGET_BYTES:
        raise ConfigError(f"{what} need {nbytes} bytes, over the {_MEMORY_BUDGET_BYTES}-byte limit")


def check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def check_master_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:  # one 64-bit word, as every seed fold_seed derives
        raise ConfigError(f"master_seed must lie in [0, 2^64), got {seed}")


def validate(config: ModelConfig) -> ModelConfig:
    """Check every invariant; return the config unchanged if all hold."""
    check_positive("n_agents", config.n_agents)
    if config.n_agents % 2 == 0:
        raise EvenAgentCountError(f"n_agents must be odd, got {config.n_agents}")
    check_positive("memory", config.memory)
    if config.memory > _MAX_MEMORY:
        raise ConfigError(f"memory {config.memory} exceeds supported maximum {_MAX_MEMORY}")
    check_positive("n_strategies", config.n_strategies)
    check_memory(8 * config.n_agents * config.n_strategies * 2 ** (config.memory + 1),
                 f"one stock's strategy tables at n_agents={config.n_agents},"
                 f" n_strategies={config.n_strategies}, memory={config.memory}")
    if config.horizon < 2:  # a return correlation needs two recorded steps
        raise ConfigError(f"horizon must be at least 2, got {config.horizon}")
    check_memory(series_bytes(config), f"one run's series at horizon={config.horizon}")
    if config.initial_price <= 0:
        raise ConfigError(f"initial_price must be positive, got {config.initial_price}")
    if len(config.a) != 2:
        raise ConfigError(f"a must hold two weights (a1, a2), got {config.a!r}")
    for j, aj in enumerate(config.a, start=1):
        if not 0.0 < aj <= 1.0:
            raise CoefficientOutOfRangeError(f"a{j} must lie in (0, 1], got {aj}")
    if isinstance(config.coupling, UniformCoupling):
        for name in ("delta1", "delta2"):
            d = getattr(config.coupling, name)
            if d < 0:
                raise CoefficientOutOfRangeError(f"{name} must be non-negative, got {d}")
    elif not isinstance(config.coupling, HomogeneousCoupling):
        raise ConfigError(f"unsupported coupling spec {config.coupling!r}")
    if config.events is not None:
        if not 0.0 <= config.events.probability <= 1.0:
            raise CoefficientOutOfRangeError(
                f"event probability must lie in [0, 1], got {config.events.probability}"
            )
        if config.events.strength < 0:
            raise CoefficientOutOfRangeError(
                f"event strength must be non-negative, got {config.events.strength}"
            )
    check_positive("n_runs", config.n_runs)
    # the config format is the one type rule: each value must read back from its line
    for (key, value), line in zip(_items(config), to_text(config).splitlines()):
        if _KEYS[key] is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        try:
            read_back = parse_items(line) == {key: value}
        except ConfigError:
            read_back = False
        if not read_back:
            raise ConfigError(f"{key} = {value!r} does not read back from its config text")
    check_master_seed(config.master_seed)
    if isinstance(config.coupling, UniformCoupling):
        for j, c, d in ((1, config.coupling.c1, config.coupling.delta1),
                        (2, config.coupling.c2, config.coupling.delta2)):
            # the width rng.uniform draws over; infinite too when c - d or c + d is
            if not math.isfinite((c + d) - (c - d)):
                raise CoefficientOutOfRangeError(
                    f"uniform coupling c{j}={c}, delta{j}={d} has no finite support"
                    f" [c{j} - delta{j}, c{j} + delta{j}]"
                )
    # the agents' coupling sum must stay finite; the engine sums a uniform draw itself
    for key in ("b1", "b2") if isinstance(config.coupling, HomogeneousCoupling) else ("c1", "c2"):
        value = getattr(config.coupling, key)
        if not math.isfinite(abs(value) * config.n_agents):
            raise CoefficientOutOfRangeError(
                f"{key}={value} summed over {config.n_agents} agents overflows"
            )
    return config


# --- flat key = value config format ---------------------------------------

_BOOL_WORDS = {"true": True, "false": False}
# every key of the format with its value type, in file order
_KEYS = {
    "n_agents": int, "memory": int, "n_strategies": int, "horizon": int,
    "initial_price": float, "a1": float, "a2": float, "coupling": str,
    "b1": float, "b2": float, "c1": float, "delta1": float, "c2": float, "delta2": float,
    "allow_hold": bool, "event_probability": float, "event_strength": float,
    "n_runs": int, "master_seed": int,
}
_HOMOGENEOUS_KEYS = {"b1", "b2"}
_UNIFORM_KEYS = {"c1", "delta1", "c2", "delta2"}
# the template of a uniform coupling whose keys are not all given
DEFAULT_UNIFORM = UniformCoupling(0.0, 1.0, 0.0, 1.0)


def _items(config: ModelConfig) -> list[tuple[str, object]]:
    """Every field of ``config`` as (key, value) pairs, in file-format order."""
    c = config.coupling
    values = {**vars(config), **vars(c), "a1": config.a[0], "a2": config.a[1]}
    values["coupling"] = "homogeneous" if isinstance(c, HomogeneousCoupling) else "uniform"
    if (e := config.events) is not None:
        values.update(event_probability=e.probability, event_strength=e.strength)
    return [(key, values[key]) for key in _KEYS if key in values]


def to_text(config: ModelConfig) -> str:
    """Serialize to the flat config format (all fields, one per line)."""
    # floats by repr, so they round-trip, a float subclass (np.float64) as the
    # float it is; allow_hold as true/false
    return "".join(
        f"{key} = {float(value) if isinstance(value, float) else value!r}\n" if _KEYS[key] is float
        else f"{key} = {str(value).lower()}\n"
        for key, value in _items(config)
    )


def parse_items(text: str) -> dict[str, object]:
    """Parse flat config text into a key -> typed-value dict.

    Blank lines and ``#`` comments are ignored; unknown keys are errors.
    """
    items: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in items:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _KEYS.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if kind is bool:
            if value.lower() not in _BOOL_WORDS:
                raise ConfigError(f"line {lineno}: allow_hold must be true or false")
            items[key] = _BOOL_WORDS[value.lower()]
        elif kind is str:
            if value not in ("homogeneous", "uniform"):
                raise ConfigError(f"line {lineno}: coupling must be homogeneous or uniform")
            items[key] = value
        else:
            try:
                items[key] = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ConfigError(f"line {lineno}: {key} must be {what}, got {value!r}") from None
    return items


def from_items(items: dict[str, object]) -> ModelConfig:
    """Build a validated config from parsed items; absent keys take defaults."""
    items = dict(items)
    defaults = ModelConfig()

    kind = items.pop("coupling", None)
    hom_given = _HOMOGENEOUS_KEYS & items.keys()
    uni_given = _UNIFORM_KEYS & items.keys()
    if kind is None and hom_given and uni_given:
        raise ConfigError("mixed homogeneous and uniform coupling keys")
    if kind is None:
        kind = "uniform" if uni_given else "homogeneous"
    bad = uni_given if kind == "homogeneous" else hom_given
    if bad:
        raise ConfigError(f"keys {sorted(bad)} do not belong to {kind} coupling")
    template = defaults.coupling if kind == "homogeneous" else DEFAULT_UNIFORM
    coupling = replace(template, **{k: float(items.pop(k)) for k in hom_given | uni_given})

    events = None
    if "event_probability" in items or "event_strength" in items:
        events = EventModel(
            probability=float(items.pop("event_probability", DEFAULT_EVENT_PROBABILITY)),
            strength=float(items.pop("event_strength", 0.0)),
        )
    a = tuple(float(items.pop(key, default)) for key, default in zip(("a1", "a2"), defaults.a))
    fields = _KEYS.keys() & vars(defaults).keys()
    scalars = {k: _KEYS[k](items.pop(k)) for k in fields & items.keys()}
    if items:
        raise ConfigError(f"unused keys {sorted(items)}")
    return validate(replace(defaults, **scalars, a=a, coupling=coupling, events=events))


def from_text(text: str) -> ModelConfig:
    return from_items(parse_items(text))


def config_digest(config: ModelConfig) -> str:
    """Stable hex digest of the canonical config text."""
    return hashlib.sha256(to_text(config).encode("utf-8")).hexdigest()
