"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A model configuration violates one of its invariants."""


class EvenAgentCountError(ConfigError):
    """Agent count must be odd so the excess demand cannot vanish without holds."""


class CoefficientOutOfRangeError(ConfigError):
    """A numeric parameter lies outside its admissible range."""


class NonPositivePriceError(RuntimeError):
    """A price update drove the price to zero or below; log returns are undefined.

    ``stock`` and ``step`` are filled in by the simulation loop so an aborted
    run reports where it died.
    """

    def __init__(self, price: float, stock: int | None = None, step: int | None = None):
        self.price = price
        self.stock = stock
        self.step = step
        where = ""
        if stock is not None:
            where = f" (stock {stock}, step {step})"
        super().__init__(f"price update produced non-positive price {price!r}{where}")

    def __reduce__(self):
        # the default rebuilds from ``args``, the formatted message, which
        # would land in ``price`` when a process pool returns the error
        return type(self), (self.price, self.stock, self.step)


class DegenerateSeriesError(ValueError):
    """A statistic is undefined because a series is constant or too short."""
