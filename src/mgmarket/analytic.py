"""Sign-case analysis of expectation changes, with a brute-force oracle.

With a1 = a2 = 1 the one-step changes of the two expected returns are

    du = dx + b1 * dy        dv = dy + b2 * dx

where (dx, dy) are the previous changes of the two returns.  For each sign
regime of (b1, b2) and each sign quadrant of (dx, dy), only certain sign
quadrants of (du, dv) are reachable, and the reachable ones are governed by
interval constraints whose width shifts as the coupling weights move toward
their limits.  The verdict table below hard-codes the case analysis: it lists
the 32 reachable cells of the 4 regimes x 4 input quadrants x 4 output
quadrants, and every other cell is infeasible.  ``verify_appendix`` validates
all 64 cells against uniform sampling over the signed unit box, where an
interval's length is proportional to its probability.

Regimes: I both weights in (0,1); II both in (-1,0); III b1 in (0,1) and
b2 in (-1,0); IV b1 in (-1,0) and b2 in (0,1).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import check_master_seed, check_memory, check_positive
from .seeding import fold_seed

Quadrant = tuple[int, int]

QUADRANTS: tuple[Quadrant, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))

REGIME_SIGNS = {"I": (1, 1), "II": (-1, -1), "III": (1, -1), "IV": (-1, 1)}


def quadrant_str(q: Quadrant) -> str:
    return "(" + ",".join("+" if c > 0 else "-" for c in q) + ")"


# Bound expressions appearing in the interval constraints.  The sign goes on
# the scalar, which spares a whole-sample temporary; division rounds
# symmetrically, so y / -b2 has the bits of -y / b2.
_BOUNDS = {
    "-b1*dr2": lambda b, x, y: -b[0] * y,
    "-dr2/b2": lambda b, x, y: y / -b[1],
    "-b2*dr1": lambda b, x, y: -b[1] * x,
    "-dr1/b1": lambda b, x, y: x / -b[0],
}


@dataclass(frozen=True)
class FeasibilityVerdict:
    """One sign case.  A bounded case holds on ``lower < variable < upper``
    (a missing bound is open), and its probability moves in ``direction`` as
    the weight ``trend`` ("b1", "b2" or "both") nears its regime limit.  A
    feasible case with no variable is reached with probability one."""

    feasible: bool
    variable: Optional[str] = None  # "dr1" or "dr2"
    lower: Optional[str] = None
    upper: Optional[str] = None
    trend: Optional[str] = None
    direction: Optional[str] = None

    def holds(self, b: tuple[float, float], dx, dy):
        """Vectorized predicted membership of sampled (dx, dy) in the case."""
        ok = np.full(np.shape(dx), self.feasible)
        if self.variable is not None:
            value = dx if self.variable == "dr1" else dy
            if self.lower is not None:
                ok &= value > _BOUNDS[self.lower](b, dx, dy)
            if self.upper is not None:
                ok &= value < _BOUNDS[self.upper](b, dx, dy)
        return ok


_bounded = functools.partial(FeasibilityVerdict, True)

# The reachable cells, keyed by (regime, input quadrant, output quadrant);
# every cell not listed is infeasible.
CASE_TABLE: dict[tuple[str, Quadrant, Quadrant], FeasibilityVerdict] = {
    # --- regime I: both couplings positive --------------------------------
    ("I", (1, 1), (1, 1)): FeasibilityVerdict(True),
    ("I", (-1, -1), (-1, -1)): FeasibilityVerdict(True),
    ("I", (1, -1), (1, 1)): _bounded("dr1", "-dr2/b2", None, "b2", "increasing"),
    ("I", (1, -1), (1, -1)): _bounded("dr1", "-b1*dr2", "-dr2/b2", "both", "decreasing"),
    ("I", (1, -1), (-1, -1)): _bounded("dr1", None, "-b1*dr2", "b1", "increasing"),
    ("I", (-1, 1), (1, 1)): _bounded("dr1", "-b1*dr2", None, "b1", "increasing"),
    ("I", (-1, 1), (-1, 1)): _bounded("dr1", "-dr2/b2", "-b1*dr2", "both", "decreasing"),
    ("I", (-1, 1), (-1, -1)): _bounded("dr1", None, "-dr2/b2", "b2", "increasing"),
    # --- regime II: both couplings negative -------------------------------
    ("II", (1, 1), (1, 1)): _bounded("dr1", "-b1*dr2", "-dr2/b2", "both", "decreasing"),
    ("II", (1, 1), (1, -1)): _bounded("dr1", "-dr2/b2", None, "b2", "increasing"),
    ("II", (1, 1), (-1, 1)): _bounded("dr1", None, "-b1*dr2", "b1", "increasing"),
    ("II", (-1, -1), (-1, -1)): _bounded("dr1", "-dr2/b2", "-b1*dr2", "both", "decreasing"),
    ("II", (-1, -1), (-1, 1)): _bounded("dr1", None, "-dr2/b2", "b2", "increasing"),
    ("II", (-1, -1), (1, -1)): _bounded("dr1", "-b1*dr2", None, "b1", "increasing"),
    ("II", (1, -1), (1, -1)): FeasibilityVerdict(True),
    ("II", (-1, 1), (-1, 1)): FeasibilityVerdict(True),
    # --- regime III: b1 positive, b2 negative ------------------------------
    ("III", (1, 1), (1, 1)): _bounded("dr2", "-b2*dr1", None, "b2", "decreasing"),
    ("III", (1, 1), (1, -1)): _bounded("dr2", None, "-b2*dr1", "b2", "increasing"),
    ("III", (-1, -1), (-1, -1)): _bounded("dr2", None, "-b2*dr1", "b2", "decreasing"),
    ("III", (-1, -1), (-1, 1)): _bounded("dr2", "-b2*dr1", None, "b2", "increasing"),
    ("III", (1, -1), (-1, -1)): _bounded("dr2", None, "-dr1/b1", "b1", "increasing"),
    ("III", (1, -1), (1, -1)): _bounded("dr2", "-dr1/b1", None, "b1", "decreasing"),
    ("III", (-1, 1), (1, 1)): _bounded("dr2", "-dr1/b1", None, "b1", "increasing"),
    ("III", (-1, 1), (-1, 1)): _bounded("dr2", None, "-dr1/b1", "b1", "decreasing"),
    # --- regime IV: b1 negative, b2 positive ------------------------------
    ("IV", (1, 1), (1, 1)): _bounded("dr1", "-b1*dr2", None, "b1", "decreasing"),
    ("IV", (1, 1), (-1, 1)): _bounded("dr1", None, "-b1*dr2", "b1", "increasing"),
    ("IV", (-1, -1), (-1, -1)): _bounded("dr1", None, "-b1*dr2", "b1", "decreasing"),
    ("IV", (-1, -1), (1, -1)): _bounded("dr1", "-b1*dr2", None, "b1", "increasing"),
    ("IV", (1, -1), (1, 1)): _bounded("dr1", "-dr2/b2", None, "b2", "increasing"),
    ("IV", (1, -1), (1, -1)): _bounded("dr1", None, "-dr2/b2", "b2", "decreasing"),
    ("IV", (-1, 1), (-1, -1)): _bounded("dr1", None, "-dr2/b2", "b2", "increasing"),
    ("IV", (-1, 1), (-1, 1)): _bounded("dr1", "-dr2/b2", None, "b2", "decreasing"),
}


def classify(
    regime: str,
    input_quadrant: Quadrant,
    output_quadrant: Quadrant,
) -> FeasibilityVerdict:
    """Verdict for one (regime, input, output) sign case."""
    if regime not in REGIME_SIGNS:
        raise ValueError(f"unknown regime {regime!r}")
    if input_quadrant not in QUADRANTS or output_quadrant not in QUADRANTS:
        raise ValueError("quadrants must be pairs of +1/-1")
    return CASE_TABLE.get((regime, input_quadrant, output_quadrant), FeasibilityVerdict(False))


def _sample(
    b: tuple[float, float], input_quadrant: Quadrant, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, dict[Quadrant, np.ndarray]]:
    """Uniform (dx, dy) over the signed unit box of the input quadrant, and
    the output quadrant each sample lands in, as one mask per quadrant."""
    sx, sy = input_quadrant
    u = rng.random((2, n_samples))
    np.subtract(1.0, u, out=u)  # (0, 1]; keeps samples off the axes
    dx, dy = u
    dx *= sx
    dy *= sy
    # du = dx + b1*dy, then dv = dy + b2*dx, in one buffer; zero maps to
    # the positive side, matching the engine's sign convention
    w = np.multiply(dy, b[0])
    w += dx
    up = w >= 0
    np.multiply(dx, b[1], out=w)
    w += dy
    vp = w >= 0
    return dx, dy, {q: (up == (q[0] > 0)) & (vp == (q[1] > 0)) for q in QUADRANTS}


def brute_force_feasibility(
    regime: str,
    b: tuple[float, float],
    input_quadrant: Quadrant,
    n_samples: int,
    rng: np.random.Generator,
) -> dict[Quadrant, float]:
    """Empirical output-quadrant frequencies; a quadrant is feasible iff its
    frequency is non-zero."""
    s1, s2 = REGIME_SIGNS[regime]
    if not (0 < s1 * b[0] < 1 and 0 < s2 * b[1] < 1):
        raise ValueError(f"b={b} outside open box of regime {regime}")
    check_positive("n_samples", n_samples)
    _, _, masks = _sample(b, input_quadrant, n_samples, rng)
    return {q: float(np.count_nonzero(m)) / n_samples for q, m in masks.items()}


# --- oracle-agreement verification ----------------------------------------

# _sample's peak per sample: the (2, n) float64 draw, one float64 buffer and at
# most eight boolean masks alive at once (two signs, four quadrants, two temporaries)
_PEAK_BYTES_PER_SAMPLE = 16 + 8 + 8
_FEASIBILITY_MAGNITUDES = (0.1, 0.5, 0.9)
_TREND_MAGNITUDES = (0.1, 0.3, 0.5, 0.7, 0.9)
# the magnitude of the weight a trend does not move
_TREND_FIXED_MAGNITUDES = (0.5,) * len(_TREND_MAGNITUDES)


@dataclass(frozen=True)
class CaseCheck:
    """Verification outcome for one (regime, input, output) cell."""

    regime: str
    input_quadrant: Quadrant
    output_quadrant: Quadrant
    feasibility_ok: bool
    condition_ok: Optional[bool]  # None when there is nothing to check
    trend_ok: Optional[bool]
    detail: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.feasibility_ok
            and self.condition_ok is not False
            and self.trend_ok is not False
        )


@dataclass(frozen=True)
class AppendixReport:
    n_samples: int
    checks: list[CaseCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CaseCheck]:
        return [c for c in self.checks if not c.passed]


def _points(regime: str, magnitude_pairs) -> list[tuple[float, float]]:
    """The b points of ``regime`` with the given (|b1|, |b2|), in order."""
    s1, s2 = REGIME_SIGNS[regime]
    return [(s1 * m1, s2 * m2) for m1, m2 in magnitude_pairs]


def verify_appendix(n_samples: int = 1_000_000, master_seed: int = 0) -> AppendixReport:
    """Check every verdict against the sampling oracle.

    Per cell: the verdict's feasibility must match a strictly-zero /
    non-zero sampled frequency at every grid point; where a condition is
    declared, condition membership must coincide pointwise with landing in
    the output quadrant; where a trend is declared, the frequency must be
    strictly monotone in the stated direction along a five-point grid
    approaching the limit.  A seed ``config.validate`` would refuse, a sample count
    below 1 and one whose peak, 32 bytes a sample, passes the memory budget are
    refused before the first sample.
    """
    check_master_seed(master_seed)
    check_positive("n_samples", n_samples)
    check_memory(_PEAK_BYTES_PER_SAMPLE * n_samples, f"{n_samples} samples")
    checks: list[CaseCheck] = []
    for regime, input_q in itertools.product(REGIME_SIGNS, QUADRANTS):
        block = {q: classify(regime, input_q, q) for q in QUADRANTS}
        feas_ok = {q: True for q in QUADRANTS}
        cond_ok: dict[Quadrant, Optional[bool]] = {
            q: (True if block[q].feasible else None) for q in QUADRANTS
        }
        details: dict[Quadrant, str] = {q: "" for q in QUADRANTS}

        for b in _points(regime, itertools.product(_FEASIBILITY_MAGNITUDES, repeat=2)):
            seed = fold_seed(master_seed, f"verify:{regime}:{input_q}", b)
            rng = np.random.default_rng(seed)
            dx, dy, masks = _sample(b, input_q, n_samples, rng)
            for q in QUADRANTS:
                verdict = block[q]
                hit = bool(masks[q].any())
                if hit != verdict.feasible:
                    feas_ok[q] = False
                    details[q] = (
                        f"b={b}: sampled frequency "
                        f"{np.count_nonzero(masks[q]) / n_samples:g} vs "
                        f"feasible={verdict.feasible}"
                    )
                if verdict.feasible:
                    predicted = verdict.holds(b, dx, dy)
                    if not np.array_equal(predicted, masks[q]):
                        cond_ok[q] = False
                        bad = int(np.count_nonzero(predicted != masks[q]))
                        details[q] = f"b={b}: condition mismatches on {bad} samples"
                    del predicted
            del dx, dy, masks  # before the next b point draws its own

        for q in QUADRANTS:
            verdict = block[q]
            trend_ok: Optional[bool] = None
            if verdict.trend is not None:
                # five b points ordered toward the trend's limit
                m1 = _TREND_FIXED_MAGNITUDES if verdict.trend == "b2" else _TREND_MAGNITUDES
                m2 = _TREND_FIXED_MAGNITUDES if verdict.trend == "b1" else _TREND_MAGNITUDES
                freqs = []
                for b in _points(regime, zip(m1, m2)):
                    seed = fold_seed(master_seed, f"trend:{regime}:{input_q}:{q}", b)
                    rng = np.random.default_rng(seed)
                    freqs.append(brute_force_feasibility(regime, b, input_q, n_samples, rng)[q])
                diffs = np.diff(freqs)
                trend_ok = bool(
                    np.all(diffs > 0) if verdict.direction == "increasing" else np.all(diffs < 0)
                )
                if not trend_ok:
                    details[q] = f"frequencies {freqs} not {verdict.direction} toward limit"
            checks.append(
                CaseCheck(
                    regime=regime,
                    input_quadrant=input_q,
                    output_quadrant=q,
                    feasibility_ok=feas_ok[q],
                    condition_ok=cond_ok[q],
                    trend_ok=trend_ok,
                    detail=details[q],
                )
            )
    return AppendixReport(n_samples=n_samples, checks=checks)
