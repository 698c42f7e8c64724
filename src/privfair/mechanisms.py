"""Differentially private answering of counting and histogram queries.

Three mechanisms are provided: Laplace and Gaussian perturb each histogram
cell with additive noise, the exponential mechanism samples an integer count
from a utility-weighted distribution and therefore never produces an
out-of-range answer. All sampling is driven by an explicit numpy Generator,
so identical seeds give identical outputs on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MechanismError, ParameterError, UnsupportedCheckError

LAPLACE = "laplace"
EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
# Noiseless passthrough, for oracle-equivalence tests only. The curator
# refuses it unless explicitly constructed with allow_exact=True.
EXACT = "exact"

MECHANISMS = (LAPLACE, EXPONENTIAL, GAUSSIAN)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and query sensitivities for one query.

    epsilon is the per-query budget. delta stays 0 for pure DP and must be
    in (0, 1) for the Gaussian mechanism, which additionally requires
    epsilon < 1. sensitivity_l1 is the L1 global sensitivity (1 for
    disjoint-cell histogram counts), sensitivity_l2 the L2 one (2 per the
    histogram treatment used here).
    """

    epsilon: float
    delta: float = 0.0
    sensitivity_l1: float = 1.0
    sensitivity_l2: float = 2.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (0 <= self.delta < 1):
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")
        if self.sensitivity_l1 <= 0 or self.sensitivity_l2 <= 0:
            raise ParameterError("sensitivities must be positive")


def laplace_noise_scale(params: PrivacyParams) -> float:
    """Scale of the Laplace noise: L1 sensitivity over epsilon."""
    return params.sensitivity_l1 / params.epsilon


def sample_laplace(scale: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # Inverse-CDF on a single uniform draw per cell; rejection samplers are
    # seed-fragile across platforms.
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_histogram(exact: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Each cell plus independent Laplace(0, sensitivity_l1/epsilon) noise.

    Cells may come out negative or exceed the population; they are left
    as-is, validity is judged by the estimator.
    """
    exact = np.asarray(exact, dtype=float)
    return exact + sample_laplace(laplace_noise_scale(params), rng, exact.size)


def exponential_count(
    exact_count: int, domain_max: int, params: PrivacyParams, rng: np.random.Generator
) -> int:
    """Sample a count from {0..domain_max} via the exponential mechanism.

    Utility of candidate r is exact_count - |exact_count - r| with unit
    utility sensitivity, so the weight on r is exp(epsilon * u / 2). The
    answer is always a valid in-range count.
    """
    if domain_max < 0:
        raise ParameterError("domain_max must be nonnegative")
    if not (0 <= exact_count <= domain_max):
        raise ParameterError(f"exact_count {exact_count} outside [0, {domain_max}]")
    if domain_max == 0:
        return 0
    r = np.arange(domain_max + 1)
    # Log-space with the maximum utility (at r = exact_count) subtracted
    # before exponentiation; keeps weights finite for domain_max ~ 1e5.
    log_w = -params.epsilon * np.abs(exact_count - r) / 2.0
    weights = np.exp(log_w)
    cum = np.cumsum(weights)
    t = rng.random() * cum[-1]
    return int(np.searchsorted(cum, t, side="right"))


def exponential_histogram(
    exact: np.ndarray, domain_max: int, params: PrivacyParams, rng: np.random.Generator
) -> np.ndarray:
    """Per-cell exponential-mechanism answers over a shared 0..domain_max domain.

    Each cell uses the full per-query epsilon; the cells count disjoint
    groups, so parallel composition applies across them (the same argument
    that gives histogram queries sensitivity 1 for the Laplace mechanism).
    """
    exact = np.asarray(exact)
    return np.array(
        [exponential_count(int(c), domain_max, params, rng) for c in exact], dtype=float
    )


def gaussian_sigma(params: PrivacyParams) -> float:
    """Noise standard deviation sqrt(2 ln(1.25/delta)) * sensitivity_l2 / epsilon.

    Requires 0 < epsilon < 1 and 0 < delta < 1; outside that range the
    Gaussian mechanism cannot satisfy the guarantee at all.
    """
    if not (0 < params.epsilon < 1):
        raise ParameterError(f"gaussian mechanism needs 0 < epsilon < 1, got {params.epsilon}")
    if not (0 < params.delta < 1):
        raise ParameterError(f"gaussian mechanism needs 0 < delta < 1, got {params.delta}")
    return math.sqrt(2.0 * math.log(1.25 / params.delta)) * params.sensitivity_l2 / params.epsilon


def gaussian_histogram(exact: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Each cell plus independent Normal(0, sigma) noise."""
    exact = np.asarray(exact, dtype=float)
    return exact + rng.normal(0.0, gaussian_sigma(params), exact.size)


def exact_histogram_stub(exact: np.ndarray) -> np.ndarray:
    """Noiseless passthrough used as the oracle-equivalence stub."""
    return np.asarray(exact, dtype=float).copy()


def dp_density_ratio_check(
    mechanism: str,
    params: PrivacyParams,
    neighboring_counts: tuple[float, float],
    domain_max: int | None = None,
    noise_scale: float | None = None,
    tol: float = 1e-9,
) -> bool:
    """Analytic check that the output densities of two neighboring answers
    stay within a factor exp(epsilon).

    Laplace: evaluates the density ratio on a grid plus the closed-form
    supremum exp(|c - c'| / scale). Exponential: compares the full
    probability tables over {0..domain_max}. Gaussian has no pure-DP bound
    and is rejected.
    """
    c, c2 = neighboring_counts
    bound = math.exp(params.epsilon) + tol
    if mechanism == LAPLACE:
        scale = laplace_noise_scale(params) if noise_scale is None else noise_scale
        sup = math.exp(abs(c - c2) / scale)
        lo, hi = min(c, c2) - 8 * scale, max(c, c2) + 8 * scale
        xs = np.linspace(lo, hi, 2001)
        ratio = np.exp((np.abs(xs - c2) - np.abs(xs - c)) / scale)
        return bool(max(sup, float(ratio.max())) <= bound)
    if mechanism == EXPONENTIAL:
        if domain_max is None:
            raise ParameterError("exponential check needs domain_max")
        r = np.arange(domain_max + 1)

        def table(center):
            w = np.exp(-params.epsilon * np.abs(center - r) / 2.0)
            return w / w.sum()

        p, p2 = table(c), table(c2)
        return bool(float((p / p2).max()) <= bound and float((p2 / p).max()) <= bound)
    if mechanism == GAUSSIAN:
        raise UnsupportedCheckError("gaussian mechanism has no pure-DP density-ratio bound")
    raise MechanismError(f"unknown mechanism {mechanism!r}")
