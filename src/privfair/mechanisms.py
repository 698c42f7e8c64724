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

from .errors import ParameterError

LAPLACE = "laplace"
EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"

MECHANISMS = (LAPLACE, EXPONENTIAL, GAUSSIAN)

# Global sensitivities of a histogram query: L1 is 1 for disjoint-cell
# counts, L2 is 2 per the histogram treatment used here.
L1_SENSITIVITY = 1.0
L2_SENSITIVITY = 2.0


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget for one query.

    epsilon is the per-query budget. delta stays 0 for pure DP and must be
    in (0, 1) for the Gaussian mechanism, which additionally requires
    epsilon < 1.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (0 <= self.delta < 1):
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")


def laplace_noise_scale(params: PrivacyParams) -> float:
    """Scale of the Laplace noise: L1 sensitivity over epsilon."""
    return L1_SENSITIVITY / params.epsilon


def sample_laplace(scale: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # Inverse-CDF on a single uniform draw per cell; rejection samplers are
    # seed-fragile across platforms.
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_histogram(exact: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Each cell plus independent Laplace(0, L1_SENSITIVITY/epsilon) noise.

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
    """Noise standard deviation sqrt(2 ln(1.25/delta)) * L2_SENSITIVITY / epsilon.

    Requires 0 < epsilon < 1 and 0 < delta < 1; outside that range the
    Gaussian mechanism cannot satisfy the guarantee at all.
    """
    if not (0 < params.epsilon < 1):
        raise ParameterError(f"gaussian mechanism needs 0 < epsilon < 1, got {params.epsilon}")
    if not (0 < params.delta < 1):
        raise ParameterError(f"gaussian mechanism needs 0 < delta < 1, got {params.delta}")
    return math.sqrt(2.0 * math.log(1.25 / params.delta)) * L2_SENSITIVITY / params.epsilon


def gaussian_histogram(exact: np.ndarray, params: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Each cell plus independent Normal(0, sigma) noise."""
    exact = np.asarray(exact, dtype=float)
    return exact + rng.normal(0.0, gaussian_sigma(params), exact.size)
