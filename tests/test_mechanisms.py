import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privfair import mechanisms as mech
from privfair.errors import ParameterError

from conftest import dp_density_ratio_check


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Laplace

@pytest.mark.parametrize("eps,expected", [(0.5, 2.0), (0.1, 10.0)])
def test_laplace_noise_scale(eps, expected):
    params = mech.PrivacyParams(eps)
    assert mech.laplace_noise_scale(params) == pytest.approx(expected)


def test_laplace_rejects_bad_epsilon():
    with pytest.raises(ParameterError):
        mech.PrivacyParams(0.0)
    with pytest.raises(ParameterError):
        mech.PrivacyParams(-1.0)


def test_laplace_histogram_seed_reproducible():
    params = mech.PrivacyParams(1.0)
    exact = np.array([10.0, 20.0])
    a = mech.laplace_histogram(exact, params, rng(123))
    b = mech.laplace_histogram(exact, params, rng(123))
    assert np.array_equal(a, b)
    c = mech.laplace_histogram(exact, params, rng(124))
    assert not np.array_equal(a, c)


def test_laplace_empirical_variance_matches_analytic():
    # Monte-Carlo against the analytic Laplace variance 2 b^2 = 8 at eps=0.5
    params = mech.PrivacyParams(0.5)
    draws = mech.laplace_histogram(np.zeros(100_000), params, rng(7))
    assert np.var(draws) == pytest.approx(8.0, rel=0.05)


def test_laplace_noise_symmetric_zero_mean():
    params = mech.PrivacyParams(0.5)
    draws = mech.laplace_histogram(np.zeros(100_000), params, rng(11))
    se = math.sqrt(8.0 / draws.size)
    assert abs(float(np.mean(draws))) < 3 * se


def test_laplace_huge_epsilon_is_nearly_exact():
    # Laplace tail: P(|X| > t) = exp(-t/b); at eps=1e6, b=1e-6 and t=1e-3
    # the violation probability is exp(-1000) per cell.
    params = mech.PrivacyParams(1e6)
    exact = np.full(2000, 17.0)
    noisy = mech.laplace_histogram(exact, params, rng(5))
    assert np.all(np.abs(noisy - exact) < 1e-3)


# ---------------------------------------------------------------------------
# Exponential

def test_exponential_adjacent_probability_ratio():
    # Candidates one step apart differ by one unit of utility, so the sampler
    # must pick the one nearer the true count exp(eps/2) times as often. The
    # count sits mid-domain so the domain edges play no part; pooling the
    # eight adjacent pairs within distance 4 keeps the estimate tight.
    eps, exact, domain = 1.0, 500, 1000
    params = mech.PrivacyParams(eps)
    g = rng(71)
    n = 50_000
    counts = np.bincount(
        [mech.exponential_count(exact, domain, params, g) for _ in range(n)],
        minlength=domain + 1,
    )
    nearer = farther = 0
    for d in range(4):
        nearer += counts[exact + d] + counts[exact - d]
        farther += counts[exact + d + 1] + counts[exact - d - 1]
    assert nearer / farther == pytest.approx(math.exp(eps / 2), rel=0.03)


def test_exponential_concentrates_at_large_epsilon():
    params = mech.PrivacyParams(200.0)
    g = rng(3)
    draws = {mech.exponential_count(5, 10, params, g) for _ in range(200)}
    assert draws == {5}


def test_exponential_matches_softmax_weights():
    # closed-form weight table vs Monte-Carlo, total variation under 0.01
    eps, exact, domain = 0.5, 5, 10
    params = mech.PrivacyParams(eps)
    r = np.arange(domain + 1)
    w = np.exp(eps * ((exact - np.abs(exact - r)) - exact) / 2.0)
    p = w / w.sum()
    g = rng(17)
    n = 100_000
    counts = np.bincount(
        [mech.exponential_count(exact, domain, params, g) for _ in range(n)],
        minlength=domain + 1,
    )
    tv = 0.5 * np.abs(counts / n - p).sum()
    assert tv < 0.01


def test_exponential_domain_zero_returns_zero():
    assert mech.exponential_count(0, 0, mech.PrivacyParams(1.0), rng(0)) == 0


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_exponential_output_always_in_range(exact, extra, seed):
    domain = exact + extra
    out = mech.exponential_count(exact, domain, mech.PrivacyParams(0.3), rng(seed))
    assert 0 <= out <= domain


def test_exponential_count_rejects_out_of_domain():
    with pytest.raises(ParameterError):
        mech.exponential_count(11, 10, mech.PrivacyParams(1.0), rng(0))


# ---------------------------------------------------------------------------
# Gaussian

def test_gaussian_sigma_values():
    # frozen from direct formula evaluation sqrt(2 ln(1.25/delta)) * d2 / eps
    s1 = mech.gaussian_sigma(mech.PrivacyParams(0.5, 1e-3))
    assert s1 == pytest.approx(15.105918130636187, abs=1e-9)
    s2 = mech.gaussian_sigma(mech.PrivacyParams(0.99, 0.5))
    assert s2 == pytest.approx(2.7348055071831743, abs=1e-9)


def test_gaussian_sigma_domain_errors():
    with pytest.raises(ParameterError):
        mech.gaussian_sigma(mech.PrivacyParams(1.0, 1e-3))
    with pytest.raises(ParameterError):
        mech.gaussian_sigma(mech.PrivacyParams(0.5, 0.0))


def test_gaussian_sigma_monotone_in_epsilon_and_delta():
    sigmas_eps = [
        mech.gaussian_sigma(mech.PrivacyParams(e, 1e-3)) for e in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(a > b for a, b in zip(sigmas_eps, sigmas_eps[1:]))
    sigmas_delta = [
        mech.gaussian_sigma(mech.PrivacyParams(0.5, d)) for d in (1e-6, 1e-4, 1e-2, 0.5)
    ]
    assert all(a > b for a, b in zip(sigmas_delta, sigmas_delta[1:]))


def test_gaussian_histogram_seed_reproducible():
    params = mech.PrivacyParams(0.5, 1e-3)
    exact = np.array([5.0, 9.0])
    assert np.array_equal(
        mech.gaussian_histogram(exact, params, rng(9)),
        mech.gaussian_histogram(exact, params, rng(9)),
    )


def test_gaussian_histogram_std_matches_sigma():
    params = mech.PrivacyParams(0.5, 1e-3)
    sigma = mech.gaussian_sigma(params)
    draws = mech.gaussian_histogram(np.zeros(100_000), params, rng(21))
    assert np.std(draws) == pytest.approx(sigma, rel=0.02)


def test_gaussian_histogram_unbiased_small_sigma_corner():
    params = mech.PrivacyParams(0.999, 0.999)
    sigma = mech.gaussian_sigma(params)
    draws = mech.gaussian_histogram(np.full(100_000, 5.0), params, rng(2))
    se = sigma / math.sqrt(draws.size)
    assert abs(float(np.mean(draws)) - 5.0) < 3 * se


# ---------------------------------------------------------------------------
# Analytic DP check (the criterion 6 helper still catches a violation)

def test_density_ratio_check_halved_scale_fails():
    params = mech.PrivacyParams(0.5)
    half = mech.laplace_noise_scale(params) / 2.0
    assert not dp_density_ratio_check("laplace", params, (10, 11), noise_scale=half)
