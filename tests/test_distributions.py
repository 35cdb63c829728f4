import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from mbang import Noise, NumericalError, ValidationError
from mbang.distributions import (
    PRESETS,
    cumulants_from_moments,
    moments_from_cumulants,
    noise_from_json_dict,
    noise_from_tag,
    noise_to_json_dict,
)


def _scipy_frozen(noise: Noise):
    d, p = noise.dist, noise.params
    if d == "uniform":
        a, b = p
        return scipy.stats.uniform(loc=a, scale=b - a), (a + b) / 2
    if d == "gamma":
        shape, rate = p
        return scipy.stats.gamma(shape, scale=1 / rate), shape / rate
    if d == "chi2":
        return scipy.stats.chi2(p[0]), p[0]
    if d == "exponential":
        return scipy.stats.expon(scale=1 / p[0]), 1 / p[0]
    if d == "t":
        df = p[0]
        sigma = math.sqrt(df / (df - 2))
        return scipy.stats.t(df, scale=1 / sigma), 0.0
    raise AssertionError(d)


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_low_order_cumulants_match_scipy(tag):
    noise = PRESETS[tag]
    frozen, _ = _scipy_frozen(noise)
    mean, var, skew, exkurt = frozen.stats(moments="mvsk")
    sigma = math.sqrt(float(var))
    assert noise.cumulant(1) == 0.0
    assert noise.cumulant(2) == pytest.approx(float(var), rel=1e-12)
    assert noise.cumulant(3) == pytest.approx(float(skew) * sigma**3, rel=1e-10, abs=1e-12)
    assert noise.cumulant(4) == pytest.approx(float(exkurt) * sigma**4, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("tag", ["uniform5", "gamma24", "chi2", "exp1"])
@pytest.mark.parametrize("order", [5, 6, 7, 8])
def test_high_order_moments_match_quadrature(tag, order):
    noise = PRESETS[tag]
    frozen, mean = _scipy_frozen(noise)
    lo, hi = frozen.support()
    value, err = scipy.integrate.quad(
        lambda x: (x - mean) ** order * frozen.pdf(x), lo, hi, limit=200
    )
    assert noise.raw_moment(order) == pytest.approx(value, rel=1e-6, abs=max(1e-8, 10 * err))


# scipy's quad on the heavy t10 tail warns that it may not reach full accuracy.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_t10_moments_match_scipy():
    noise = PRESETS["t10"]
    frozen, _ = _scipy_frozen(noise)
    for order in (2, 4, 6, 8):
        # scipy integrates these numerically; the closed form is exact
        assert noise.raw_moment(order) == pytest.approx(frozen.moment(order), rel=1e-6)
    for order in (3, 5, 7, 9):
        assert noise.raw_moment(order) == 0.0


def test_t10_unit_variance_and_order_limit():
    noise = PRESETS["t10"]
    assert noise.cumulant(2) == pytest.approx(1.0, rel=1e-12)
    assert noise.cumulant(4) == pytest.approx(1.0, rel=1e-12)
    assert noise.max_cumulant_order == 9
    assert noise.cumulant(9) == 0.0
    with pytest.raises(ValidationError):
        noise.cumulant(10)
    with pytest.raises(ValidationError):
        noise.raw_moment(10)


def test_moment_cumulant_recursions_invert():
    rng = np.random.default_rng(0)
    for _ in range(20):
        kappa = [0.0] + list(rng.normal(size=6))
        m = moments_from_cumulants(kappa)
        back = cumulants_from_moments(m)
        assert np.allclose(back, kappa, atol=1e-10)


def test_uniform_moments_closed_form():
    # E[X^r] of uniform(-c, c) is c^r / (r + 1) for even r
    noise = Noise("uniform", (-5.0, 5.0))
    for r in (2, 4, 6, 8):
        assert noise.raw_moment(r) == pytest.approx(5.0**r / (r + 1), rel=1e-12)
    for r in (1, 3, 5, 7):
        assert noise.raw_moment(r) == pytest.approx(0.0, abs=1e-9)
    # kappa_k = B_k w^k / k for even k, with w = b - a and B_k the Bernoulli numbers
    bernoulli = {2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 8: -1 / 30, 10: 5 / 66}
    for a, b in ((-5.0, 5.0), (-1.0, 3.0), (0.2, 0.7)):
        noise = Noise("uniform", (a, b))
        for k in range(2, 11):
            if k % 2:
                assert noise.cumulant(k) == 0.0
            else:
                assert noise.cumulant(k) == pytest.approx(bernoulli[k] * (b - a) ** k / k, rel=1e-14)


@pytest.mark.parametrize("tag", sorted(PRESETS))
def test_samples_match_low_moments(tag):
    noise = PRESETS[tag]
    rng = np.random.default_rng(42)
    x = noise.sample(rng, 400000)
    assert x.mean() == pytest.approx(0.0, abs=4 * math.sqrt(noise.cumulant(2) / len(x)))
    assert x.var() == pytest.approx(noise.cumulant(2), rel=0.05)


def test_sampling_is_reproducible():
    noise = PRESETS["gamma24"]
    a = noise.sample(np.random.default_rng(9), 100)
    b = noise.sample(np.random.default_rng(9), 100)
    assert np.array_equal(a, b)
    # chi2 and exponential are drawn as gamma; numpy's chisquare and exponential
    # are the same streams
    for df in (0.7, 2.0, 3.5):
        a = Noise("chi2", (df,)).sample(np.random.default_rng(9), 1000)
        assert np.array_equal(a, np.random.default_rng(9).chisquare(df, 1000) - df)
    rate = PRESETS["exp1"].params[0]
    a = PRESETS["exp1"].sample(np.random.default_rng(9), 1000)
    assert np.array_equal(a, np.random.default_rng(9).exponential(1 / rate, 1000) - 1 / rate)


def test_bad_parameters_rejected():
    with pytest.raises(ValidationError):
        Noise("uniform", (3.0, 1.0))
    with pytest.raises(ValidationError):
        Noise("gamma", (2.0,))
    with pytest.raises(ValidationError):
        Noise("t", (2.0,))
    with pytest.raises(ValidationError):
        Noise("beta", (1.0, 1.0))


@pytest.mark.parametrize(
    "noise, order",
    [
        (Noise("uniform", (-1e200, 1e200)), 2),  # half_width**2 overflows
        (Noise("uniform", (-1e40, 1e40)), 8),  # within the oracle's order range
        (Noise("gamma", (1e-300, 1e-300)), 2),  # rate**2 underflows to 0.0
        (Noise("gamma", (2.0, 1e-40)), 8),  # the quotient is inf
    ],
)
def test_values_past_the_float_range_are_refused_by_name(noise, order):
    for method in (noise.cumulant, noise.raw_moment):
        with pytest.raises(NumericalError, match=f"order {order} of {noise.dist}"):
            method(order)


def test_tag_lookup_and_json_round_trip():
    assert noise_from_tag("uniform10") == Noise("uniform", (-10.0, 10.0))
    with pytest.raises(ValidationError):
        noise_from_tag("cauchy")
    noise = PRESETS["exp1"]
    assert noise_from_json_dict(noise_to_json_dict(noise)) == noise
