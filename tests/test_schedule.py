import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlab.sampler import step_coefficients
from trajlab.schedule import NoiseSchedule, make_linear_schedule, posterior_variance


def test_single_step_schedule():
    s = make_linear_schedule(1, 1e-4, 0.05)
    assert s.K == 1
    assert s.betas.tolist() == [1e-4]
    assert s.alpha_bar(1) == pytest.approx(0.9999)
    assert s.alpha_bar(1) == 1.0 - s.betas[0]


def test_monotone_alpha_bar():
    s = make_linear_schedule(100, 1e-4, 0.05)
    assert 1.0 - s.betas[0] == pytest.approx(0.9999)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert s.alpha_bar(100) < s.alpha_bar(1)


def test_alpha_bar_matches_arbitrary_precision_product():
    # independent oracle: mpmath product over the same 100 betas
    s = make_linear_schedule(100, 1e-4, 0.05)
    with mpmath.workdps(50):
        betas = [mpmath.mpf(1) * b for b in np.linspace(1e-4, 0.05, 100)]
        prod = mpmath.mpf(1)
        for b in betas:
            prod *= (1 - b)
        expected = float(prod)
    assert s.alpha_bar(100) == pytest.approx(expected, rel=1e-12)


def test_recurrence_exact():
    s = make_linear_schedule(250, 1e-4, 0.05)
    for k in range(2, s.K + 1):
        assert s.alpha_bar(k) == pytest.approx(s.alpha_bar(k - 1) * (1.0 - s.betas[k - 1]),
                                                rel=1e-12)


def test_invalid_construction():
    with pytest.raises(ValueError):
        make_linear_schedule(0)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.0, 0.05)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 0.05, 1e-4)
    with pytest.raises(ValueError):
        make_linear_schedule(10, 1e-4, 1.0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):  # a checkpoint's betas come from a file
        NoiseSchedule(np.array([0.1, np.nan]))


def test_posterior_variance_first_step_zero():
    s = make_linear_schedule(10)
    assert posterior_variance(s, 1) == 0.0


def test_posterior_variance_direct_arithmetic():
    # schedule engineered so abar_1 = 0.95, abar_2 = 0.9
    s = NoiseSchedule(np.array([0.05, 1.0 - 0.9 / 0.95]))
    expected = 0.5 * (1.0 - 0.9 / 0.95)  # direct oracle on the formula
    assert posterior_variance(s, 2) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0263158, rel=1e-5)


def test_posterior_variance_out_of_range():
    s = make_linear_schedule(10)
    with pytest.raises(ValueError):
        posterior_variance(s, 0)
    with pytest.raises(ValueError):
        posterior_variance(s, 11)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 200), st.floats(1e-5, 0.01), st.floats(0.02, 0.2))
def test_sigma_eta1_equals_posterior_variance(K, b0, b1):
    s = make_linear_schedule(K, b0, b1)
    for k in range(2, K + 1):
        assert step_coefficients(s, k, k - 1, 1.0)[2] ** 2 == pytest.approx(
            posterior_variance(s, k), rel=1e-12)


@pytest.mark.parametrize("table", ["alphas", "alpha_bars"])
def test_derived_tables_are_not_arguments(table):
    with pytest.raises(TypeError):
        NoiseSchedule(np.full(3, 0.1), **{table: np.full(3, 0.5)})


def test_tables_immutable():
    s = make_linear_schedule(10)
    with pytest.raises(ValueError):
        s.betas[0] = 0.5
