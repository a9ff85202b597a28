import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracpair import decaymodel as dm


def test_cross_section_at_zero_current():
    p = dm.DecayParams(sigma0=2.0, x0=1.5)
    assert dm.pair_cross_section(0.0, p) == pytest.approx(2.0 / 1.5, rel=1e-15)


def test_cross_section_vanishes_at_large_current():
    p = dm.DecayParams()
    assert dm.pair_cross_section(1e12, p) < 1e-11
    before = dm.pair_cross_section(1.0, p)
    after = dm.pair_cross_section(2.0, p)
    assert after < before


def test_cross_section_ratio_identity():
    rng = np.random.default_rng(31)
    p = dm.DecayParams(sigma0=3.0, x0=2.0, eta=0.7)
    for _ in range(50):
        j1, j2 = rng.uniform(0.0, 50.0, size=2)
        lhs = dm.pair_cross_section(j2, p) / dm.pair_cross_section(j1, p)
        rhs = (p.x0 + p.eta * j1) / (p.x0 + p.eta * j2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cross_section_rejects_negative_current():
    with pytest.raises(ValueError):
        dm.pair_cross_section(-1.0, dm.DecayParams())


def test_decay_params_validation():
    with pytest.raises(ValueError):
        dm.DecayParams(x0=0.5)
    with pytest.raises(ValueError):
        dm.DecayParams(eta=0.0)


def test_counting_time_values():
    assert dm.counting_time(1.0, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert dm.counting_time(2.0, 1.0) == pytest.approx(4.5, rel=1e-15)
    assert dm.counting_time(0.5, 1.0) == pytest.approx(4.5, rel=1e-15)


def test_baseline_strictly_decreasing():
    xs = np.linspace(0.1, 10.0, 100)
    taus = [dm.counting_time(float(x), mode="baseline") for x in xs]
    assert all(b < a for a, b in zip(taus, taus[1:]))


def test_counting_time_rejects_bad_input():
    with pytest.raises(ValueError):
        dm.counting_time(0.0)
    with pytest.raises(ValueError):
        dm.counting_time(1.0, mode="other")


@pytest.mark.parametrize("mode", ["baseline", "metastable"])
@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, [1.0, 0.0], [2.0, -3.0], [1.0, math.nan]])
def test_counting_time_rejects_a_current_that_is_not_positive_and_finite(x, mode):
    with pytest.raises(ValueError, match="positive and finite"):
        dm.counting_time(np.array(x) if isinstance(x, list) else x, 1.0, mode)


@pytest.mark.parametrize("x", [0.1, np.array([0.1, 10.0])])
def test_counting_time_fails_closed_on_overflow(x):
    # (x0 + x)**2 raised OverflowError here; y * y would give inf
    with pytest.raises(ValueError, match="float range"):
        dm.counting_time(x, 1e155)
    with pytest.raises(ValueError, match="float range"):
        dm.counting_time(x, math.nan)


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(1.0, 1e100),
    xs=st.lists(st.floats(1e-100, 1e100), min_size=1, max_size=20),
)
# libm pow rounds this (x0 + x)^2 one ulp away from y * y, and the two
# quotients differ by two ulps
@example(x0=5462.735454767605, xs=[791.1826533667785])
def test_counting_time_array_equals_the_scalar_per_element(x0, xs):
    meta = dm.counting_time(np.array(xs), x0)
    base = dm.counting_time(np.array(xs), x0, "baseline")
    for x, m, b in zip(xs, meta.tolist(), base.tolist()):
        scalar = dm.counting_time(x, x0)
        assert type(scalar) is float and type(dm.counting_time(x, x0, "baseline")) is float
        assert m == scalar
        assert b == dm.counting_time(x, x0, "baseline") == 1.0 / x
        power = (x0 + x) ** 2 / x
        assert abs(scalar - power) <= 2 * math.ulp(power)


def test_optimal_current_analytic():
    assert dm.optimal_current(1.0) == (1.0, 4.0)
    assert dm.optimal_current(2.5) == (2.5, 10.0)
    with pytest.raises(ValueError):
        dm.optimal_current(0.0)


def test_optimal_current_against_grid_scan():
    rng = np.random.default_rng(32)
    for _ in range(5):
        x0 = float(rng.uniform(0.1, 10.0))
        xs = np.linspace(1e-3, 20.0 * x0, 100000)
        taus = (x0 + xs) ** 2 / xs
        x_scan = float(xs[np.argmin(taus)])
        x_min, tau_min = dm.optimal_current(x0)
        step = float(xs[1] - xs[0])
        assert abs(x_scan - x_min) <= step
        assert tau_min <= taus.min() + 1e-9


def test_metastable_symmetry():
    rng = np.random.default_rng(33)
    x0 = 2.0
    for _ in range(50):
        r = float(rng.uniform(0.05, 20.0))
        a = dm.counting_time(x0 * r, x0)
        b = dm.counting_time(x0 / r, x0)
        assert a == pytest.approx(b, rel=1e-12)


def test_crossover_sign():
    # past x0 the metastable time rises while the baseline keeps falling
    x0 = 1.5
    xs = np.linspace(1.05 * x0, 10.0 * x0, 50)
    meta = [dm.counting_time(float(x), x0) for x in xs]
    base = [dm.counting_time(float(x), x0, "baseline") for x in xs]
    assert all(b > a for a, b in zip(meta, meta[1:]))
    assert all(b < a for a, b in zip(base, base[1:]))


def test_lineshape_step():
    p = dm.LineShapeParams(density_scale=1.0)
    assert dm.threshold_lineshape(800.0, 818.8, p) == 0.0
    assert dm.threshold_lineshape(818.8 - 1e-9, 818.8, p) == 0.0


def test_lineshape_inverse_sqrt_scaling():
    p = dm.LineShapeParams(density_scale=1.0, bin_width=1.0)
    d1 = dm.threshold_lineshape(818.8 + 1.0001, 818.8, p)
    d4 = dm.threshold_lineshape(818.8 + 4.0004, 818.8, p)
    assert d4 == pytest.approx(d1 / 2.0, rel=1e-3)


def test_lineshape_bin_cap():
    p = dm.LineShapeParams(density_scale=3.0, bin_width=1.0)
    cap = 2.0 * 3.0 / 1.0
    assert dm.threshold_lineshape(818.8, 818.8, p) == pytest.approx(cap, rel=1e-15)
    assert dm.threshold_lineshape(818.8 + 0.5, 818.8, p) == pytest.approx(cap, rel=1e-15)


def test_lineshape_shift_moves_threshold():
    p = dm.LineShapeParams(density_scale=1.0, delta_eps_shift=5.0)
    # threshold sits at delta_eps - shift
    assert dm.threshold_lineshape(818.8 - 6.0, 818.8, p) == 0.0
    assert dm.threshold_lineshape(818.8 - 4.0, 818.8, p) > 0.0


def test_lineshape_integral_matches_closed_form():
    # trapezoid quadrature of the rendered density against 2 * scale * sqrt(X)
    p = dm.LineShapeParams(density_scale=3.0, bin_width=1.0)
    X = 100.0
    xs = np.linspace(0.0, X, 200001)
    dens = dm.threshold_lineshape(818.8 + xs, 818.8, p)
    integral = float(np.trapezoid(dens, xs))
    assert integral == pytest.approx(2.0 * 3.0 * np.sqrt(X), rel=1e-4)


@pytest.mark.parametrize(
    "t_sum, delta_eps, params",
    [
        # the edge cap 2*scale/sqrt(bin_width) overflows: returned inf
        (800.0, 800.0, dm.LineShapeParams(density_scale=1e300, bin_width=1e-300)),
        # x = T_sum - delta_eps overflows: returned 0.0 where 7e145 is right
        (1e308, -1e308, dm.LineShapeParams(density_scale=1e300)),
        (np.array([800.0, math.nan]), 800.0, dm.LineShapeParams()),
    ],
)
def test_lineshape_fails_closed(t_sum, delta_eps, params):
    with pytest.raises(ValueError):
        dm.threshold_lineshape(t_sum, delta_eps, params)


def test_lineshape_array_input():
    p = dm.LineShapeParams()
    ts = np.array([800.0, 818.8, 830.0])
    out = dm.threshold_lineshape(ts, 818.8, p)
    assert out.shape == ts.shape
    assert out[0] == 0.0 and out[1] > 0.0
