import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracpair.core import (
    Alternative,
    Constants,
    DEFAULT_CONSTANTS,
    bisect_root,
    energy_of_momentum,
    load_constants,
    require_finite,
)

M = DEFAULT_CONSTANTS.electron_rest_energy


def test_rest_energy_value():
    assert M == 510.998950
    assert DEFAULT_CONSTANTS.fine_structure == 7.2973525693e-3
    assert energy_of_momentum(0.0) == M


def test_energy_at_p_equals_m():
    # direct evaluation of sqrt(p^2 + m^2) at p = m
    expected = M * math.sqrt(2.0)
    assert energy_of_momentum(M) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(722.66, abs=5e-3)


def test_mass_shell_identity():
    p = 0.75 * M
    e = energy_of_momentum(p)
    assert e * e - p * p == pytest.approx(M * M, rel=1e-15)


def test_even_and_monotone():
    ps = np.linspace(0.0, 5.0 * M, 200)
    es = energy_of_momentum(ps)
    assert np.all(np.diff(es) > 0.0)
    assert np.allclose(energy_of_momentum(-ps), es, rtol=0.0, atol=0.0)
    assert np.all(es >= M)


def test_alternative_parsing():
    assert Alternative.from_string("d1") is Alternative.D1
    assert Alternative.from_string("D2") is Alternative.D2
    with pytest.raises(ValueError):
        Alternative.from_string("d3")


def test_constants_validation():
    with pytest.raises(ValueError):
        Constants(electron_rest_energy=-1.0)
    with pytest.raises(ValueError):
        Constants(fine_structure=1.5)
    with pytest.raises(ValueError):
        Constants(numeric_tolerance=0.0)
    for field in ("electron_rest_energy", "fine_structure", "numeric_tolerance"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Constants(**{field: bad})


def test_constants_need_a_normal_mass():
    # m^2 must be a finite normal float: the edges are sqrt(min) and sqrt(max)
    lo, hi = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
    assert (lo, hi) == (1.4916681462400413e-154, 1.3407807929942596e154)
    assert Constants(electron_rest_energy=lo).m == lo
    assert Constants(electron_rest_energy=hi).m == hi
    # subnormal masses, masses whose square is subnormal or overflows (an int's
    # square does not overflow, but its float does), and the p = 0 masses that
    # algebra.energy_p once had to refuse
    for bad in (5e-324, 1e-320, sys.float_info.min / 2, sys.float_info.min, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 10**200, 1e-160, 1e300):
        with pytest.raises(ValueError, match="^m_e_keV"):
            Constants(electron_rest_energy=bad)


def test_load_constants(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"m_e_keV": 511.0, "alpha0": 1.0 / 137.0}))
    c = load_constants(path)
    assert c.electron_rest_energy == 511.0
    assert c.fine_structure == pytest.approx(1.0 / 137.0)
    # unknown keys are rejected
    path.write_text(json.dumps({"m_keV": 511.0}))
    with pytest.raises(ValueError):
        load_constants(path)


def test_bisect_root():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)


def test_require_finite():
    require_finite("x", 1.5)
    require_finite("xs", (0.0, -2.0, 3.0))
    require_finite("n", 3, positive=True)
    for bad in (math.nan, math.inf, -math.inf, (1.0, math.nan)):
        with pytest.raises(ValueError, match="x must be finite"):
            require_finite("x", bad)
    for bad in (0, -1.0, (1.0, 0.0)):
        with pytest.raises(ValueError, match="n must be positive"):
            require_finite("n", bad, positive=True)


def _require_finite_before(name, value, positive=False):
    """``require_finite`` with every value through np.asarray: the reference for its scalar branch."""
    x = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not np.all(x > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def _outcome(check, value, positive):
    try:
        check("x", value, positive=positive)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_checked_values = st.one_of(
    _any_float,
    st.sampled_from((0.0, -0.0, 0, -1, 1, True, False, math.nan, math.inf, -math.inf)),
    st.integers(),
    st.booleans(),
    _any_float.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.lists(st.one_of(_any_float, st.integers()), min_size=1, max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(value=_checked_values, positive=st.booleans())
@example(value=10**400, positive=False)
def test_require_finite_scalar_branch_matches_array_check(value, positive):
    assert _outcome(require_finite, value, positive) == _outcome(_require_finite_before, value, positive)
