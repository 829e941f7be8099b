import math
import warnings

import numpy as np
import pytest

from mcflab.params import (
    admissible_window_exists,
    blowup_scale,
    derive_constants,
    exponent_condition,
)
from mcflab.params import _alpha_forms


def test_reference_values_n4():
    p = derive_constants(4, 2)
    assert p.alpha == pytest.approx(-2.0, abs=1e-14)
    assert p.alpha_minus == pytest.approx(-3.0, abs=1e-14)
    assert p.lambda_k == pytest.approx(0.5, abs=1e-14)
    assert p.sigma_k == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert p.mu == pytest.approx(0.5, abs=1e-14)


def test_reference_values_n4_k4():
    # lambda = (alpha-1)/2 + k with alpha = -2
    p = derive_constants(4, 4)
    assert p.lambda_k == pytest.approx(2.5, abs=1e-14)
    assert p.sigma_k == pytest.approx(5.0 / 6.0, abs=1e-14)


def test_reference_values_n5():
    p = derive_constants(5, 2)
    assert p.mu == pytest.approx(math.sqrt(17.0) / 2.0, abs=1e-14)
    assert p.mu > 2.0
    assert abs(p.alpha) < 1.5


def test_alpha_forms_agree_up_to_n64():
    for n in range(4, 65):
        a1, a2 = _alpha_forms(n)
        assert abs(a1 - a2) <= 1e-12


def test_mu_alpha_cross_identity():
    for n in range(4, 65):
        p = derive_constants(n, 2)
        assert abs((p.mu + 0.5) - (n - 1 + p.alpha)) <= 1e-12


def test_abs_alpha_decreasing_to_one():
    vals = [abs(derive_constants(n, 2).alpha) for n in range(4, 65)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.02
    assert all(v > 1.0 for v in vals)


@pytest.mark.parametrize("n", [4, 5, 7])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_positivity_and_half_bound(n, k):
    p = derive_constants(n, k)
    assert p.lambda_k > 0.0
    assert p.sigma_k > 0.0
    assert 2.0 * p.lambda_k - 1.0 >= -1e-14


def test_domain_errors_name_the_bound():
    with pytest.raises(ValueError, match="n must be >= 4"):
        derive_constants(3, 2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        derive_constants(4, 1)
    for T in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            derive_constants(4, 2, T=T)


def test_exponent_condition_values():
    p = derive_constants(4, 2)
    cond = exponent_condition(p, 2.1)
    assert cond.value == pytest.approx(0.5 * (1.0 - 2.1 / 3.0) - 0.5, abs=1e-14)
    assert cond.value < 0.0 and not cond.admissible

    p4 = derive_constants(4, 4)
    cond4 = exponent_condition(p4, 2.1)
    assert cond4.value == pytest.approx(0.25, abs=1e-12)
    assert cond4.admissible

    p53 = derive_constants(5, 3)
    cond53 = exponent_condition(p53, abs(p53.alpha) + 1e-3)
    assert cond53.admissible


def test_exponent_condition_warns_outside_window():
    p = derive_constants(4, 2)
    with pytest.warns(UserWarning, match="outside the admissible window"):
        exponent_condition(p, 5.0)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_exponent_condition_refuses_a_nonfinite_a(a):
    with pytest.raises(ValueError, match="weight exponent a must be finite"):
        exponent_condition(derive_constants(4, 2), a)


def test_admissibility_table():
    # lowest mode never admissible; n=4 needs k>=4; n>=5 admits k>=3
    for n in (4, 5, 6, 7):
        assert not admissible_window_exists(derive_constants(n, 2))
    assert not admissible_window_exists(derive_constants(4, 3))
    assert admissible_window_exists(derive_constants(4, 4))
    for n in (5, 6, 7):
        assert admissible_window_exists(derive_constants(n, 3))


def scanned_window_exists(p):
    """Whether any of 400 probes of the open window (|alpha|, |alpha|+1)
    satisfies the exponent condition: the reference for the closed form."""
    deltas = [(i + 1) / 401 for i in range(400)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return any(exponent_condition(p, p.abs_alpha + d).admissible for d in deltas)


@pytest.mark.parametrize("k", range(2, 11))
def test_admissible_window_matches_the_scan(k):
    # (4, 3) sits on the boundary: sigma = 1/2 exactly, and no a is admissible
    assert derive_constants(4, 3).sigma_k == 0.5
    for n in range(4, 65):
        p = derive_constants(n, k)
        assert admissible_window_exists(p) == scanned_window_exists(p), (n, k)


def test_blowup_scale():
    p = derive_constants(4, 2, T=1.0)
    assert blowup_scale(p, 0.0) == pytest.approx(1.0, abs=0.0)
    p44 = derive_constants(4, 4, T=1.0)
    # sigma + 1/2 = 4/3, so (0.01)^(-4/3) = 100^(4/3)
    assert blowup_scale(p44, 0.99) == pytest.approx(100.0 ** (4.0 / 3.0), rel=1e-13)
    ts = np.linspace(0.0, 0.99, 50)
    vals = [blowup_scale(p44, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        blowup_scale(p, 1.0)
