"""Planted defects: every acceptance check must be able to fail.

Each row plants one defect in the program (a monkeypatch), names its owner,
the criterion that must catch it, and the labels of the owner's checks that
must FAIL under it; every other check of the owner must still hold.  Only
the owner runs, so the table stays fast.  A check that no defect can flip
is listed in IDENTITIES with the reason.
"""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from mcflab import barriers, cone_heat, fitting, flow, geometry, jacobi, params, verify


def _scaled_bracket(factor):
    exact = barriers.bracket_constant

    def plant(monkeypatch):
        monkeypatch.setattr(barriers, "bracket_constant", lambda n, lam: factor * exact(n, lam))

    return plant


def _slipped_quadratic(monkeypatch):
    # the textbook form of alpha_+ with 4c written 2c
    def forms(n):
        b, c = 2 * n - 3, 2 * (n - 1)
        return params.tail_roots(n)[0], 0.5 * (-b + math.sqrt(b * b - 2 * c))

    monkeypatch.setattr(verify, "_alpha_forms", forms)


def _slipped_curvature(k_omega, k_theta):
    # geometry.jet_curvature off the axis, with k_omega and k_theta as given
    def jet_curvature(n, r, q, q1, q2):
        s = 1.0 + q1 * q1
        sq = np.sqrt(s)
        k_r, k_o, k_t = q2 / (s * sq), k_omega(r, q1, sq), k_theta(q, sq)
        return (k_r + (n - 1) * (k_o + k_t), k_r * k_r + (n - 1) * (k_o * k_o + k_t * k_t))

    def plant(monkeypatch):
        monkeypatch.setattr(geometry, "jet_curvature", jet_curvature)

    return plant


def _slipped_axis_power_law(monkeypatch):
    # jacobi._cumulative_from_zero with the power law below r[0] integrated as 1/(p+2)
    def cumulative(xi, r, integrand):
        cum = cumulative_simpson(integrand * r, x=xi, initial=0.0)
        p = fitting.two_node_exponent(xi[1] - xi[0], integrand[0], integrand[1])
        if p is not None and p > -0.9:
            cum = cum + integrand[0] * r[0] / (p + 2.0)
        return cum

    monkeypatch.setattr(jacobi, "_cumulative_from_zero", cumulative)


def _scaled_blowup(monkeypatch):
    exact = flow.blowup_scale
    monkeypatch.setattr(flow, "blowup_scale", lambda p, t: 1.001 * exact(p, t))


def _slipped_bessel_f2(monkeypatch):
    # cone_heat._bessel_asymptotic_scaled with its factor f_2 x 1.5
    def asymptotic(mu, z):
        main, refl, term = np.ones_like(z), np.ones_like(z), np.ones_like(z)
        for k in range(1, cone_heat._ASYMP_TERMS):
            factor = (4.0 * mu * mu - (2 * k - 1) ** 2) / (8.0 * k) * (1.5 if k == 2 else 1.0)
            if factor == 0.0:
                break
            term = term * factor / z
            main += (-1) ** k * term
            refl += term
        return (main - math.sin(mu * math.pi) * np.exp(-2.0 * z) * refl) / np.sqrt(
            2.0 * math.pi * z)

    monkeypatch.setattr(cone_heat, "_bessel_asymptotic_scaled", asymptotic)


def _heavy_unit_weights(monkeypatch):
    # propagate's unit quadrature rules with every weight x (1 + 1e-6)
    rules = tuple((x, w * (1.0 + 1e-6)) for x, w in cone_heat._unit_rules())
    monkeypatch.setattr(cone_heat, "_unit_rules", lambda: rules)


# (defect, plant, owner criterion, labels that fail)
DEFECTS = [
    # the principal curvatures of the profile: a sign slip, and r^2 for r
    ("k_theta with its sign flipped",
     _slipped_curvature(lambda r, q1, sq: q1 / (r * sq), lambda q, sq: 1.0 / (q * sq)), 1,
     {"closed-form dev", "FD order"}),
    ("k_omega with r^2 for r",
     _slipped_curvature(lambda r, q1, sq: q1 / (r * r * sq), lambda q, sq: -1.0 / (q * sq)), 1,
     {"closed-form dev", "FD order"}),
    # the stretch below the first node: the exact inverse sees it at the axis,
    # the ladder's exponents only through the inner fits
    ("axis power law as 1/(p+2)", _slipped_axis_power_law, 3, {"inverse exact", "exponent dev"}),
    # a slip in the large-argument Bessel series: f_1 = 0 at mu = 1/2 ends the sum
    # before f_2, so only Weber's integral at n = 5 and 7 sees it, not the decay slope
    ("bessel asymptotic f_2 x 1.5", _slipped_bessel_f2, 4, {"Weber dev", "Weber order"}),
    # a quadrature rule 1e-6 heavy: the decay slope is blind to a constant factor
    # and the stationary mass uses scipy's quad, so only Weber's integral sees it
    ("propagate weights x (1 + 1e-6)", _heavy_unit_weights, 4, {"Weber dev", "Weber order"}),
    # the inner zoom's Lambda off by 0.1 %: the parabolic zoom does not use it
    ("blowup_scale x 1.001", _scaled_blowup, 6, {"inner-map dev"}),
    # C1 too small: v+ is no longer a supersolution
    ("bracket_constant x 0.9", _scaled_bracket(0.9), 7, {"bracket cancels", "residual min"}),
    # C1 too large: still a supersolution, so only the cancellation sees it
    ("bracket_constant x 1.1", _scaled_bracket(1.1), 7, {"bracket cancels"}),
    # a slip in one of the two forms of alpha_+ that criterion 8 compares
    ("quadratic alpha with 2c for 4c", _slipped_quadratic, 8, {"alpha-form dev"}),
]

IDENTITIES = {
    (7, "bracket exact"): "supersolution builds C1 as bracket_constant * C0 and the check "
    "compares C1 / C0 with bracket_constant, so a defect there moves both sides",
}


def _criterion(number):
    return next(c for c in verify.CRITERIA if c.number == number)


@pytest.mark.parametrize(("plant", "owner", "fails"), [row[1:] for row in DEFECTS],
                         ids=[row[0] for row in DEFECTS])
def test_planted_defect_fails_its_owner(monkeypatch, plant, owner, fails):
    criterion = _criterion(owner)
    plant(monkeypatch)
    failed = {check.label for check in criterion.measure() if not verify._judge(check)[0]}
    assert failed == fails
    passed, line = verify.run_criterion(criterion)
    assert not passed and "[FAIL]" in line


def test_identities_name_checks_that_exist():
    for number, label in IDENTITIES:
        assert label in [check.label for check in _criterion(number).measure()]
