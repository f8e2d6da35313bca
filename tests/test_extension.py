"""Profile ODE correctness, flux normalization, and the mu^alpha energy identity."""

import math

import mpmath
import numpy as np
import pytest

from fracfield.errors import QuadratureFailure
from fracfield.extension import extension_energy, k_alpha, solve_profile
from oracles import ode_residual, profile_samples

ALPHAS = (0.25, 0.5, 0.75)


@pytest.fixture(scope="module")
def profiles():
    return {a: solve_profile(a) for a in ALPHAS}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_k_alpha_against_independent_gamma(alpha):
    # oracle: multiprecision gamma, evaluated independently of math.gamma
    want = float(
        mpmath.mpf(2) ** (1 - 2 * alpha) * mpmath.gamma(1 - alpha) / mpmath.gamma(alpha)
    )
    assert k_alpha(alpha) == pytest.approx(want, rel=1e-13)


def test_half_alpha_profile_is_exp(profiles):
    p = profiles[0.5]
    s = np.linspace(1e-9, 10.0, 4001)
    assert np.max(np.abs(p.psi(s) - np.exp(-s))) < 1e-8
    assert np.max(np.abs(p.psi_prime(s) + np.exp(-s))) < 1e-8
    assert k_alpha(0.5) == 1.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_flux_limit_matches_k_alpha(alpha, profiles):
    assert abs(profiles[alpha].flux_limit() - k_alpha(alpha)) < 1e-6


@pytest.mark.parametrize("alpha", ALPHAS)
def test_profile_positive_decreasing(alpha, profiles):
    p = profiles[alpha]
    psi = profile_samples(p)[:, 1]
    assert (psi > 0).all()
    assert (np.diff(psi) < 1e-14).all()
    # psi(0+) = 1, approached at the Frobenius rate s^(2*alpha)
    s_small = 1e-10
    gap = k_alpha(alpha) / (2 * alpha) * s_small ** (2 * alpha)
    assert abs(p.psi(np.array([s_small]))[0] - 1.0) <= 2 * gap + 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ode_residual_small_on_samples(alpha, profiles):
    p = profiles[alpha]
    s = profile_samples(p)[:, 0]
    # below 1e-4 the evaluations are the Frobenius series itself, and the FD
    # stencil degenerates; above s_max the march has no dense output
    s = s[(s >= 1e-4) & (s <= p.s_max - 1e-3)]
    assert np.max(ode_residual(p, s)) < 1e-7


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("mu", (1.0, 4.0))
def test_extension_energy_is_mu_to_alpha(alpha, mu, profiles):
    got = extension_energy(profiles[alpha], mu)
    assert abs(got - mu**alpha) / mu**alpha < 1e-5


def test_extension_energy_scaling_sweep(profiles):
    # broader mu sweep than the frozen pairs, same identity
    p = profiles[0.75]
    for mu in (0.3, 2.0, 7.5):
        assert extension_energy(p, mu) == pytest.approx(mu**0.75, rel=1e-6)


def test_quadrature_failure_when_tail_dominates():
    # s_max at the allowed minimum leaves an e^(-10) tail, far above the gate
    p = solve_profile(0.5, s_max=5.0)
    with pytest.raises(QuadratureFailure):
        extension_energy(p, 1.0)


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        solve_profile(1.2)
    with pytest.raises(ValueError):
        solve_profile(0.5, s_max=3.0)
    p = solve_profile(0.5)
    with pytest.raises(ValueError):
        extension_energy(p, -1.0)


def test_profile_series_march_agree_at_interior_point():
    # psi is evaluated by series below s0=1 and by the march above; the two
    # representations must agree across the seam
    p = solve_profile(0.3)
    left = p.psi(np.array([1.0 - 1e-9]))[0]
    right = p.psi(np.array([1.0 + 1e-9]))[0]
    assert left == pytest.approx(right, rel=1e-7)
    dleft = p.psi_prime(np.array([1.0 - 1e-9]))[0]
    dright = p.psi_prime(np.array([1.0 + 1e-9]))[0]
    assert dleft == pytest.approx(dright, rel=1e-7)


def test_samples_table_layout():
    p = solve_profile(0.5)
    table = profile_samples(p, 123)
    assert table.shape == (123, 3)
    s = table[:, 0]
    assert s[0] == pytest.approx(1e-8)
    assert s[-1] == pytest.approx(p.s_max)
    assert (np.diff(np.log(s)) > 0).all()
    assert np.array_equal(table[:, 1], p.psi(s))
    assert np.array_equal(table[:, 2], p.psi_prime(s))
