"""Pointwise nonlinearity and energy/gradient machinery against finite differences.

The gradient and Hessian-vector oracles are central finite differences of an
independently written energy evaluation in coefficient space, on the tests'
dense phi, so agreement validates both the nodal formulas and the reported
values.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from fracfield.config import default_config, validate_config
from fracfield.domain import build_domain
from fracfield.errors import ConfigInvalid
from fracfield import nehari
from fracfield.model import (
    Energy,
    H_eval,
    PinnedEnergy,
    RestrictedEnergy,
    _barycenter,
    h_eval,
    h_prime,
)
from fracfield.nehari import gaussian_bump_seed
from fracfield.spectral import Field, assemble_and_decompose
from oracles import (
    coefficient_grad,
    coefficient_hessian,
    coefficients,
    dense_phi,
    energy_at,
    synthesize,
    weights,
)

P = 2.0


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, alpha=0.5)


def _energy_value(basis, p, coeffs: np.ndarray) -> float:
    # independent of model.Energy: raw definition in coefficient space
    values = dense_phi(basis) @ coeffs
    quad = 0.5 * float(np.sum(weights(basis) * coeffs**2))
    pot = basis.dom.h**2 * float(np.sum(H_eval(p, values)))
    return quad - pot


def _positive_bump_coeffs(basis, offset: float = 0.5) -> np.ndarray:
    x = basis.dom.node_coords
    values = np.exp(-8.0 * ((x[:, 0]) ** 2 + (x[:, 1]) ** 2)) + offset
    return coefficients(basis, Field(basis.dom, values))


def test_pointwise_evaluations_and_vectorization():
    s = np.array([-2.0, -1e-9, 0.0, 1e-9, 0.5, 3.0])
    np.testing.assert_allclose(h_eval(P, s), [0.0, 0.0, 0.0, 1e-18, 0.25, 9.0], rtol=1e-12)
    np.testing.assert_allclose(h_prime(P, s), [0.0, 0.0, 0.0, 2e-9, 1.0, 6.0], rtol=1e-12)
    np.testing.assert_allclose(H_eval(P, s), [0.0, 0.0, 0.0, 1e-27 / 3, 0.25 / 6, 9.0], rtol=1e-12)
    assert float(h_eval(P, 2.0)) == 4.0


def test_critical_exponent_and_subcriticality():
    # config validation keeps p + 1 below the fractional critical exponent
    # 2N/(N - 2 alpha) in the plane, N = 2; at alpha = 0.5 that is 4
    cfg = default_config("solve")
    for alpha in (0.25, 0.5, 0.75):
        critical = 2 * 2 / (2 - 2 * alpha)
        cfg["model"]["alpha"] = alpha
        cfg["model"]["p"] = (critical - 1) * (1 - 1e-9)
        validate_config(cfg)
        for p in ((critical - 1) * (1 + 1e-9), critical):
            cfg["model"]["p"] = p
            with pytest.raises(ConfigInvalid, match=r"model\.p"):
                validate_config(cfg)
    cfg["model"]["alpha"], cfg["model"]["p"] = 0.5, P
    assert validate_config(cfg).p + 1 < 2 * 2 / (2 - 2 * 0.5)


def test_energy_identity_and_parts(square16):
    basis = square16
    e = Energy(basis, P)
    c = _positive_bump_coeffs(basis)
    values, r = e.point(dense_phi(basis) @ c)
    quadratic_part = 0.5 * e.quadratic(values, r)
    potential_part = basis.dom.h**2 * float(np.sum(H_eval(P, values)))
    value = e.energy(values, 2.0 * quadratic_part)
    assert value == pytest.approx(quadratic_part - potential_part, abs=1e-12)
    assert potential_part > 0
    assert quadratic_part > 0
    assert value == pytest.approx(_energy_value(basis, P, c), rel=1e-12)


@pytest.mark.parametrize("seed,offset", [(0, 0.5), (1, 0.5), (2, 0.0)])
def test_gradient_matches_central_differences(square16, seed, offset):
    basis = square16
    rng = np.random.default_rng(seed)
    if offset > 0:
        c0 = _positive_bump_coeffs(basis, offset)
    else:
        c0 = rng.standard_normal(basis.K) * 0.3  # sign-changing field
    e = Energy(basis, P)
    g = coefficient_grad(e, c0)
    eps = 1e-6 * max(1.0, float(np.linalg.norm(c0)))
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(basis.K)
        v /= np.linalg.norm(v)
        fd = (_energy_value(basis, P, c0 + eps * v) - _energy_value(basis, P, c0 - eps * v)) / (2 * eps)
        ref = max(abs(fd), 1e-10)
        worst = max(worst, abs(fd - float(g @ v)) / ref)
    assert worst <= 1e-6


def test_gradient_norm_is_coefficient_norm(square16):
    basis = square16
    e = Energy(basis, P)
    c = _positive_bump_coeffs(basis)
    g = coefficient_grad(e, c)
    # by orthonormality the coefficient norm is the quadrature L2 norm of the
    # synthesized gradient field
    grad_norm = float(np.sqrt(g @ g))
    gv = synthesize(basis, g).values
    assert grad_norm == pytest.approx(np.sqrt(basis.dom.h**2 * (gv @ gv)), rel=1e-10)


def test_hessian_vector_matches_gradient_differences(square16):
    basis = square16
    c0 = _positive_bump_coeffs(basis, offset=0.5)  # stays away from the kink at 0
    e = Energy(basis, P)
    rng = np.random.default_rng(7)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(basis.K)
        v /= np.linalg.norm(v)
        gp = coefficient_grad(e, c0 + eps * v)
        gm = coefficient_grad(e, c0 - eps * v)
        fd = (gp - gm) / (2 * eps)
        hv = coefficient_hessian(e, c0)(v)
        worst = max(worst, float(np.linalg.norm(fd - hv) / max(np.linalg.norm(fd), 1e-10)))
    assert worst <= 1e-5


def test_ray_has_mountain_pass_profile(square16):
    # along t -> I(t u) for a positive bump: rise from 0, unique interior
    # positive max, then monotone decrease through negative values
    basis = square16
    c0 = _positive_bump_coeffs(basis, offset=0.0)
    ts = np.geomspace(1e-3, 1e3, 400)
    vals = np.array([_energy_value(basis, P, t * c0) for t in ts])
    k = int(np.argmax(vals))
    assert 0 < k < ts.size - 1
    assert vals[k] > 0
    assert np.all(np.diff(vals[: k + 1]) > 0)
    assert np.all(np.diff(vals[k:]) < 0)
    assert vals[-1] < 0
    assert vals[0] < vals[k] * 1e-3


def test_energy_rejects_foreign_domain(square16):
    other = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.2)
    from fracfield.errors import DomainMismatch

    u = Field(other, np.ones(other.n_interior))
    # Energy works on raw arrays; the solvers that take a Field check its domain
    with pytest.raises(DomainMismatch):
        nehari.ground_state(Energy(square16, P), u)


def test_restricted_energy_needs_a_mirror_of_the_mask():
    # h does not divide the rectangle's sides, so the mask has no mirror and
    # no frame is even under one: the restriction would be to nothing
    dom = build_domain("rectangle", {"a": 2.0, "b": 1.0}, lam=2.0, h=0.3)
    basis = assemble_and_decompose(dom, alpha=0.5)
    with pytest.raises(ValueError, match="no mirror"):
        RestrictedEnergy(basis, P, 0)


def _random_point(basis, seed):
    """Coefficients c of a random field with a positive part, and a direction v."""
    rng = np.random.default_rng(seed)
    c = _positive_bump_coeffs(basis) + 0.05 * rng.standard_normal(basis.K)
    return c, rng.standard_normal(basis.K)


def test_nodal_forms_equal_the_coefficient_forms(square16):
    # the nodal point (phi c, L phi c), its dual gradient, the pairing, the
    # Riesz map and measure against the coefficient forms, with a dense phi
    basis = square16
    phi, w = dense_phi(basis), weights(basis)
    e = Energy(basis, P)
    for seed in (0, 1):
        c, v = _random_point(basis, seed)
        u, r = e.point(phi @ c)
        assert np.linalg.norm(r - phi @ (w * c)) <= 1e-12 * np.linalg.norm(r)
        assert e.quadratic(u, r) == pytest.approx(float(c @ (w * c)), rel=1e-12)
        g = e.grad(u, r)
        g_c = w * c - e.h2 * phi.T @ h_eval(P, phi @ c)
        assert np.linalg.norm(e.h2 * phi.T @ g - g_c) <= 1e-12 * np.linalg.norm(g_c)
        pairing = e.h2 * float(g @ (phi @ v))
        assert pairing == pytest.approx(float(g_c @ v), rel=1e-12)
        riesz = phi @ (g_c / w)
        assert np.linalg.norm(e.riesz(g)[0] - riesz) <= 1e-12 * np.linalg.norm(riesz)
        assert e.h2 * float(g @ e.riesz(g)[0]) == pytest.approx(float(g_c @ (g_c / w)), rel=1e-12)
        F, gd, r_m = e.measure(u)
        assert np.array_equal(r_m, r)
        assert F == pytest.approx(_energy_value(basis, P, c), rel=1e-12)
        assert gd == pytest.approx(float(g_c @ (g_c / w)), rel=1e-12)


def test_pinned_dual_matches_energy_differences(square16):
    # the penalty's nodal dual, paired with a point, is the derivative of F
    # along it; x_tilde off the barycenter and rho making the penalty count
    basis = square16
    e = Energy(basis, P)
    c, v = _random_point(basis, 2)
    u, r = e.point(dense_phi(basis) @ c)
    pinned = PinnedEnergy(basis, P, 50.0, _barycenter(basis.dom, u)[1] + np.array([0.1, -0.2]))
    g = pinned.grad(u, r)
    g_plain = e.grad(u, r)
    eps = 1e-6
    fd = (energy_at(pinned, c + eps * v) - energy_at(pinned, c - eps * v)) / (2.0 * eps)
    dv = dense_phi(basis) @ v
    assert pinned.h2 * float(g @ dv) == pytest.approx(fd, rel=1e-7)
    # the penalty's part alone
    fd_plain = (energy_at(e, c + eps * v) - energy_at(e, c - eps * v)) / (2.0 * eps)
    pen = pinned.h2 * float((g - g_plain) @ dv)
    assert abs(pen) >= 0.1 * abs(fd)
    assert pen == pytest.approx(fd - fd_plain, rel=1e-6)


@pytest.mark.parametrize("objective", ["plain", "pinned"])
def test_a_step_and_a_cg_iteration_apply_one_green(square16, count_products, objective):
    # an L-BFGS step of the descent kernel and one CG iteration of its Newton
    # direction each apply the Green operator once and L not at all
    basis = square16
    e = Energy(basis, P)
    obj = e if objective == "plain" else PinnedEnergy(basis, P, 5.0, np.array([0.05, 0.0]))
    c = gaussian_bump_seed(basis, (0.2, -0.1), 0.2).values
    names = ("operator", "green")

    def counted(call):
        with contextlib.ExitStack() as stack:
            calls = [stack.enter_context(count_products(name)) for name in names]
            out = call()
        return out, [n[0] for n in calls]

    # steps 3 and 4 are L-BFGS steps accepted by Armijo, before any Newton
    # step: one more step costs one green; the ends cancel
    runs = [counted(lambda k=k: nehari._retracted_descent(obj, obj.point(c), 1e-14, k))
            for k in (3, 4)]
    assert [out[3] for out, _ in runs] == [3, 4]
    assert [b - a for a, b in zip(runs[0][1], runs[1][1])] == [0, 1]

    x = obj.retract(*obj.point(c))
    gp = obj.riesz(obj.grad(*x))
    E = obj.curvature(x[0])
    calls = [0]

    def counted_E(z):
        calls[0] += 1
        return E(z)

    (y, used), products = counted(
        lambda: nehari._newton_direction(obj, x, gp, counted_E, 1e-6))
    # E runs once for J'(u) and once per CG iteration, green once for the
    # Riesz image of J'(u) and once per CG iteration that did not stop at
    # nonpositive curvature
    assert y is not None and used == calls[0] > 2
    assert products[0] == 0
    assert products[1] in (used - 1, used)
