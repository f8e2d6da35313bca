"""Pointwise nonlinearity and energy/gradient machinery against finite differences.

The gradient and Hessian-vector oracles are central finite differences of an
independently written energy evaluation in coefficient space, so agreement
validates both the analytic coefficient formulas and the reported values.
"""

from __future__ import annotations

import numpy as np
import pytest

from fracfield.config import default_config, validate_config
from fracfield.domain import build_domain
from fracfield.errors import ConfigInvalid
from fracfield.model import (
    Energy,
    H_eval,
    h_eval,
    h_prime,
)
from fracfield.nehari import nehari_scale
from fracfield.spectral import assemble_and_decompose
from oracles import dense_phi

P = 2.0


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, alpha=0.5)


def _energy_value(basis, p, coeffs: np.ndarray) -> float:
    # independent of model.Energy: raw definition in coefficient space
    values = dense_phi(basis) @ coeffs
    quad = 0.5 * float(np.sum(basis.weights * coeffs**2))
    pot = basis.dom.h**2 * float(np.sum(H_eval(p, values)))
    return quad - pot


def _positive_bump_coeffs(basis, offset: float = 0.5) -> np.ndarray:
    x = basis.dom.node_coords
    values = np.exp(-8.0 * ((x[:, 0]) ** 2 + (x[:, 1]) ** 2)) + offset
    return basis.analyze(values).coeffs


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
    values = e.values(c)
    quadratic_part = 0.5 * e.quadratic(c)
    potential_part = basis.dom.h**2 * float(np.sum(H_eval(P, values)))
    value = e.energy(c, values)
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
    g = e.grad(c0, e.values(c0))
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
    g = e.grad(c, e.values(c))
    # by orthonormality the coefficient norm is the quadrature L2 norm of the
    # synthesized gradient field
    grad_norm = float(np.sqrt(g @ g))
    gv = basis.synthesize(g).values
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
        gp = e.grad(c0 + eps * v, e.values(c0 + eps * v))
        gm = e.grad(c0 - eps * v, e.values(c0 - eps * v))
        fd = (gp - gm) / (2 * eps)
        hv = e.hessian(e.values(c0))(v)
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

    foreign = assemble_and_decompose(other, alpha=0.5)
    u = foreign.synthesize(np.ones(foreign.K))
    # Energy works on raw arrays; the Field entry points check the domain
    with pytest.raises(DomainMismatch):
        nehari_scale(Energy(square16, P), u)
