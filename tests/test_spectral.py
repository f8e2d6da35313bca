"""Eigenbasis exactness on the square, field projections, fractional powers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.domain import build_domain
from fracfield.errors import DomainMismatch, EigSolveFailure
from fracfield.model import Energy, power_model
from fracfield.spectral import assemble_and_decompose, assemble_laplacian


def _closed_form_square(n_side):
    """Sorted eigenvalues of the 5-point Laplacian on the unit square."""
    h = 1.0 / (n_side + 1)
    j = np.arange(1, n_side + 1)
    s = (4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2
    return np.sort((s[:, None] + s[None, :]).ravel())


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 17.0)
    return dom, assemble_and_decompose(dom, alpha=0.5)


def test_square_eigenvalues_match_closed_form(square16):
    _, basis = square16
    exact = _closed_form_square(16)[: basis.K]
    assert np.max(np.abs(basis.mu - exact) / exact) < 1e-10


def test_square_eigenvector_is_sine_product(square16):
    dom, basis = square16
    x = dom.node_coords[:, 0] + 0.5
    y = dom.node_coords[:, 1] + 0.5
    # fundamental mode (j=k=1) is nondegenerate; discrete eigenvector equals
    # the sampled sine product, already unit-norm in the h^2 inner product
    exact = 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
    assert np.max(np.abs(basis.phi[:, 0] - exact)) < 1e-8
    # (2,2) is the next nondegenerate mode; locate it by its eigenvalue
    mu22 = (4.0 / dom.h**2) * 2.0 * np.sin(2 * np.pi * dom.h / 2.0) ** 2
    k = int(np.argmin(np.abs(basis.mu - mu22)))
    exact22 = 2.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    # the four extrema tie in magnitude, so fix the sign by overlap instead of
    # re-deriving the tie-break on the sampled array
    if exact22 @ basis.phi[:, k] < 0:
        exact22 = -exact22
    assert np.max(np.abs(basis.phi[:, k] - exact22)) < 1e-8


def test_orthonormality_in_quadrature_inner_product():
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.08)
    basis = assemble_and_decompose(dom, alpha=0.5)
    gram = dom.h**2 * (basis.phi.T @ basis.phi)
    assert np.max(np.abs(gram - np.eye(basis.K))) < 1e-10
    assert basis.mu[0] > 0
    assert np.all(np.diff(basis.mu) >= 0)


def test_signs_and_decomposition_deterministic():
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    b1 = assemble_and_decompose(dom, alpha=0.5)
    b2 = assemble_and_decompose(dom, alpha=0.5)
    assert np.array_equal(b1.mu, b2.mu)
    assert np.array_equal(b1.phi, b2.phi)
    peaks = b1.phi[np.abs(b1.phi).argmax(axis=0), np.arange(b1.K)]
    assert (peaks > 0).all()


def test_full_span_basis_matches_evr(evr_basis):
    # the basis takes LAPACK's evd routine; the pairs it returns must be
    # those of evr up to rounding, and orthonormal to rounding
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    n = dom.n_interior
    basis = assemble_and_decompose(dom, alpha=0.5)
    ref = evr_basis(dom)
    assert basis.K == ref.K == n
    assert np.max(np.abs(basis.mu - ref.mu) / ref.mu) <= 1e-12
    gram = dom.h**2 * (basis.phi.T @ basis.phi)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_analyze_synthesize_roundtrip_in_span(square16):
    _, basis = square16
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.K)
    u = basis.synthesize(coeffs)
    assert np.array_equal(u.values, basis.phi @ coeffs)
    v = basis.analyze(u.values)
    assert np.max(np.abs(v.coeffs - coeffs)) < 1e-12 * np.max(np.abs(coeffs))
    resid = v.values - basis.phi @ v.coeffs
    assert np.linalg.norm(resid) < 1e-12 * np.linalg.norm(v.values)


def test_fractional_apply_alpha1_matches_stencil(square16):
    dom, _ = square16
    basis = assemble_and_decompose(dom, alpha=1.0)
    L = assemble_laplacian(dom)
    rng = np.random.default_rng(3)
    u = basis.synthesize(rng.standard_normal(basis.K))
    lu = basis.analyze(L @ u.values)
    want = basis.mu * u.coeffs
    assert np.max(np.abs(lu.coeffs - want)) < 1e-8 * np.max(np.abs(want))


def test_energy_norm_fundamental_mode(square16):
    _, basis = square16
    e0 = np.zeros(basis.K)
    e0[0] = 3.0
    u = basis.synthesize(e0)
    want = 9.0 * (basis.mu[0] ** 0.5 + 1.0)
    assert Energy(basis, power_model()).quadratic(u.coeffs) == pytest.approx(want, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False, allow_infinity=False))
def test_alpha_norm_homogeneity(c):
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 9.0)
    basis = assemble_and_decompose(dom, alpha=0.5)
    rng = np.random.default_rng(11)
    u = basis.synthesize(rng.standard_normal(basis.K))
    cu = basis.synthesize(c * u.coeffs)
    q = Energy(basis, power_model()).quadratic
    assert q(cu.coeffs) == pytest.approx(c * c * q(u.coeffs), rel=1e-12, abs=1e-12)


def test_domain_mismatch_raised(square16):
    _, basis = square16
    with pytest.raises(DomainMismatch):
        basis.analyze(np.zeros(10))
    other = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    other_basis = assemble_and_decompose(other, alpha=0.5)
    u = other_basis.synthesize(np.zeros(other_basis.K))
    with pytest.raises(DomainMismatch):
        basis.check_same_domain(u.dom)
    with pytest.raises(DomainMismatch):
        basis.synthesize(np.zeros(basis.K + 5))


def test_bad_alpha_and_k_rejected(square16):
    dom, _ = square16
    with pytest.raises(EigSolveFailure):
        assemble_and_decompose(dom, alpha=1.5)
