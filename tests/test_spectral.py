"""Eigenbasis exactness on the square, field projections, fractional powers."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.domain import build_domain, mask_symmetries
from fracfield.errors import DomainMismatch, EigSolveFailure
from fracfield.model import Energy
from fracfield.spectral import (
    SpectralBasis,
    _parity_frames,
    assemble_and_decompose,
    assemble_laplacian,
)
from oracles import dense_phi, mask_preserving_maps


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
    phi = dense_phi(basis)
    assert np.max(np.abs(phi[:, 0] - exact)) < 1e-8
    # (2,2) is the next nondegenerate mode; locate it by its eigenvalue
    mu22 = (4.0 / dom.h**2) * 2.0 * np.sin(2 * np.pi * dom.h / 2.0) ** 2
    k = int(np.argmin(np.abs(basis.mu - mu22)))
    exact22 = 2.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    # the four extrema tie in magnitude, so fix the sign by overlap instead of
    # re-deriving the tie-break on the sampled array
    if exact22 @ phi[:, k] < 0:
        exact22 = -exact22
    assert np.max(np.abs(phi[:, k] - exact22)) < 1e-8


def test_orthonormality_in_quadrature_inner_product():
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.08)
    basis = assemble_and_decompose(dom, alpha=0.5)
    phi = dense_phi(basis)
    gram = dom.h**2 * (phi.T @ phi)
    assert np.max(np.abs(gram - np.eye(basis.K))) < 1e-10
    assert basis.mu[0] > 0
    assert np.all(np.diff(basis.mu) >= 0)


def test_signs_and_decomposition_deterministic():
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    b1 = assemble_and_decompose(dom, alpha=0.5)
    b2 = assemble_and_decompose(dom, alpha=0.5)
    assert np.array_equal(b1.mu, b2.mu)
    phi1 = dense_phi(b1)
    assert np.array_equal(phi1, dense_phi(b2))
    peaks = phi1[np.abs(phi1).argmax(axis=0), np.arange(b1.K)]
    assert (peaks > 0).all()


def test_full_span_basis_matches_evr(unblocked_basis):
    # the basis takes LAPACK's evd routine on each symmetry block; the pairs it
    # returns must be those of evr on all of A up to rounding, and
    # orthonormal to rounding
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    n = dom.n_interior
    basis = assemble_and_decompose(dom, alpha=0.5)
    ref = unblocked_basis(dom)
    assert basis.K == ref.K == n
    assert np.max(np.abs(basis.mu - ref.mu) / ref.mu) <= 1e-12
    phi = dense_phi(basis)
    gram = dom.h**2 * (phi.T @ phi)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


# domains with their frames and distinct blocks: the swap and both mirrors
# give 6 frames, the swap-partner pair sharing one block; the mirrors alone
# give 4, the swap alone 2, no symmetry 1
_BLOCKED_DOMAINS = pytest.mark.parametrize(
    "shape, params, lam, h, n_frames, n_distinct",
    [
        ("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25, 6, 5),
        ("disk", {"R": 1.0}, 1.0, 0.1, 6, 5),
        ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.25, 4, 4),
        # h does not divide the sides: no mirror preserves the mask
        ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.3, 1, 1),
        ("rectangle", {"a": 1.0, "b": 1.0}, 2.0, 0.25, 6, 5),
        # the grid starts at a corner and falls short of the far sides, so
        # only the swap preserves the mask
        ("rectangle", {"a": 1.0, "b": 1.0}, 2.0, 0.3, 2, 2),
    ],
    ids=["annulus4", "disk", "rectangle-divided", "rectangle-undivided", "square-divided",
         "square-undivided"],
)


@_BLOCKED_DOMAINS
def test_blocked_basis_matches_unblocked_oracle(unblocked_basis, shape, params, lam, h,
                                                n_frames, n_distinct):
    dom = build_domain(shape, params, lam=lam, h=h)
    n = dom.n_interior
    frames = [Q for Q, *_ in _parity_frames(dom)]
    assert len(frames) == n_frames
    # the frames together are an orthonormal basis in which A is block diagonal
    Q = scipy.sparse.hstack(frames).toarray()
    assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-15
    A = assemble_laplacian(dom)
    B = Q.T @ (A @ Q)
    sizes = [f.shape[1] for f in frames]
    off = np.ones_like(B, dtype=bool)
    for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
        off[lo:hi, lo:hi] = False
    assert np.all(np.abs(B[off]) <= 1e-13 * np.max(np.abs(B)))

    basis = assemble_and_decompose(dom, alpha=0.5)
    ref = unblocked_basis(dom, driver="evd")
    assert basis.K == ref.K == n
    assert np.max(np.abs(basis.mu - ref.mu) / ref.mu) <= 1e-12
    assert np.all(np.diff(basis.mu) >= 0)
    phi = dense_phi(basis)
    assert np.max(np.abs(h**2 * (phi.T @ phi) - np.eye(n))) <= 1e-13
    residual = A @ phi - phi * basis.mu
    assert np.max(np.abs(residual)) <= 1e-13 * basis.mu[-1] * np.max(np.abs(phi))
    # largest |entry| positive, first index on ties; argmax takes the first
    peaks = phi[np.abs(phi).argmax(axis=0), np.arange(n)]
    assert (peaks > 0).all()


# the generators that mask_symmetries composes its elements of: the x-mirror,
# the y-mirror and the swap
_GENERATORS = (np.array([[-1, 0], [0, 1]]), np.array([[1, 0], [0, -1]]),
               np.array([[0, 1], [1, 0]]))


@_BLOCKED_DOMAINS
def test_mask_symmetries_are_the_mask_preserving_d4_maps_in_order(shape, params, lam, h,
                                                                  n_frames, n_distinct):
    # element by element and in D4 order: runner takes the first mirror that
    # topology.moving_mirrors lists, so the order is part of what the group says
    dom = build_domain(shape, params, lam=lam, h=h)
    got = mask_symmetries(dom)
    want = mask_preserving_maps(dom)
    assert len(got) == len(want)
    for (perm, used), (M, ref) in zip(got, want):
        assert np.array_equal(perm, ref)
        composed = functools.reduce(np.matmul, [_GENERATORS[j] for j in used], np.eye(2, dtype=int))
        assert np.array_equal(composed, M)


@pytest.mark.parametrize(
    "shape, params, lam, h, n_mirrors",
    [("disk", {"R": 1.0}, 1.0, 0.1, 2), ("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25, 2),
     ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.25, 2),
     # h does not divide the sides: the mask has no mirror
     ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.3, 0)],
    ids=["disk", "annulus4", "rectangle-divided", "rectangle-undivided"],
)
def test_mirror_signs_are_the_measured_signs(shape, params, lam, h, n_mirrors):
    # the sum of all modes, mirrored, analyzes to each mode's sign under the
    # mirror: the mirror acts on coefficients as the diagonal of its labels.
    # A mirror the mask lacks labels every mode 0
    dom = build_domain(shape, params, lam=lam, h=h)
    basis = assemble_and_decompose(dom, alpha=0.5)
    assert basis.mirror_signs.shape == (basis.K, 2)
    total = basis.synthesize(np.ones(basis.K)).values
    mirrors = {used[0]: perm for perm, used in mask_symmetries(dom) if used in ((0,), (1,))}
    assert len(mirrors) == n_mirrors
    for j in (0, 1):
        if j not in mirrors:
            assert not basis.mirror_signs[:, j].any()
            continue
        measured = basis.analyze(total[mirrors[j]]).coeffs
        assert np.max(np.abs(measured - basis.mirror_signs[:, j])) <= 1e-12
        assert set(basis.mirror_signs[:, j].tolist()) == {-1, 1}


@_BLOCKED_DOMAINS
def test_factored_apply_and_adjoint_match_dense_phi(shape, params, lam, h, n_frames, n_distinct):
    # matvec and rmatvec go through the factors, dense_phi forms their product
    basis = assemble_and_decompose(build_domain(shape, params, lam=lam, h=h), alpha=0.5)
    assert len(basis.blocks) == n_frames
    assert len({id(V) for V in basis.blocks}) == n_distinct
    phi = dense_phi(basis)
    rng = np.random.default_rng(5)
    c, x = rng.standard_normal((2, basis.K))
    want = phi @ c
    assert np.linalg.norm(basis.matvec(c) - want) <= 1e-13 * np.linalg.norm(want)
    want = phi.T @ x
    assert np.linalg.norm(basis.rmatvec(x) - want) <= 1e-13 * np.linalg.norm(want)
    # the two are adjoint: <phi c, x> = <c, phi^T x>
    lhs, rhs = float(basis.matvec(c) @ x), float(c @ basis.rmatvec(x))
    assert abs(lhs - rhs) <= 1e-14 * np.linalg.norm(basis.matvec(c)) * np.linalg.norm(x)


@_BLOCKED_DOMAINS
def test_green_matches_dense_product(shape, params, lam, h, n_frames, n_distinct):
    # G = h^2 phi W^-1 phi^T, applied block by block on the frames' upper
    # triangles, against the dense product of phi's columns; the rectangles
    # have no swap, or the swap alone
    basis = assemble_and_decompose(build_domain(shape, params, lam=lam, h=h), alpha=0.5)
    phi = dense_phi(basis)
    G = h**2 * (phi / basis.weights) @ phi.T
    x = np.random.default_rng(8).standard_normal((4, basis.K))
    for col in x:
        want = G @ col
        assert np.linalg.norm(basis.green(col) - want) <= 1e-13 * np.linalg.norm(want)
    # one block per frame, square, its distinct blocks as many as the V_b
    assert [g.shape[0] for g in basis._green] == [V.shape[0] for V in basis.blocks]
    assert len({id(g) for g in basis._green}) == n_distinct


@pytest.mark.parametrize(
    "shape, params, lam, h",
    [("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25), ("disk", {"R": 1.0}, 1.0, 0.1)],
    ids=["annulus4", "disk"],
)
def test_swap_partners_share_their_green_block(shape, params, lam, h):
    # the swap pair's G_b is one array, as its V_b is: the Green blocks hold
    # as many doubles as the eigenvector blocks, about n^2/8
    basis = assemble_and_decompose(build_domain(shape, params, lam=lam, h=h), alpha=0.5)
    basis.green(np.ones(basis.K))
    (k,) = [i for i in range(1, len(basis.blocks)) if basis.blocks[i] is basis.blocks[i - 1]]
    assert basis._green[k] is basis._green[k - 1]
    distinct = {id(g): g for g in basis._green}.values()
    assert sum(g.nbytes for g in distinct) == sum(
        V.nbytes for V in {id(V): V for V in basis.blocks}.values())


def test_green_blocks_are_built_once_per_basis(monkeypatch):
    # lazily, on the first product, and never again for that basis
    builds = []
    build = SpectralBasis._green_blocks
    monkeypatch.setattr(SpectralBasis, "_green_blocks",
                        lambda self: builds.append(self) or build(self))
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    basis = assemble_and_decompose(dom, alpha=0.5)
    assert builds == [] and basis._green is None
    x = np.random.default_rng(9).standard_normal(basis.K)
    first = basis.green(x)
    assert np.array_equal(basis.green(x), first)
    basis.green(2.0 * x)
    assert builds == [basis]
    other = assemble_and_decompose(dom, alpha=0.5)
    other.green(x)
    assert builds == [basis, other]


def test_identity_frame_apply_is_the_dense_product(unblocked_basis):
    # one block in the identity frame: the products are the plain dense ones,
    # bit for bit, which is what keeps the oracle basis's arithmetic fixed
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    basis = unblocked_basis(dom, driver="evd")
    (phi,) = basis.blocks
    assert np.array_equal(dense_phi(basis), phi)
    rng = np.random.default_rng(6)
    c, x = rng.standard_normal((2, basis.K))
    assert np.array_equal(basis.matvec(c), phi @ c)
    assert np.array_equal(basis.rmatvec(x), phi.T @ x)


@pytest.mark.parametrize(
    "shape, params, lam, h",
    [("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25), ("disk", {"R": 1.0}, 1.0, 0.1)],
    ids=["annulus4", "disk"],
)
def test_swap_partners_share_their_block(shape, params, lam, h):
    # the class odd in x and even in y and its swap image share one block:
    # their eigenvalues are one array, and each partner mode is its mode with
    # the nodes permuted by the swap, bit for bit
    dom = build_domain(shape, params, lam=lam, h=h)
    frames = _parity_frames(dom)
    (k,) = [i for i, (_, shared, _) in enumerate(frames) if shared]
    bounds = np.cumsum([0] + [Q.shape[1] for Q, *_ in frames])
    first, partner = slice(bounds[k - 1], bounds[k]), slice(bounds[k], bounds[k + 1])
    swap = {used: p for p, used in mask_symmetries(dom)}[(2,)]
    # A commutes with the swap, so the two frames give one block
    A = assemble_laplacian(dom)
    (Q, *_), (Q_swapped, *_) = frames[k - 1], frames[k]
    assert (Q_swapped != Q[swap]).nnz == 0
    assert np.array_equal((Q_swapped.T @ A @ Q_swapped).toarray(), (Q.T @ A @ Q).toarray())

    basis = assemble_and_decompose(dom, alpha=0.5)
    assert basis.blocks[k] is basis.blocks[k - 1]
    # block order: mode j of the stacked blocks is column position[j] of phi
    position = np.argsort(basis.order)
    mu = basis.mu[position]
    assert np.array_equal(mu[partner], mu[first])
    phi = dense_phi(basis)[:, position]
    assert np.array_equal(phi[:, partner], phi[swap][:, first])
    # each pair is two modes of the one eigenvalue, orthogonal to each other
    cross = dom.h**2 * np.sum(phi[:, partner] * phi[:, first], axis=0)
    assert np.max(np.abs(cross)) <= 1e-14


def test_basis_build_memory():
    # the build keeps the distinct block eigenvectors, the shared pair's once:
    # about n^2/8 doubles, and never forms phi. At most one block's
    # eigenvectors and LAPACK workspace, 3 (n/4)^2 for the shared pair's,
    # sit on top of those built before it. Measured on annulus4 (n = 664):
    # 0.162 n^2 held after the build and a peak of 0.260 n^2, the sparse
    # frames and A included; the bounds leave 0.03 n^2 above each
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    assemble_and_decompose(dom, alpha=0.5)  # LAPACK and scipy set up outside the trace
    n2_bytes = 8.0 * dom.n_interior**2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        basis = assemble_and_decompose(dom, alpha=0.5)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.K == dom.n_interior
    held = sum(V.nbytes for V in {id(V): V for V in basis.blocks}.values())
    assert held / n2_bytes <= 0.13
    assert (peak - before) / n2_bytes <= 0.29
    assert (after - before) / n2_bytes <= 0.19


def test_analyze_synthesize_roundtrip_in_span(square16):
    _, basis = square16
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.K)
    u = basis.synthesize(coeffs)
    assert np.array_equal(u.values, basis.matvec(coeffs))
    v = basis.analyze(u.values)
    assert np.max(np.abs(v.coeffs - coeffs)) < 1e-12 * np.max(np.abs(coeffs))
    resid = v.values - dense_phi(basis) @ v.coeffs
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
    e = Energy(basis, 2.0)
    assert e.quadratic(*e.point(u.coeffs)) == pytest.approx(want, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False, allow_infinity=False))
def test_alpha_norm_homogeneity(c):
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 9.0)
    basis = assemble_and_decompose(dom, alpha=0.5)
    rng = np.random.default_rng(11)
    u = basis.synthesize(rng.standard_normal(basis.K))
    cu = basis.synthesize(c * u.coeffs)
    e = Energy(basis, 2.0)

    def q(coeffs):
        return e.quadratic(*e.point(coeffs))

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
