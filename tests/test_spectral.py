"""The operators L = A^alpha + I and G = L^-1: exactness on the square, the
blocked build against dense products, fractional powers."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.domain import build_domain
from fracfield.errors import DomainMismatch, EigSolveFailure
from fracfield.model import Energy, RestrictedEnergy
from fracfield import spectral
from fracfield.spectral import (
    Field,
    _parity_frames,
    assemble_and_decompose,
    assemble_laplacian,
)
from oracles import (
    dense_eigenpairs,
    dense_phi,
    mask_preserving_maps,
    restricted_operators,
    weights,
)


def _closed_form_square(n_side):
    """(s, j): the 1-D eigenvalues s_j = (4/h^2) sin^2(j pi h/2) of the
    second difference on n_side nodes, and their indices j. Mode (j, k) of
    the 5-point Laplacian on the unit square has eigenvalue s_j + s_k and
    the sampled sine product _sine(dom, j, k) as eigenvector."""
    h = 1.0 / (n_side + 1)
    j = np.arange(1, n_side + 1)
    return (4.0 / h**2) * np.sin(j * np.pi * h / 2.0) ** 2, j


def _sine(dom, j, k):
    """The sine product of mode (j, k) at the nodes, unit-norm in the h^2 inner product."""
    x = dom.node_coords[:, 0] + 0.5
    y = dom.node_coords[:, 1] + 0.5
    return 2.0 * np.sin(j * np.pi * x) * np.sin(k * np.pi * y)


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 17.0)
    return dom, assemble_and_decompose(dom, alpha=0.5)


def test_square_eigenvalues_match_closed_form(square16):
    # every sampled sine product is an eigenvector of L = A^alpha + I with
    # the closed-form eigenvalue mu^alpha + 1, mu = s_j + s_k
    dom, basis = square16
    s, j = _closed_form_square(16)
    worst = 0.0
    for a in range(16):
        for b in range(16):
            sine = _sine(dom, j[a], j[b])
            w = (s[a] + s[b]) ** 0.5 + 1.0
            worst = max(worst, np.linalg.norm(basis.operator(sine) - w * sine)
                        / (w * np.linalg.norm(sine)))
    assert worst < 1e-10


def test_square_eigenvector_is_sine_product(square16):
    # the fundamental mode (j=k=1) and (2,2), both nondegenerate: L and G
    # scale the sampled sine product, unit-norm in the h^2 inner product, by
    # w and 1/w, and it is the oracle's eigenvector up to sign
    dom, basis = square16
    s, _ = _closed_form_square(16)
    phi = dense_phi(basis)
    for j, col in ((1, 0), (2, None)):
        sine = _sine(dom, j, j)
        w = (2.0 * s[j - 1]) ** 0.5 + 1.0
        assert np.max(np.abs(basis.operator(sine) - w * sine)) < 1e-8 * w
        assert np.max(np.abs(basis.green(sine) - sine / w)) < 1e-8 / w
        assert dom.h**2 * float(sine @ sine) == pytest.approx(1.0, rel=1e-12)
        if col is not None:
            assert np.max(np.abs(np.abs(phi[:, col]) - np.abs(sine))) < 1e-8


def test_orthonormality_in_quadrature_inner_product():
    # the oracle's eigenvectors are orthonormal in the h^2 inner product, and
    # L and G are symmetric in it
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.08)
    basis = assemble_and_decompose(dom, alpha=0.5)
    mu, phi = dense_eigenpairs(basis)
    gram = dom.h**2 * (phi.T @ phi)
    assert np.max(np.abs(gram - np.eye(basis.K))) < 1e-10
    assert mu[0] > 0
    x, y = np.random.default_rng(4).standard_normal((2, basis.K))
    for apply in (basis.operator, basis.green):
        lhs, rhs = float(apply(x) @ y), float(x @ apply(y))
        assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(apply(x)) * np.linalg.norm(y)


def test_signs_and_decomposition_deterministic():
    # two builds give the same blocks and start vector, bit for bit
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    b1 = assemble_and_decompose(dom, alpha=0.5)
    b2 = assemble_and_decompose(dom, alpha=0.5)
    for one, two in ((b1.operator_blocks, b2.operator_blocks),
                     (b1.green_blocks, b2.green_blocks)):
        assert all(np.array_equal(x, y) for x, y in zip(one, two, strict=True))
    assert np.array_equal(b1.start, b2.start)


def _random_products(basis, ref, seed):
    """The largest relative gap between the operator and green products of
    basis and ref on a few random vectors."""
    x = np.random.default_rng(seed).standard_normal((4, basis.K))
    return max(np.linalg.norm(getattr(basis, name)(col) - getattr(ref, name)(col))
               / np.linalg.norm(getattr(ref, name)(col))
               for col in x for name in ("operator", "green"))


def test_full_span_basis_matches_evr(unblocked_basis):
    # the basis takes LAPACK's evd routine on each symmetry block; its L and
    # G must be those of evr on all of A up to rounding
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    n = dom.n_interior
    basis = assemble_and_decompose(dom, alpha=0.5)
    ref = unblocked_basis(dom)
    assert basis.K == ref.K == n
    assert _random_products(basis, ref, 1) <= 1e-12


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
    frames = [Q for Q, _ in _parity_frames(dom)]
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
    assert _random_products(basis, ref, 2) <= 1e-12
    # the oracle's eigenvectors, from the same blocks, are orthonormal eigenvectors of A
    mu, phi = dense_eigenpairs(basis)
    assert np.all(np.diff(mu) >= 0)
    assert np.max(np.abs(h**2 * (phi.T @ phi) - np.eye(n))) <= 1e-13
    residual = A @ phi - phi * mu
    assert np.max(np.abs(residual)) <= 1e-13 * mu[-1] * np.max(np.abs(phi))


# the generators that GridDomain.symmetries composes its elements of: the
# x-mirror, the y-mirror and the swap
_GENERATORS = (np.array([[-1, 0], [0, 1]]), np.array([[1, 0], [0, -1]]),
               np.array([[0, 1], [1, 0]]))


@_BLOCKED_DOMAINS
def test_mask_symmetries_are_the_mask_preserving_d4_maps_in_order(shape, params, lam, h,
                                                                  n_frames, n_distinct):
    # element by element and in D4 order: runner takes the first mirror that
    # topology.moving_mirrors lists, so the order is part of what the group says
    dom = build_domain(shape, params, lam=lam, h=h)
    got = dom.symmetries
    want = mask_preserving_maps(dom)
    assert len(got) == len(want)
    for (perm, used), (M, ref) in zip(got, want):
        assert np.array_equal(perm, ref)
        composed = functools.reduce(np.matmul, [_GENERATORS[j] for j in used], np.eye(2, dtype=int))
        assert np.array_equal(composed, M)


@_BLOCKED_DOMAINS
def test_operator_matches_dense_product(shape, params, lam, h, n_frames, n_distinct):
    # L = h^2 phi W phi^T, applied block by block on the frames' upper
    # triangles, against the dense product of phi's columns; G inverts it and
    # s is phi W^-1/2 1
    dom = build_domain(shape, params, lam=lam, h=h)
    basis = assemble_and_decompose(dom, alpha=0.5)
    assert len(basis.operator_blocks) == n_frames
    assert len({id(L) for L in basis.operator_blocks}) == n_distinct
    phi, w = dense_phi(basis), weights(basis)
    L = h**2 * (phi * w) @ phi.T
    x = np.random.default_rng(5).standard_normal((4, basis.K))
    for col in x:
        want = L @ col
        assert np.linalg.norm(basis.operator(col) - want) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.norm(basis.green(basis.operator(col)) - col) <= 1e-12 * np.linalg.norm(col)
    want = phi @ (1.0 / np.sqrt(w))
    assert np.linalg.norm(basis.start - want) <= 1e-13 * np.linalg.norm(want)


@_BLOCKED_DOMAINS
def test_restricted_point_and_riesz_match_the_dense_restriction(shape, params, lam, h,
                                                                n_frames, n_distinct):
    # RestrictedEnergy's point [G_+ L_+ v; L_+ v] and Riesz map [G_+ g; g]
    # against the dense sums over the modes each axis mirror keeps, with
    # values exactly even under it. The pair average after each product is
    # what makes them even: under the y-mirror operator's values are off by
    # up to 7.1e-15 without it
    dom = build_domain(shape, params, lam=lam, h=h)
    basis = assemble_and_decompose(dom, alpha=0.5)
    mirrors = {used[0]: perm for perm, used in dom.symmetries if used in ((0,), (1,))}
    assert len(mirrors) == (2 if n_frames >= 4 else 0)
    x = np.random.default_rng(5).standard_normal((4, basis.K))
    for perm in mirrors.values():
        obj = RestrictedEnergy(basis, 2.0, perm)
        L_plus, G_plus = restricted_operators(basis, perm)
        for col in x:
            point, image = obj.point(col), obj.riesz(col)
            assert np.array_equal(point[:, perm], point)
            assert np.array_equal(image[0, perm], image[0])
            assert np.array_equal(image[1], col)
            for got, want in ((point[1], L_plus @ col), (point[0], G_plus @ (L_plus @ col)),
                              (image[0], G_plus @ col)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@_BLOCKED_DOMAINS
def test_green_matches_dense_product(shape, params, lam, h, n_frames, n_distinct):
    # G = h^2 phi W^-1 phi^T, applied block by block on the frames' upper
    # triangles, against the dense product of phi's columns; the rectangles
    # have no swap, or the swap alone
    basis = assemble_and_decompose(build_domain(shape, params, lam=lam, h=h), alpha=0.5)
    phi = dense_phi(basis)
    G = h**2 * (phi / weights(basis)) @ phi.T
    x = np.random.default_rng(8).standard_normal((4, basis.K))
    for col in x:
        want = G @ col
        assert np.linalg.norm(basis.green(col) - want) <= 1e-13 * np.linalg.norm(want)
    # one block per frame, square, as many distinct ones as of L
    assert [g.shape[0] for g in basis.green_blocks] == [L.shape[0] for L in basis.operator_blocks]
    assert len({id(g) for g in basis.green_blocks}) == n_distinct


@pytest.mark.parametrize(
    "shape, params, lam, h",
    [("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25), ("disk", {"R": 1.0}, 1.0, 0.1)],
    ids=["annulus4", "disk"],
)
def test_swap_partners_share_their_green_block(shape, params, lam, h):
    # the swap pair's L_b and G_b are one array each: the two block sets hold
    # as many doubles as each other, about n^2/8 each
    basis = assemble_and_decompose(build_domain(shape, params, lam=lam, h=h), alpha=0.5)
    blocks = basis.operator_blocks
    (k,) = [i for i in range(1, len(blocks)) if blocks[i] is blocks[i - 1]]
    assert basis.green_blocks[k] is basis.green_blocks[k - 1]
    distinct = {id(g): g for g in basis.green_blocks}.values()
    assert sum(g.nbytes for g in distinct) == sum(
        L.nbytes for L in {id(L): L for L in blocks}.values())


def test_green_blocks_are_built_once_per_basis(monkeypatch):
    # in the build, L_b and G_b of each distinct block once, and never again
    # for that basis
    builds = []
    build = spectral._block_operators
    monkeypatch.setattr(spectral, "_block_operators",
                        lambda mu, *rest: builds.append(mu.size) or build(mu, *rest))
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    basis = assemble_and_decompose(dom, alpha=0.5)
    assert builds == [L.shape[0] for L in {id(L): L for L in basis.operator_blocks}.values()]
    x = np.random.default_rng(9).standard_normal(basis.K)
    first = basis.green(x)
    assert np.array_equal(basis.green(x), first)
    basis.operator(x)
    assert len(builds) == 5


def test_identity_frame_apply_is_the_dense_product(unblocked_basis):
    # one block in the identity frame: the products are the plain dense
    # symmetric ones of its upper triangle, bit for bit, which is what keeps
    # the oracle basis's arithmetic fixed
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    basis = unblocked_basis(dom, driver="evd")
    (L,), (G,) = basis.operator_blocks, basis.green_blocks
    x = np.random.default_rng(6).standard_normal(basis.K)
    assert np.array_equal(basis.operator(x), scipy.linalg.blas.dsymv(1.0, L, x))
    assert np.array_equal(basis.green(x), scipy.linalg.blas.dsymv(1.0, G, x))


@pytest.mark.parametrize(
    "shape, params, lam, h",
    [("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25), ("disk", {"R": 1.0}, 1.0, 0.1)],
    ids=["annulus4", "disk"],
)
def test_swap_partners_share_their_block(shape, params, lam, h):
    # the class odd in x and even in y and its swap image share one block:
    # their L_b are one array and their G_b another
    dom = build_domain(shape, params, lam=lam, h=h)
    frames = _parity_frames(dom)
    (k,) = [i for i, (_, shared) in enumerate(frames) if shared]
    swap = {used: p for p, used in dom.symmetries}[(2,)]
    # A commutes with the swap, so the two frames give one block
    A = assemble_laplacian(dom)
    (Q, _), (Q_swapped, _) = frames[k - 1], frames[k]
    assert (Q_swapped != Q[swap]).nnz == 0
    assert np.array_equal((Q_swapped.T @ A @ Q_swapped).toarray(), (Q.T @ A @ Q).toarray())

    basis = assemble_and_decompose(dom, alpha=0.5)
    assert basis.operator_blocks[k] is basis.operator_blocks[k - 1]
    assert basis.green_blocks[k] is basis.green_blocks[k - 1]
    # so L and G commute with the swap
    x = np.random.default_rng(10).standard_normal(basis.K)
    for apply in (basis.operator, basis.green):
        want = apply(x)[swap]
        assert np.linalg.norm(apply(x[swap]) - want) <= 1e-14 * np.linalg.norm(want)


def test_basis_build_memory():
    # the build keeps L_b and G_b of the distinct blocks, the shared pair's
    # once: about n^2/4 doubles, and never forms phi nor keeps a V_b. At most
    # one block's eigenvectors and LAPACK workspace, 3 (n/4)^2 for the
    # shared pair's, or its V_b, L_b and G_b, sit on top of the blocks built
    # before it. The bounds are those of the build that kept the V_b, after
    # its first green built the G_b: measured on annulus4 (n = 664), 0.287 n^2
    # held and a peak of 0.330 n^2, the sparse frames and A included, with
    # 0.03 n^2 above each
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
    blocks = basis.operator_blocks + basis.green_blocks
    held = sum(B.nbytes for B in {id(B): B for B in blocks}.values())
    assert held / n2_bytes <= 0.26
    assert (peak - before) / n2_bytes <= 0.36
    assert (after - before) / n2_bytes <= 0.317


def test_fractional_apply_alpha1_matches_stencil(square16):
    # at alpha = 1, L is the stencil plus the identity
    dom, _ = square16
    basis = assemble_and_decompose(dom, alpha=1.0)
    A = assemble_laplacian(dom)
    u = np.random.default_rng(3).standard_normal(basis.K)
    want = A @ u + u
    assert np.max(np.abs(basis.operator(u) - want)) < 1e-10 * np.max(np.abs(want))


def test_energy_norm_fundamental_mode(square16):
    _, basis = square16
    mu, phi = dense_eigenpairs(basis)
    want = 9.0 * (mu[0] ** 0.5 + 1.0)
    e = Energy(basis, 2.0)
    assert e.quadratic(*e.point(3.0 * phi[:, 0])) == pytest.approx(want, rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-50, 50, allow_nan=False, allow_infinity=False))
def test_alpha_norm_homogeneity(c):
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 9.0)
    basis = assemble_and_decompose(dom, alpha=0.5)
    u = np.random.default_rng(11).standard_normal(basis.K)
    e = Energy(basis, 2.0)

    def q(values):
        return e.quadratic(*e.point(values))

    assert q(c * u) == pytest.approx(c * c * q(u), rel=1e-12, abs=1e-12)


def test_domain_mismatch_raised(square16):
    dom, basis = square16
    with pytest.raises(DomainMismatch):
        Field(dom, np.zeros(10))
    other = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    u = Field(other, np.zeros(other.n_interior))
    with pytest.raises(DomainMismatch):
        basis.check_same_domain(u.dom)
    with pytest.raises(DomainMismatch):
        Field(dom, np.zeros(basis.K + 5))


def test_bad_alpha_and_k_rejected(square16):
    dom, _ = square16
    with pytest.raises(EigSolveFailure):
        assemble_and_decompose(dom, alpha=1.5)
