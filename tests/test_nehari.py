"""Projection, ray, and ground-state solver checks.

Oracle strategy: the projection scale is validated against the defining
property J(t u) = 0 and against an independent bracketing root-finder route;
the ray maximum against a dense 1-D scan; solver output against on-manifold
identities that eliminate the potential term.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield import nehari
from fracfield.domain import build_domain
from fracfield.errors import AllStartsFailed, NonmonotoneLevels, NonpositiveField
from fracfield.model import Energy, PinnedEnergy, RestrictedEnergy
from fracfield.nehari import (
    _geometric_tail,
    _level_order,
    _multistart_seeds,
    _newton_direction,
    _residual,
    _rounding_allowance,
    gaussian_bump_seed,
    ground_state,
    level_c,
    limit_level_estimate,
)
from fracfield.spectral import Field, SpectralBasis, assemble_and_decompose
from fracfield.topology import annulus_level, symmetry_group
from oracles import (
    coefficients,
    dense_lbfgs_inverse_hessian,
    dense_phi,
    nehari_scale_root,
    synthesize,
    weights,
)

P = 2.0


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="module")
def disk_basis():
    dom = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.1)
    return assemble_and_decompose(dom, alpha=0.5)


@contextlib.contextmanager
def _accepted_values():
    """The F of every step the descent kernel accepts inside the block, in order,
    collected by wrapping nehari._line_search."""
    accepted: list[float] = []
    line_search = nehari._line_search

    def recorded(*args):
        trial = line_search(*args)
        if trial is not None:
            accepted.append(trial[1])
        return trial

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nehari, "_line_search", recorded)
        yield accepted


@pytest.fixture(scope="module")
def disk_ground(disk_basis):
    seed = gaussian_bump_seed(disk_basis, (0.0, 0.0), 0.4)
    with _accepted_values() as trace:
        rec = ground_state(Energy(disk_basis, P), seed, tol=1e-8)
    return rec, seed, trace


def _bump(basis, center=(0.1, -0.05), width=0.3):
    return gaussian_bump_seed(basis, center, width)


def _scale(basis, u):
    """The closed-form Nehari scale t of u, J(t u) = 0, read through Energy."""
    e = Energy(basis, P)
    values, r = e.point(u.values)
    return e.nehari_t(values, e.quadratic(values, r))


def _j(basis, u):
    """J at u, read through Energy."""
    e = Energy(basis, P)
    values, r = e.point(u.values)
    return e.j(values, e.quadratic(values, r))


def _q(basis, u):
    """Q(u) = sum W c^2 from u's coefficients on the tests' dense phi."""
    return float(np.sum(weights(basis) * coefficients(basis, u) ** 2))


def test_scale_satisfies_defining_equation(square16):
    u = _bump(square16)
    t = _scale(square16, u)
    assert t > 0
    scaled = Field(square16.dom, t * u.values)
    assert abs(_j(square16, scaled)) <= 1e-12 * _q(square16, scaled)


def test_scale_closed_form_algebra(square16):
    # independent reconstruction: t^(p-1) = Q/cubic with cubic the weighted
    # cubic sum of the values, Q from the coefficients on the dense phi
    u = _bump(square16)
    span_values = dense_phi(square16) @ coefficients(square16, u)
    Q = _q(square16, u)
    cubic = square16.dom.h ** 2 * float(np.sum(np.maximum(span_values, 0.0) ** 3))
    assert _scale(square16, u) == pytest.approx(
        (Q / cubic) ** (1.0 / (P - 1.0)), rel=1e-14)


def test_scale_fixed_point_on_manifold(square16):
    u = _bump(square16)
    t = _scale(square16, u)
    proj = Field(square16.dom, t * u.values)
    assert _scale(square16, proj) == pytest.approx(1.0, abs=1e-10)


def test_scale_ray_reparametrization(square16):
    u = _bump(square16)
    t1 = _scale(square16, u)
    for c in (0.5, 2.0):
        uc = Field(square16.dom, c * u.values)
        assert _scale(square16, uc) * c == pytest.approx(t1, rel=1e-12)


def test_scale_rejects_nonpositive_field(square16):
    neg = Field(square16.dom, -np.abs(_bump(square16).values))
    with pytest.raises(NonpositiveField):
        _scale(square16, neg)


def test_scale_matches_root_finder_on_random_fields(square16):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        c = rng.standard_normal(square16.K) * np.exp(-0.02 * np.arange(square16.K))
        u = synthesize(square16, c)
        if not np.any(u.values > 0):
            continue
        t_closed = _scale(square16, u)
        t_root = nehari_scale_root(square16, P, u)
        assert abs(t_root - t_closed) <= 1e-10 * t_closed
        checked += 1


def _ray_max(basis, u):
    """(t*, I(t* u)) from the closed-form Nehari scale."""
    e = Energy(basis, P)
    values, r = e.point(u.values)
    Q = e.quadratic(values, r)
    t = e.nehari_t(values, Q)
    return t, e.energy(t * values, t * t * Q)


def test_ray_max_against_dense_scan(square16):
    u = _bump(square16)
    t_star, value = _ray_max(square16, u)
    assert value > 0
    ts = np.linspace(1e-6, 4 * t_star, 1200)
    e = Energy(square16, P)
    values, r = e.point(u.values)
    Q = e.quadratic(values, r)
    profile = np.array([e.energy(t * values, t * t * Q) for t in ts])
    assert np.all(value >= profile - 1e-12 * abs(value))
    k = int(np.argmax(profile))
    assert ts[k] == pytest.approx(t_star, abs=ts[1] - ts[0])


def test_ray_max_scale_invariance(square16):
    u = _bump(square16)
    t1, v1 = _ray_max(square16, u)
    u2 = Field(square16.dom, 2.0 * u.values)
    t2, v2 = _ray_max(square16, u2)
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)
    assert v2 == pytest.approx(v1, rel=1e-12)


def test_ground_state_converges_positive_on_manifold(disk_basis, disk_ground):
    rec, seed, trace = disk_ground
    assert rec.converged
    assert rec.residual <= 1e-8
    assert rec.positive
    assert rec.energy > 0
    Q = _q(disk_basis, rec.u)
    assert abs(_j(disk_basis, rec.u)) <= 1e-10 * Q
    # on-manifold identity eliminates the potential term
    assert rec.energy == pytest.approx((0.5 - 1.0 / (P + 1.0)) * Q, rel=1e-8)


def test_ground_state_descends_from_seed_projection(disk_basis, disk_ground, annulus4):
    rec, seed, trace = disk_ground
    _, seed_level = _ray_max(disk_basis, seed)
    assert rec.energy <= seed_level + 1e-12
    assert len(trace) == rec.iterations
    assert np.all(np.diff(trace) < 0)

    # second input, the same kernel on the barycenter-penalized objective as
    # annulus_level's first stage runs it: its ring seed, its first rho
    dom = annulus4.dom
    rr = np.sqrt((dom.node_coords**2).sum(axis=1))
    ring = np.exp(-((rr - 2.8) ** 2) / (2.0 * 0.8**2))
    rho = annulus_level(Energy(annulus4, P)).rho_schedule[0]
    pinned = PinnedEnergy(annulus4, P, rho, np.zeros(2))
    with _accepted_values() as pen_trace:
        x, _, _, its = nehari._retracted_descent(pinned, pinned.point(ring), 1e-8, 20000)
    assert len(pen_trace) == its > 0
    # accepted values never rise here; a few late steps may leave F unchanged
    # in the last bit, accepted by the rounding case of the acceptance rule
    # because they lower the dual gradient norm
    assert np.all(np.diff(pen_trace) <= 0)
    assert pen_trace[-1] < pen_trace[0]

    for basis, u in ((disk_basis, rec.u), (annulus4, Field(dom, x[0]))):
        assert abs(_j(basis, u)) <= 1e-12 * _q(basis, u)


@settings(max_examples=10, deadline=None)
@given(x=st.floats(-0.3, 0.3), y=st.floats(-0.3, 0.3), width=st.floats(0.08, 0.4))
def test_descent_properties_over_bump_seeds(square16, x, y, width):
    # for any bump seed: accepted energies, from the retracted seed on, rise
    # by at most the rounding allowance; the start converges; it ends on M
    seed = gaussian_bump_seed(square16, (x, y), width)
    e = Energy(square16, P)
    u, r = e.retract(*e.point(seed.values))
    F0 = e.energy(u, e.quadratic(u, r))
    with _accepted_values() as trace:
        rec = ground_state(Energy(square16, P), seed)
    F = [F0, *trace]
    assert all(b - a <= _rounding_allowance(a) for a, b in zip(F, F[1:]))
    assert rec.converged
    assert abs(_j(square16, rec.u)) <= 1e-12 * _q(square16, rec.u)


@pytest.mark.parametrize("lapack", ["evd", "evr"])
def test_newton_step_finishes_formerly_stalled_start(unblocked_basis, lapack):
    # full span of the R=2 disk at h=0.125: with the Armijo test alone, start
    # random-1 of rng_seed 430440614 stalled on the evr basis after 1612
    # iterations at residual 1.28e-8, no halving passing the test; a second
    # pass that accepted rounding-level steps lowering the gradient norm
    # finished it, and now the Newton step does in a few dozen
    dom = build_domain("disk", {"R": 2.0}, lam=1.0, h=0.125)
    basis = assemble_and_decompose(dom) if lapack == "evd" else unblocked_basis(dom)
    tag, center, width = _multistart_seeds(basis, 8, 430440614)[1]
    assert tag == "random-1"
    with _accepted_values() as trace:
        rec = ground_state(Energy(basis, P), gaussian_bump_seed(basis, center, width), tol=1e-8)
    assert rec.converged
    assert rec.iterations <= 100
    F = np.array(trace)
    allowance = 64 * np.finfo(float).eps * np.maximum(np.abs(F[:-1]), 1.0)
    assert np.all(np.diff(F) <= allowance)


@pytest.mark.parametrize("lapack", ["evd", "evr"])
def test_floor_step_finishes_stalled_start(unblocked_basis, lapack, monkeypatch):
    # the pinned lambda=6 annulus level at tol 1e-13, just above the residual
    # rounding lets it reach: its penalty stages end where the Armijo case of
    # the acceptance rule fails or passes for rounding alone, and steps
    # accepted by the rounding case must finish them, each raising F by at
    # most the rounding allowance. At tol 1e-8 whether a stage lands on that
    # floor changes with the basis and the BLAS thread count. Both cases take
    # the unblocked oracle: the rule is a property of the kernel, not of the
    # basis
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=6.0, h=0.25)
    basis = unblocked_basis(dom, driver=lapack)
    line_search = nehari._line_search
    rises: list[float] = []

    def recorded(obj, x, d, t, F, *rest):
        trial = line_search(obj, x, d, t, F, *rest)
        if trial is not None and trial[2] is not None:
            rises.append((trial[1] - F) / (64 * np.finfo(float).eps * max(abs(F), 1.0)))
        return trial

    monkeypatch.setattr(nehari, "_line_search", recorded)
    rep = annulus_level(Energy(basis, P), tol=1e-13)
    assert rep.record.converged
    assert rises
    assert max(rises) <= 1.0


@pytest.mark.parametrize("descent", ["ring-seed", "pinned-at-the-floor"])
def test_every_accepted_step_passes_the_acceptance_rule(annulus4, descent):
    # ring-seed: the penalized descent from annulus_level's ring seed at its
    # first rho, where an Armijo test without the strict decrease once
    # accepted steps that left F unchanged. pinned-at-the-floor: the level
    # pinned at 22.5 degrees at tol 1e-14, below what rounding lets the
    # residual reach, where such a test still does, and where under one BLAS
    # thread a bare "the norm drops" rounding case accepts steps that the
    # factor 1 - _ARMIJO refuses.
    # Each accepted trial is recomputed here from the line search's inputs:
    # its halving t, F and the gradients at both ends. A trial's F is the
    # objective at the retraction of x - t d, x = [u; r] and d = [du; dr],
    # from the trial's values and its Q, which the line search expands in t
    line_search = nehari._line_search
    cases: list[str] = []

    def checked(obj, x, d, t, F, slope, gd):
        trial = line_search(obj, x, d, t, F, slope, gd)
        if trial is None:
            return trial
        (s_u, s_r), F_new, riesz_new = trial
        g_new = None if riesz_new is None else riesz_new[1]
        (u, r), (du, dr) = x, d
        g = obj.grad(u, r)
        ur, cross, dd = float(u @ r), float(u @ dr) + float(du @ r), float(du @ dr)
        for _ in range(nehari._MAX_BACKTRACKS):
            try:
                s, F_t = obj.level(u - t * du, obj.h2 * (ur - t * (cross - t * dd)))
                if np.array_equal((s - 1.0) * u - (s * t) * du, s_u):
                    break
            except NonpositiveField:
                pass
            t *= 0.5
        else:
            raise AssertionError("accepted point is no halving of the step")
        new_u, new_r = u + s_u, r + s_r
        assert F_t == F_new
        assert obj.energy(new_u, obj.quadratic(new_u, new_r)) == pytest.approx(F_new, rel=1e-13)
        if F_new < F and F_new <= F - 1e-4 * t * obj.h2 * float(g @ du):
            cases.append("armijo")
        else:
            g1 = obj.grad(new_u, new_r)
            assert g_new is not None and np.array_equal(g_new, g1)
            assert abs(F_new - F) <= 64 * np.finfo(float).eps * max(abs(F), 1.0)
            assert float(g1 @ obj.riesz(g1)[0]) <= (1.0 - 1e-4) * float(g @ obj.riesz(g)[0])
            cases.append("rounding")
        return trial

    if descent == "ring-seed":
        rr = np.sqrt((annulus4.dom.node_coords**2).sum(axis=1))
        ring = np.exp(-((rr - 2.8) ** 2) / (2.0 * 0.8**2))
        rho = annulus_level(Energy(annulus4, P)).rho_schedule[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nehari, "_line_search", checked)
            pinned = PinnedEnergy(annulus4, P, rho, np.zeros(2))
            *_, its = nehari._retracted_descent(pinned, pinned.point(ring), 1e-8, 20000)
    else:
        angle = np.pi / 8
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nehari, "_line_search", checked)
            its = annulus_level(Energy(annulus4, P),
                                x_tilde=(2.8 * np.cos(angle), 2.8 * np.sin(angle)),
                                tol=1e-14).record.iterations
        assert "rounding" in cases
    assert len(cases) == its > 0


def test_pinned_level_work_is_bounded_at_the_rounding_floor(annulus4, monkeypatch):
    # at tol 1e-14, below what rounding lets the pinned residual reach, every
    # Newton step's Armijo test passed or failed by rounding alone, and the
    # kernel retried Newton at almost every step: 15k-40k Hessian products.
    # The rounding case of the acceptance rule accepts those steps while the
    # gradient still drops and stops the descent once it does not
    newton_direction = nehari._newton_direction
    products = 0

    def counted(*args):
        nonlocal products
        y, used = newton_direction(*args)
        products += used
        return y, used

    monkeypatch.setattr(nehari, "_newton_direction", counted)
    angle = np.pi / 8
    annulus_level(Energy(annulus4, P), x_tilde=(2.8 * np.cos(angle), 2.8 * np.sin(angle)),
                  tol=1e-14)
    assert 0 < products <= 3000


def test_newton_products_are_capped_at_max_iter(disk_basis, disk_ground, monkeypatch):
    # a Hessian action with no positive curvature (a curvature E of 2 max W
    # makes v_r - E v_u negative definite): CG stops at its first
    # product and no Newton direction is a descent direction, so Newton is
    # never accepted and never lands at the rounding floor. Walks at the floor
    # end after a number of steps that changes with rounding (28 to 1,096
    # from four converged disk starts at tol 1e-18), so the line search here
    # accepts a step of length 0 at every call: from a converged start, at
    # tol 1e-16, which its residual does not meet but under whose gate
    # sqrt(tol) it lies, Newton is tried at every step from the 21st on for
    # two products each, until max_iter products are spent. A cap of 50
    # binds, and a larger cap lets the same start spend more
    rec = disk_ground[0]
    assert 1e-16 < rec.residual <= 1e-8
    products = 0
    w_max = float(weights(disk_basis).max())

    class Concave(Energy):
        def curvature(self, values):
            def E(z):
                nonlocal products
                products += 1
                return 2.0 * w_max * z
            return E

    monkeypatch.setattr(nehari, "_line_search",
                        lambda obj, x, d, t, F, slope, gd: (0 * x, F, None))
    spent = []
    for max_iter in (50, 200):
        products = 0
        concave = Concave(disk_basis, P)
        *_, residual, its = nehari._retracted_descent(
            concave, concave.point(rec.u.values), 1e-16, max_iter)
        assert residual > 1e-16
        assert its == max_iter
        assert max_iter <= products <= max_iter + nehari._CG_MAX_ITER + 1
        spent.append(products)
    assert spent[1] > spent[0]


def test_newton_is_not_retried_at_the_rounding_floor(disk_basis, disk_ground, monkeypatch):
    # from a converged start at tol 1e-30, the first Newton step changes F by
    # less than the rounding allowance: F can no longer tell its progress, and
    # the descent takes no further Newton step, however long it runs. The
    # kernel's own residual, on its nodal pair, falls to about 1e-21 here,
    # past the 1e-15 that the returned residual, measured with L u made
    # afresh, cannot go below
    newton_direction = nehari._newton_direction
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return newton_direction(*args)

    monkeypatch.setattr(nehari, "_newton_direction", counted)
    e = Energy(disk_basis, P)
    *_, residual, its = nehari._retracted_descent(
        e, e.point(disk_ground[0].u.values), 1e-30, 20000)
    assert residual > 1e-18
    assert its > nehari._NEWTON_AFTER
    assert calls == 1


def test_newton_direction_is_tangent_and_descends(disk_basis):
    e = Energy(disk_basis, P)
    phi = dense_phi(e.basis)
    for center, width in (((0.0, 0.0), 0.4), ((0.3, -0.2), 0.25)):
        x = e.retract(*e.point(gaussian_bump_seed(disk_basis, center, width).values))
        values, r = x
        g = e.grad(values, r)
        gg = e.riesz(g)
        residual = _residual(e.h2 * float(g @ gg[0]), e.energy(values, e.quadratic(values, r)))
        y, _ = _newton_direction(e, x, gg, e.curvature(values), residual)
        assert y is not None
        # in coefficients, J'(c) from J = Q - h^2 sum (u+)^3, not from the
        # H (u, r) + g the solver uses
        c, y, g = (e.h2 * phi.T @ v for v in (values, y[0], g))
        a = 2.0 * weights(disk_basis) * c - 3.0 * e.h2 * (phi.T @ np.maximum(values, 0.0) ** 2)
        assert abs(float(a @ y)) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)
        assert float(g @ y) < 0.0


def test_newton_finish_converges_every_full_span_disk_start(monkeypatch):
    # at the Barzilai-Borwein steps alone, random-1 and random-3 took about
    # 5,000 iterations each, creeping along the near-null translation modes;
    # Barzilai-Borwein steps with Newton from residual 0.1 took 947 products
    # with phi and its transpose for the costliest start, L-BFGS with Newton
    # from sqrt(tol) about 310, and the same on nodal points about 190
    # products, nearly all of them green
    dom = build_domain("disk", {"R": 2.0}, lam=1.0, h=0.125)
    basis = assemble_and_decompose(dom)
    products = 0
    per_start = []

    def counted(method):
        def product(self, x):
            nonlocal products
            products += 1
            return method(self, x)
        return product

    def one_start(*args, **kwargs):
        nonlocal products
        products = 0
        rec = ground_state(*args, **kwargs)
        per_start.append(products)
        return rec

    for name in ("operator", "green"):
        monkeypatch.setattr(SpectralBasis, name, counted(getattr(SpectralBasis, name)))
    monkeypatch.setattr(nehari, "ground_state", one_start)
    rep = level_c(Energy(basis, P), n_multistarts=8, rng_seed=0)
    assert rep.n_converged == 8
    assert len(per_start) == 8
    assert max(per_start) <= 400
    assert rep.value == pytest.approx(5.509143886951, rel=1e-10)


def test_lbfgs_memory_keeps_pairs_of_positive_curvature(disk_basis):
    # a pair with s y <= 0 is not stored; the memory keeps the newest
    # _LBFGS_MEMORY pairs; the direction meets the secant equation H y = s
    # of the newest pair and is a descent direction
    # (pairs given in coefficients on the dense phi: the step s as the point
    # of phi s, the gradient change y as the Riesz image of the dual phi y)
    e = Energy(disk_basis, P)
    phi, w = dense_phi(disk_basis), weights(disk_basis)
    rng = np.random.default_rng(5)
    memory = nehari._LBFGSMemory()

    def store(s, y):
        dual = phi @ y
        memory.store(e.point(phi @ s), e.riesz(dual))

    s = rng.standard_normal(disk_basis.K)
    for y in (-s, np.zeros_like(s), -w * s):
        store(s, y)
    assert len(memory) == 0
    pairs = []
    for _ in range(nehari._LBFGS_MEMORY + 3):
        s = rng.standard_normal(disk_basis.K)
        y = w * s + 0.1 * rng.standard_normal(disk_basis.K)
        store(s, y)
        pairs.append((s, y))
    store(s, -y)
    assert len(memory) == nehari._LBFGS_MEMORY
    assert all(np.array_equal(kept[0][0], phi @ s) for kept, (s, _) in
               zip(memory.pairs, pairs[-nehari._LBFGS_MEMORY:]))
    assert all(sy > 0.0 for *_, sy in memory.pairs)
    s, y = pairs[-1]
    dual = phi @ y
    d_u, _ = memory.direction(e.riesz(dual))
    s_u = phi @ s
    assert np.linalg.norm(d_u - s_u) <= 1e-10 * np.linalg.norm(s_u)
    g = phi @ rng.standard_normal(disk_basis.K)
    assert float(g @ memory.direction(e.riesz(g))[0]) > 0.0


def test_lbfgs_direction_matches_the_dense_bfgs_inverse_hessian(disk_basis):
    # the two-loop recursion against the dense inverse Hessian its pairs
    # define, after 1, 3 and 8 stores, after 11 (the memory has dropped its
    # oldest 3) and after a clear and 2 more; the direction's r-row is L H g,
    # as each step's is L s
    e = Energy(disk_basis, P)
    phi, w = dense_phi(disk_basis), weights(disk_basis)
    L = e.h2 * (phi * w) @ phi.T
    rng = np.random.default_rng(11)
    memory = nehari._LBFGSMemory()
    stored: list[tuple[np.ndarray, np.ndarray]] = []

    def store(n):
        for _ in range(n):
            s = rng.standard_normal(disk_basis.K)
            y = phi @ (w * s + 0.1 * rng.standard_normal(disk_basis.K))
            memory.store(e.point(phi @ s), e.riesz(y))
            stored.append((phi @ s, y))

    for n, clear in ((1, False), (2, False), (5, False), (3, False), (2, True)):
        if clear:
            memory.clear()
            stored.clear()
        store(n)
        kept = stored[-nehari._LBFGS_MEMORY:]
        assert len(memory) == len(kept)
        g = phi @ rng.standard_normal(disk_basis.K)
        d = memory.direction(e.riesz(g))
        Hg = dense_lbfgs_inverse_hessian(disk_basis, kept) @ g
        assert np.linalg.norm(d[0] - Hg) <= 1e-12 * np.linalg.norm(Hg)
        assert np.linalg.norm(d[1] - L @ Hg) <= 1e-12 * np.linalg.norm(L @ Hg)


@pytest.mark.parametrize("gradient_step", ["accepted", "rejected"])
def test_rejected_lbfgs_direction_clears_memory(disk_basis, monkeypatch, gradient_step):
    # the line search refuses the third L-BFGS direction: the memory is
    # cleared and the gradient step along the Riesz image G g is tried next,
    # from t = 1/max(1, ||g||_*). Where it is accepted the descent goes on and
    # rebuilds the memory from that step's pair; where it is refused too the
    # descent measures the point, goes on from (u, L u), whose gradient step
    # is refused again, and stops there: the second reading is of the same
    # point, so its residual has not dropped
    e = Energy(disk_basis, P)
    direction = nehari._LBFGSMemory.direction
    line_search = nehari._line_search
    events: list[tuple] = []

    def spied_direction(self, gp):
        events.append(("lbfgs", len(self)))
        return direction(self, gp)

    def spied_search(obj, x, d, t, F, slope, gd):
        last = events[-1][0] if events else None
        refused = ((last == "lbfgs" and sum(ev[0] == "lbfgs" for ev in events) == 3)
                   or (last == "refused" and gradient_step == "rejected"))
        trial = None if refused else line_search(obj, x, d, t, F, slope, gd)
        events.append(("refused" if refused else "search", d, t, gd, obj.grad(*x),
                       trial is not None))
        return trial

    monkeypatch.setattr(nehari._LBFGSMemory, "direction", spied_direction)
    monkeypatch.setattr(nehari, "_line_search", spied_search)
    seed = gaussian_bump_seed(disk_basis, (0.3, -0.2), 0.25)
    *_, its = nehari._retracted_descent(e, e.point(seed.values), 1e-8, 20000)

    refused = [i for i, ev in enumerate(events) if ev[0] == "refused"]
    first = refused[0]
    assert events[first - 1][0] == "lbfgs"
    _, d, t, gd, g, _ = events[first + 1]
    assert np.array_equal(d, e.riesz(g))
    assert t == 1.0 / max(1.0, np.sqrt(gd))
    steps_before = sum(ev[0] == "search" and ev[5] for ev in events[:first])
    if gradient_step == "rejected":
        assert refused == [first, first + 1, first + 2]
        assert len(events) == first + 3
        assert its == steps_before
    else:
        assert refused == [first]
        assert events[first + 1][5]
        assert ("lbfgs", 1) in events[first + 2:]
        assert its > steps_before + 1


def test_restricted_descent_keeps_odd_coefficients_zero_past_the_memory(annulus4):
    # on the x-mirror's fixed-point subspace, from the even part of an
    # off-axis bump, the descent runs more steps than the memory holds pairs:
    # L-BFGS directions then combine a full memory, and every accepted point
    # is exactly even under the mirror, so its odd part is 0
    x = annulus4.dom.node_coords
    (mirror,) = [p for p in symmetry_group(annulus4.dom)
                 if np.array_equal(x[p], x * np.array([-1.0, 1.0]))]
    obj = RestrictedEnergy(annulus4, P, mirror)
    seed = gaussian_bump_seed(annulus4, (1.0, 2.6), 0.8)
    line_search = nehari._line_search
    accepted: list[np.ndarray] = []
    memory_sizes: list[int] = []
    direction = nehari._LBFGSMemory.direction

    def spied_direction(self, gp):
        memory_sizes.append(len(self))
        return direction(self, gp)

    def recorded(obj, x, *args):
        trial = line_search(obj, x, *args)
        if trial is not None:
            accepted.append(x + trial[0])
        return trial

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nehari, "_line_search", recorded)
        mp.setattr(nehari._LBFGSMemory, "direction", spied_direction)
        x, _, residual, its = nehari._retracted_descent(obj, obj.point(seed.values), 1e-8,
                                                        20000)
    u = Field(annulus4.dom, x[0])
    assert residual <= 1e-8
    assert its == len(accepted) > nehari._LBFGS_MEMORY
    assert nehari._LBFGS_MEMORY in memory_sizes
    assert all(np.array_equal(v[mirror], v) for point in accepted for v in point)
    assert np.array_equal(u.values, accepted[-1][0])
    assert np.array_equal(u.values[mirror], u.values)
    assert np.any(u.values != 0.0)


def test_ground_state_barycenter_near_center(disk_ground):
    rec, _, _ = disk_ground
    bx, by = rec.barycenter
    assert abs(bx) <= 0.1
    assert abs(by) <= 0.1


def test_ground_state_unconverged_record_when_starved(disk_basis):
    seed = gaussian_bump_seed(disk_basis, (0.3, 0.0), 0.3)
    rec = ground_state(Energy(disk_basis, P), seed, tol=1e-12, max_iter=3)
    assert not rec.converged
    assert rec.iterations <= 3
    assert rec.residual > 1e-12


def test_ground_state_rejects_nonpositive_seed(disk_basis):
    flat = Field(disk_basis.dom, np.full(disk_basis.dom.n_interior, -1.0))
    with pytest.raises(NonpositiveField):
        ground_state(Energy(disk_basis, P), flat)


def test_level_positive_and_collapses_on_disk(disk_basis):
    rep = level_c(Energy(disk_basis, P), n_multistarts=4, rng_seed=1)
    assert rep.value > 0
    assert rep.n_converged >= 3
    assert rep.spread <= 1e-8 * (1.0 + abs(rep.value))
    assert rep.records[0].energy == rep.value


def test_level_order_ignores_rounding_and_tag_spelling(disk_ground):
    rec = disk_ground[0]
    E = rec.energy
    ulp = float(np.spacing(E))
    tagged = [("random-10", E), ("random-2", E + 3 * ulp), ("center", E + 8 * ulp),
              ("random-1", E - 2 * ulp), ("random-3", E + 1e-6), ("random-4", E + 1e-6 - ulp)]
    records = [dataclasses.replace(rec, seed_tag=t, energy=e) for t, e in tagged]
    for order in (records, records[::-1]):
        got = [r.seed_tag for r in _level_order(order)]
        assert got == ["center", "random-1", "random-2", "random-10", "random-3", "random-4"]


def test_level_decreases_when_square_expands():
    levels = {}
    for lam in (1.0, 2.0):
        dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=lam, h=1.0 / 17.0)
        basis = assemble_and_decompose(dom, alpha=0.5)
        levels[lam] = level_c(Energy(basis, P), n_multistarts=2, rng_seed=0).value
    assert levels[1.0] > levels[2.0] > 0


def test_level_all_starts_failed(disk_basis):
    with pytest.raises(AllStartsFailed):
        level_c(Energy(disk_basis, P), n_multistarts=2, tol=1e-13, max_iter=1)


def test_limit_level_estimate_below_last_level():
    rep = limit_level_estimate(P, [1.0, 2.0, 4.0], h=0.25, n_multistarts=1)
    assert rep.value < rep.levels[-1]
    assert rep.value > 0
    assert rep.error_bar > 0
    assert rep.levels[0] > rep.levels[1] > rep.levels[2]


def test_limit_level_estimate_stable_under_refinement():
    # run at alpha=0.75 where the ground-state core is wide enough that
    # h=0.25 already resolves it; at alpha=0.5 the core spans ~2 cells and
    # the level itself is still drifting >20% per refinement at this h
    coarse = limit_level_estimate(P, [1.0, 2.0, 4.0], h=0.25, alpha=0.75, n_multistarts=1)
    fine = limit_level_estimate(P, [1.0, 2.0, 4.0], h=0.125, alpha=0.75, n_multistarts=1)
    assert abs(fine.value - coarse.value) <= 0.05 * abs(fine.value)


def test_limit_level_estimate_rejects_flat_levels():
    # radii so close the discrete masks coincide: levels equal up to rounding
    with pytest.raises(NonmonotoneLevels):
        limit_level_estimate(P, [1.0, 1.001, 1.002], h=0.3, n_multistarts=1)


def test_limit_level_rejects_gaps_within_rounding():
    # a flat pair a few ulps apart, in either order, is flat; the shrinking
    # gaps around it must not rescue it
    c = 4.248961349664238
    few = 3 * np.spacing(c)
    for levels in ([c + 0.1, c, c - few], [c + 0.1, c - few, c],
                   [c, c - few, c - 0.2, c - 0.3], [c - few, c, c - 0.2, c - 0.3]):
        with pytest.raises(NonmonotoneLevels):
            _geometric_tail(levels, [1.0, 2.0, 4.0, 8.0][: len(levels)])
    value, error_bar = _geometric_tail([4.5, 4.3, 4.25], [1.0, 2.0, 4.0])
    assert error_bar == pytest.approx(0.05)
    assert value == pytest.approx(4.25 - 0.05 * 0.25 / 0.75)


def test_limit_level_estimate_input_validation():
    with pytest.raises(ValueError):
        limit_level_estimate(P, [1.0, 2.0], h=0.25)
    with pytest.raises(ValueError):
        limit_level_estimate(P, [2.0, 1.0, 4.0], h=0.25)
