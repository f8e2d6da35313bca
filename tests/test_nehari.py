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
from fracfield.model import Energy, PinnedEnergy
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
from fracfield.spectral import assemble_and_decompose
from fracfield.topology import annulus_level
from oracles import dense_phi, nehari_scale_root

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
            accepted.append(trial[2])
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
    c = e.coords(u)
    return e.nehari_t(c, e.values(c))


def _j(basis, u):
    """J at the span representation of u."""
    e = Energy(basis, P)
    return e.j(u.coeffs, e.values(u.coeffs))


def test_scale_satisfies_defining_equation(square16):
    u = _bump(square16)
    t = _scale(square16, u)
    assert t > 0
    scaled = square16.synthesize(t * u.coeffs)
    Q = float(np.sum(square16.weights * scaled.coeffs**2))
    assert abs(_j(square16, scaled)) <= 1e-12 * Q


def test_scale_closed_form_algebra(square16):
    # independent reconstruction: t^(p-1) = Q/cubic with cubic the weighted cubic sum
    # of the span representation (the variational ops never see raw values)
    u = _bump(square16)
    span_values = dense_phi(square16) @ u.coeffs
    Q = float(np.sum(square16.weights * u.coeffs**2))
    cubic = square16.dom.h ** 2 * float(np.sum(np.maximum(span_values, 0.0) ** 3))
    assert _scale(square16, u) == pytest.approx(
        (Q / cubic) ** (1.0 / (P - 1.0)), rel=1e-14)


def test_scale_fixed_point_on_manifold(square16):
    u = _bump(square16)
    t = _scale(square16, u)
    proj = square16.synthesize(t * u.coeffs)
    assert _scale(square16, proj) == pytest.approx(1.0, abs=1e-10)


def test_scale_ray_reparametrization(square16):
    u = _bump(square16)
    t1 = _scale(square16, u)
    for c in (0.5, 2.0):
        uc = square16.synthesize(c * u.coeffs)
        assert _scale(square16, uc) * c == pytest.approx(t1, rel=1e-12)


def test_scale_rejects_nonpositive_field(square16):
    neg = square16.analyze(-np.abs(_bump(square16).values))
    with pytest.raises(NonpositiveField):
        _scale(square16, neg)


def test_scale_matches_root_finder_on_random_fields(square16):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        c = rng.standard_normal(square16.K) * np.exp(-0.02 * np.arange(square16.K))
        u = square16.synthesize(c)
        if not np.any(u.values > 0):
            continue
        t_closed = _scale(square16, u)
        t_root = nehari_scale_root(square16, P, u)
        assert abs(t_root - t_closed) <= 1e-10 * t_closed
        checked += 1


def _ray_max(basis, u):
    """(t*, I(t* u)) from the closed-form Nehari scale."""
    e = Energy(basis, P)
    values = e.values(u.coeffs)
    t = e.nehari_t(u.coeffs, values)
    return t, e.energy(t * u.coeffs, t * values)


def test_ray_max_against_dense_scan(square16):
    u = _bump(square16)
    t_star, value = _ray_max(square16, u)
    assert value > 0
    ts = np.linspace(1e-6, 4 * t_star, 1200)
    e = Energy(square16, P)
    values = e.values(u.coeffs)
    profile = np.array([e.energy(t * u.coeffs, t * values) for t in ts])
    assert np.all(value >= profile - 1e-12 * abs(value))
    k = int(np.argmax(profile))
    assert ts[k] == pytest.approx(t_star, abs=ts[1] - ts[0])


def test_ray_max_scale_invariance(square16):
    u = _bump(square16)
    t1, v1 = _ray_max(square16, u)
    u2 = square16.synthesize(2.0 * u.coeffs)
    t2, v2 = _ray_max(square16, u2)
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)
    assert v2 == pytest.approx(v1, rel=1e-12)


def test_ground_state_converges_positive_on_manifold(disk_basis, disk_ground):
    rec, seed, trace = disk_ground
    assert rec.converged
    assert rec.residual <= 1e-8
    assert rec.positive
    assert rec.energy > 0
    Q = float(np.sum(disk_basis.weights * rec.u.coeffs**2))
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
    ring = annulus4.analyze(np.exp(-((rr - 2.8) ** 2) / (2.0 * 0.8**2)))
    rho = annulus_level(Energy(annulus4, P)).rho_schedule[0]
    pinned = PinnedEnergy(annulus4, P, rho, np.zeros(2))
    with _accepted_values() as pen_trace:
        c, _, _, _, its = nehari._retracted_descent(pinned, ring.coeffs, 1e-8, 20000)
    assert len(pen_trace) == its > 0
    # accepted values never rise here; a few late steps may leave F unchanged
    # in the last bit, accepted by the rounding case of the acceptance rule
    # because they lower the dual gradient norm
    assert np.all(np.diff(pen_trace) <= 0)
    assert pen_trace[-1] < pen_trace[0]

    for basis, u in ((disk_basis, rec.u), (annulus4, annulus4.synthesize(c))):
        Q = float(np.sum(basis.weights * u.coeffs**2))
        assert abs(_j(basis, u)) <= 1e-12 * Q


@settings(max_examples=10, deadline=None)
@given(x=st.floats(-0.3, 0.3), y=st.floats(-0.3, 0.3), width=st.floats(0.08, 0.4))
def test_descent_properties_over_bump_seeds(square16, x, y, width):
    # for any bump seed: accepted energies, from the retracted seed on, rise
    # by at most the rounding allowance; the start converges; it ends on M
    seed = gaussian_bump_seed(square16, (x, y), width)
    e = Energy(square16, P)
    F0 = e.energy(*e.retract(seed.coeffs, e.values(seed.coeffs)))
    with _accepted_values() as trace:
        rec = ground_state(Energy(square16, P), seed)
    F = [F0, *trace]
    assert all(b - a <= _rounding_allowance(a) for a, b in zip(F, F[1:]))
    assert rec.converged
    Q = float(np.sum(square16.weights * rec.u.coeffs**2))
    assert abs(_j(square16, rec.u)) <= 1e-12 * Q


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
    # the pinned lambda=6 annulus level: its last penalty stage ends where the
    # Armijo case of the acceptance rule fails or passes for rounding alone,
    # and steps accepted by the rounding case must finish it, each raising F
    # by at most the rounding allowance. Whether a stage lands on that floor
    # changes with the basis and the BLAS thread count, so both cases take
    # the unblocked oracle: the rule is a property of the kernel, not of the
    # basis
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=6.0, h=0.25)
    basis = unblocked_basis(dom, driver=lapack)
    line_search = nehari._line_search
    rises: list[float] = []

    def recorded(obj, c, values, d, dv, t, F, *rest):
        trial = line_search(obj, c, values, d, dv, t, F, *rest)
        if trial is not None and trial[3] is not None:
            rises.append((trial[2] - F) / (64 * np.finfo(float).eps * max(abs(F), 1.0)))
        return trial

    monkeypatch.setattr(nehari, "_line_search", recorded)
    rep = annulus_level(Energy(basis, P))
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
    # its halving t, F and the gradients at both ends
    line_search = nehari._line_search
    cases: list[str] = []

    def checked(obj, c, values, d, dv, t, F, slope, gd):
        trial = line_search(obj, c, values, d, dv, t, F, slope, gd)
        if trial is None:
            return trial
        new_c, new_v, F_new, g_new = trial
        g = obj.grad(c, values)
        for _ in range(nehari._MAX_BACKTRACKS):
            try:
                if np.array_equal(obj.retract(c - t * d, values - t * dv)[0], new_c):
                    break
            except NonpositiveField:
                pass
            t *= 0.5
        else:
            raise AssertionError("accepted point is no halving of the step")
        assert obj.energy(new_c, new_v) == F_new
        if F_new < F and F_new <= F - 1e-4 * t * float(g @ d):
            cases.append("armijo")
        else:
            g1 = obj.grad(new_c, new_v)
            assert g_new is not None and np.array_equal(g_new, g1)
            assert abs(F_new - F) <= 64 * np.finfo(float).eps * max(abs(F), 1.0)
            assert float(g1 @ (g1 / obj.w)) <= (1.0 - 1e-4) * float(g @ (g / obj.w))
            cases.append("rounding")
        return trial

    if descent == "ring-seed":
        rr = np.sqrt((annulus4.dom.node_coords**2).sum(axis=1))
        ring = annulus4.analyze(np.exp(-((rr - 2.8) ** 2) / (2.0 * 0.8**2)))
        rho = annulus_level(Energy(annulus4, P)).rho_schedule[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nehari, "_line_search", checked)
            *_, its = nehari._retracted_descent(
                PinnedEnergy(annulus4, P, rho, np.zeros(2)), ring.coeffs, 1e-8, 20000
            )
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


def test_newton_products_are_capped_at_max_iter(disk_basis, disk_ground):
    # from a converged start, at tol 0, which no residual meets, the Newton
    # step is tried at every step from the 21st on and costs several Hessian
    # products each time; the descent stops trying it once max_iter products
    # are spent. Left uncapped, the run at the rounding floor lasts until no
    # step is accepted, which took 135 to 653 products on bases that differ
    # only by rounding, so a cap of 50 binds, and a larger cap lets the same
    # start spend more
    rec = disk_ground[0]
    products = 0

    class Counted(Energy):
        def hessian(self, values):
            hess = super().hessian(values)

            def hv(v):
                nonlocal products
                products += 1
                return hess(v)
            return hv

    spent = []
    for max_iter in (50, 200):
        products = 0
        *_, residual, _ = nehari._retracted_descent(
            Counted(disk_basis, P), rec.u.coeffs, 0.0, max_iter)
        assert residual > 0.0
        assert max_iter <= products <= max_iter + nehari._CG_MAX_ITER + 1
        spent.append(products)
    assert spent[1] > spent[0]


def test_newton_direction_is_tangent_and_descends(disk_basis):
    e = Energy(disk_basis, P)
    for center, width in (((0.0, 0.0), 0.4), ((0.3, -0.2), 0.25)):
        c0 = gaussian_bump_seed(disk_basis, center, width).coeffs
        c, values = e.retract(c0, e.values(c0))
        g = e.grad(c, values)
        residual = _residual(float(g @ (g / e.w)), e.energy(c, values))
        y, _ = _newton_direction(e, c, g, e.hessian(values), residual)
        assert y is not None
        # J'(c) from J = Q - h^2 sum (u+)^3, not from the H c + g the solver uses
        a = 2.0 * e.w * c - 3.0 * e.h2 * (dense_phi(e.basis).T @ np.maximum(values, 0.0) ** 2)
        assert abs(float(a @ y)) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)
        assert float(g @ y) < 0.0


def test_newton_finish_converges_every_full_span_disk_start():
    # at the Barzilai-Borwein steps alone, random-1 and random-3 took about
    # 5,000 iterations each, creeping along the near-null translation modes
    dom = build_domain("disk", {"R": 2.0}, lam=1.0, h=0.125)
    basis = assemble_and_decompose(dom)
    rep = level_c(Energy(basis, P), n_multistarts=8, rng_seed=0)
    assert rep.n_converged == 8
    assert max(r.iterations for r in rep.records) <= 100
    assert rep.value == pytest.approx(5.509143886951, rel=1e-10)


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
    flat = disk_basis.analyze(np.full(disk_basis.dom.n_interior, -1.0))
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
