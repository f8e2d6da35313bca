"""Projection, ray, and ground-state solver checks.

Oracle strategy: the projection scale is validated against the defining
property J(t u) = 0 and against an independent bracketing root-finder route;
the ray maximum against a dense 1-D scan; solver output against on-manifold
identities that eliminate the potential term.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fracfield import nehari
from fracfield.domain import build_domain
from fracfield.errors import AllStartsFailed, NonmonotoneLevels, NonpositiveField
from fracfield.model import Energy, power_model
from fracfield.nehari import (
    _geometric_tail,
    _level_order,
    _multistart_seeds,
    _newton_direction,
    _residual,
    gaussian_bump_seed,
    ground_state,
    level_c,
    limit_level_estimate,
    nehari_scale,
)
from fracfield.spectral import assemble_and_decompose
from fracfield.topology import _penalty, annulus_level
from oracles import nehari_scale_root

NL = power_model()


@pytest.fixture(scope="module")
def square16():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, lam=1.0, h=1.0 / 17.0)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="module")
def disk_basis():
    dom = build_domain("disk", {"R": 1.0}, lam=1.0, h=0.1)
    return assemble_and_decompose(dom, alpha=0.5)


@pytest.fixture(scope="module")
def disk_ground(disk_basis):
    seed = gaussian_bump_seed(disk_basis, (0.0, 0.0), 0.4)
    trace: list[float] = []
    rec = ground_state(disk_basis, NL, seed, tol=1e-8, energy_trace=trace)
    return rec, seed, trace


def _bump(basis, center=(0.1, -0.05), width=0.3):
    return gaussian_bump_seed(basis, center, width)


def _j(basis, u):
    """J at the span representation of u."""
    e = Energy(basis, NL)
    return e.j(u.coeffs, e.values(u.coeffs))


def test_scale_satisfies_defining_equation(square16):
    u = _bump(square16)
    t = nehari_scale(square16, NL, u)
    assert t > 0
    scaled = square16.synthesize(t * u.coeffs)
    Q = float(np.sum(square16.weights * scaled.coeffs**2))
    assert abs(_j(square16, scaled)) <= 1e-12 * Q


def test_scale_closed_form_algebra(square16):
    # independent reconstruction: t^(p-1) = Q/P with P the weighted cubic sum
    # of the span representation (the variational ops never see raw values)
    u = _bump(square16)
    span_values = square16.phi @ u.coeffs
    Q = float(np.sum(square16.weights * u.coeffs**2))
    P = square16.dom.h ** 2 * float(np.sum(np.maximum(span_values, 0.0) ** 3))
    assert nehari_scale(square16, NL, u) == pytest.approx((Q / P) ** (1.0 / (NL.p - 1.0)), rel=1e-14)


def test_scale_fixed_point_on_manifold(square16):
    u = _bump(square16)
    t = nehari_scale(square16, NL, u)
    proj = square16.synthesize(t * u.coeffs)
    assert nehari_scale(square16, NL, proj) == pytest.approx(1.0, abs=1e-10)


def test_scale_ray_reparametrization(square16):
    u = _bump(square16)
    t1 = nehari_scale(square16, NL, u)
    for c in (0.5, 2.0):
        uc = square16.synthesize(c * u.coeffs)
        assert nehari_scale(square16, NL, uc) * c == pytest.approx(t1, rel=1e-12)


def test_scale_rejects_nonpositive_field(square16):
    neg = square16.analyze(-np.abs(_bump(square16).values))
    with pytest.raises(NonpositiveField):
        nehari_scale(square16, NL, neg)


def test_scale_matches_root_finder_on_random_fields(square16):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        c = rng.standard_normal(square16.K) * np.exp(-0.02 * np.arange(square16.K))
        u = square16.synthesize(c)
        if not np.any(u.values > 0):
            continue
        t_closed = nehari_scale(square16, NL, u)
        t_root = nehari_scale_root(square16, NL, u)
        assert abs(t_root - t_closed) <= 1e-10 * t_closed
        checked += 1


def _ray_max(basis, u):
    """(t*, I(t* u)) from the closed-form Nehari scale."""
    e = Energy(basis, NL)
    values = e.values(u.coeffs)
    t = e.nehari_t(u.coeffs, values)
    return t, e.energy(t * u.coeffs, t * values)


def test_ray_max_against_dense_scan(square16):
    u = _bump(square16)
    t_star, value = _ray_max(square16, u)
    assert value > 0
    ts = np.linspace(1e-6, 4 * t_star, 1200)
    e = Energy(square16, NL)
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
    assert rec.energy == pytest.approx((0.5 - 1.0 / (NL.p + 1.0)) * Q, rel=1e-8)


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
    rho = annulus_level(annulus4, NL).rho_schedule[0]
    pen_trace: list[float] = []
    e = Energy(annulus4, NL)
    c, _, _, _, its = nehari._retracted_descent(
        e, ring.coeffs, *_penalty(e, rho, np.zeros(2)), 1e-8, 20000, pen_trace
    )
    assert len(pen_trace) == its > 0
    # accepted values never rise; a few late steps leave F unchanged in the
    # last bit, where the Armijo decrement is below the roundoff of F
    assert np.all(np.diff(pen_trace) <= 0)
    assert pen_trace[-1] < pen_trace[0]

    for basis, u in ((disk_basis, rec.u), (annulus4, annulus4.synthesize(c))):
        Q = float(np.sum(basis.weights * u.coeffs**2))
        assert abs(_j(basis, u)) <= 1e-12 * Q


@pytest.mark.parametrize("lapack", ["evd", "evr"])
def test_newton_step_finishes_formerly_stalled_start(evr_basis, lapack):
    # full span of the R=2 disk at h=0.125: with the Armijo test alone, start
    # random-1 of rng_seed 430440614 stalled on the evr basis after 1612
    # iterations at residual 1.28e-8, no halving passing the test; the floor
    # step finished it, and now the Newton step does in a few dozen
    dom = build_domain("disk", {"R": 2.0}, lam=1.0, h=0.125)
    basis = assemble_and_decompose(dom) if lapack == "evd" else evr_basis(dom)
    tag, center, width = _multistart_seeds(basis, 8, 430440614)[1]
    assert tag == "random-1"
    trace: list[float] = []
    rec = ground_state(basis, NL, gaussian_bump_seed(basis, center, width),
                       tol=1e-8, energy_trace=trace)
    assert rec.converged
    assert rec.iterations <= 100
    F = np.array(trace)
    allowance = 64 * np.finfo(float).eps * np.maximum(np.abs(F[:-1]), 1.0)
    assert np.all(np.diff(F) <= allowance)


@pytest.mark.parametrize("lapack", ["evd", "evr"])
def test_floor_step_finishes_stalled_start(evr_basis, lapack, monkeypatch):
    # the pinned lambda=6 annulus level with the Newton step held off: its
    # last penalty stage then ends where no Armijo halving passes for rounding
    # alone, and floor steps must finish it. With Newton the stages mostly
    # jump past that floor, and whether one lands on it changes with the
    # basis and the BLAS thread count
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=6.0, h=0.25)
    basis = assemble_and_decompose(dom) if lapack == "evd" else evr_basis(dom)
    floor_step = nehari._floor_step
    rises: list[float] = []

    def recorded(obj, c, values, d, dv, F, *rest):
        trial = floor_step(obj, c, values, d, dv, F, *rest)
        if trial is not None:
            rises.append((trial[2] - F) / (64 * np.finfo(float).eps * max(abs(F), 1.0)))
        return trial

    monkeypatch.setattr(nehari, "_floor_step", recorded)
    monkeypatch.setattr(nehari, "_NEWTON_AFTER", 20000)
    rep = annulus_level(basis, NL)
    assert rep.record.converged
    assert rises
    assert max(rises) <= 1.0


def test_newton_products_are_capped_at_max_iter(disk_basis, disk_ground):
    # from a converged start, at tol 0, which no residual meets, the Newton
    # step is tried at every step from the 21st on and costs several Hessian
    # products each time; the descent stops trying it once max_iter products
    # are spent
    rec = disk_ground[0]
    e = Energy(disk_basis, NL)
    products = 0

    def hess(values):
        def hv(v):
            nonlocal products
            products += 1
            return e.hessian_vector(values, v)
        return hv

    max_iter = 200
    *_, residual, _ = nehari._retracted_descent(
        e, rec.u.coeffs, e.value, lambda c, values, _: e.grad(c, values), hess, 0.0, max_iter)
    assert residual > 0.0
    assert max_iter <= products <= max_iter + nehari._CG_MAX_ITER + 1


def test_newton_direction_is_tangent_and_descends(disk_basis):
    e = Energy(disk_basis, NL)
    for center, width in (((0.0, 0.0), 0.4), ((0.3, -0.2), 0.25)):
        c0 = gaussian_bump_seed(disk_basis, center, width).coeffs
        c, values = e.retract(c0, e.values(c0))
        g = e.grad(c, values)
        residual = _residual(float(g @ (g / e.w)), e.energy(c, values))
        y, _ = _newton_direction(e, c, g, lambda v: e.hessian_vector(values, v), residual)
        assert y is not None
        # J'(c) from J = Q - h^2 sum (u+)^3, not from the H c + g the solver uses
        a = 2.0 * e.w * c - 3.0 * e.h2 * (e.phi.T @ np.maximum(values, 0.0) ** 2)
        assert abs(float(a @ y)) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(y)
        assert float(g @ y) < 0.0


def test_newton_finish_converges_every_full_span_disk_start():
    # at the Barzilai-Borwein steps alone, random-1 and random-3 took about
    # 5,000 iterations each, creeping along the near-null translation modes
    dom = build_domain("disk", {"R": 2.0}, lam=1.0, h=0.125)
    basis = assemble_and_decompose(dom)
    rep = level_c(basis, NL, n_multistarts=8, rng_seed=0)
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
    rec = ground_state(disk_basis, NL, seed, tol=1e-12, max_iter=3)
    assert not rec.converged
    assert rec.iterations <= 3
    assert rec.residual > 1e-12


def test_ground_state_rejects_nonpositive_seed(disk_basis):
    flat = disk_basis.analyze(np.full(disk_basis.dom.n_interior, -1.0))
    with pytest.raises(NonpositiveField):
        ground_state(disk_basis, NL, flat)


def test_level_positive_and_collapses_on_disk(disk_basis):
    rep = level_c(disk_basis, NL, n_multistarts=4, rng_seed=1)
    assert rep.value > 0
    assert rep.n_converged >= 3
    assert rep.spread <= 1e-8 * (1.0 + abs(rep.value))
    assert rep.best.energy == rep.value


def test_level_threaded_matches_serial(disk_basis):
    serial = level_c(disk_basis, NL, n_multistarts=3, rng_seed=5, workers=1)
    threaded = level_c(disk_basis, NL, n_multistarts=3, rng_seed=5, workers=3)
    assert serial.value == threaded.value
    assert [r.seed_tag for r in serial.records] == [r.seed_tag for r in threaded.records]


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
        levels[lam] = level_c(basis, NL, n_multistarts=2, rng_seed=0).value
    assert levels[1.0] > levels[2.0] > 0


def test_level_all_starts_failed(disk_basis):
    with pytest.raises(AllStartsFailed):
        level_c(disk_basis, NL, n_multistarts=2, tol=1e-13, max_iter=1)


def test_limit_level_estimate_below_last_level():
    rep = limit_level_estimate(NL, [1.0, 2.0, 4.0], h=0.25, n_multistarts=1)
    assert rep.value < rep.levels[-1]
    assert rep.value > 0
    assert rep.error_bar > 0
    assert rep.levels[0] > rep.levels[1] > rep.levels[2]


def test_limit_level_estimate_stable_under_refinement():
    # run at alpha=0.75 where the ground-state core is wide enough that
    # h=0.25 already resolves it; at alpha=0.5 the core spans ~2 cells and
    # the level itself is still drifting >20% per refinement at this h
    nl = power_model(alpha=0.75)
    coarse = limit_level_estimate(nl, [1.0, 2.0, 4.0], h=0.25, alpha=0.75, n_multistarts=1)
    fine = limit_level_estimate(nl, [1.0, 2.0, 4.0], h=0.125, alpha=0.75, n_multistarts=1)
    assert abs(fine.value - coarse.value) <= 0.05 * abs(fine.value)


def test_limit_level_estimate_rejects_flat_levels():
    # radii so close the discrete masks coincide: levels equal up to rounding
    with pytest.raises(NonmonotoneLevels):
        limit_level_estimate(NL, [1.0, 1.001, 1.002], h=0.3, n_multistarts=1)


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
        limit_level_estimate(NL, [1.0, 2.0], h=0.25)
    with pytest.raises(ValueError):
        limit_level_estimate(NL, [2.0, 1.0, 4.0], h=0.25)
