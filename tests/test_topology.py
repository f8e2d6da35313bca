"""Barycenter, orbit counting, pinned levels, and mirror-saddle checks.

Oracle strategy: barycenter examples use hand-placed bumps with closed-form
centers and exact grid-translation equivariance; the psi seed is checked
against its defining postconditions (on-manifold, center within a node, energy
at most the ball level); the annulus searches are pinned to deterministic
multistart outcomes on a coarse full-span grid where the class structure is
known from the D4 symmetry of the mask.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from fracfield.domain import build_domain, mask_symmetries
from fracfield import morse, topology
from fracfield.errors import (
    AllStartsFailed,
    BallDoesNotFit,
    ConstraintViolated,
    DomainMismatch,
    EigSolveFailure,
    NonpositiveField,
    SaddleNotEscaped,
)
from fracfield.model import Energy, PinnedEnergy, _barycenter
from fracfield.morse import _smallest_eigenpairs, hessian_spectrum
from fracfield.nehari import (
    _residual,
    _retracted_descent,
    _rounding_allowance,
    gaussian_bump_seed,
    ground_state,
    level_c,
    limit_level_estimate,
)
from fracfield.spectral import Field, SpectralBasis, assemble_and_decompose
from fracfield.topology import (
    PsiSeeder,
    annulus_level,
    band_saddle,
    mass_clusters,
    moving_mirrors,
    multiplicity_search,
    symmetry_group,
)
from oracles import (
    coefficient_grad,
    coefficient_hessian,
    coefficients,
    dense_phi,
    energy_at,
    radial_asymmetry,
    weights,
)

P = 2.0

MID_RADIUS = 2.8  # annulus lam=4: 0.5 (R + r) lam with R=1, r=0.4
# the annulus4, disk_host, annulus_classes, annulus_saddle(_run) fixtures live in
# conftest.py, shared session-wide


def _energy_and_j(basis, u):
    """(I, J) at u, read through Energy."""
    e = Energy(basis, P)
    values, r = e.point(u.values)
    Q = e.quadratic(values, r)
    return e.energy(values, Q), e.j(values, Q)


def _bump_values(dom, center, width=0.3):
    d2 = ((dom.node_coords - np.asarray(center)) ** 2).sum(axis=1)
    return np.exp(-d2 / (2.0 * width**2))


# ---------------------------------------------------------------- barycenter


def _beta(u):
    """The barycenter of u's grid values, as the records and the penalty read it."""
    return tuple(_barycenter(u.dom, u.values)[1].tolist())


def test_barycenter_centered_bump(disk_host):
    u = Field(disk_host.dom, _bump_values(disk_host.dom, (0.0, 0.0)))
    _, beta, mass = _barycenter(u.dom, u.values)
    assert abs(beta[0]) <= disk_host.dom.h
    assert abs(beta[1]) <= disk_host.dom.h
    assert mass > 0


def test_barycenter_grid_translation_equivariance(disk_host):
    dom = disk_host.dom
    a = _beta(Field(disk_host.dom, _bump_values(dom, (0.0, 0.0), 0.15)))
    b = _beta(Field(disk_host.dom, _bump_values(dom, (3 * dom.h, -2 * dom.h), 0.15)))
    # same profile sampled at shifted nodes; mass far from the boundary so the
    # mask clip is negligible at this width
    assert b[0] - a[0] == pytest.approx(3 * dom.h, abs=1e-6)
    assert b[1] - a[1] == pytest.approx(-2 * dom.h, abs=1e-6)


def test_barycenter_two_equal_bumps_cancel(disk_host):
    dom = disk_host.dom
    vals = _bump_values(dom, (0.5, 0.0), 0.2) + _bump_values(dom, (-0.5, 0.0), 0.2)
    beta = _beta(Field(disk_host.dom, vals))
    assert abs(beta[0]) <= 1e-10
    assert abs(beta[1]) <= 1e-10


def test_barycenter_scale_invariant_and_ignores_negative_part(disk_host):
    dom = disk_host.dom
    vals = _bump_values(dom, (0.3, -0.2)) - 0.05
    beta = _beta(Field(disk_host.dom, vals))
    scaled = _beta(Field(disk_host.dom, 3.7 * vals))
    assert scaled == pytest.approx(beta, rel=1e-13)
    # deepening the negative part must not move beta
    deeper = np.where(vals <= 0.0, vals - 1.0, vals)
    assert _beta(Field(disk_host.dom, deeper)) == beta


def test_barycenter_rejects_nonpositive(disk_host):
    with pytest.raises(NonpositiveField):
        _beta(Field(disk_host.dom, -_bump_values(disk_host.dom, (0.0, 0.0))))


def test_barycenter_band_membership_detects_hole(annulus4, disk_host):
    # a symmetric ring has beta at the origin, inside the hole: the membership
    # test must say the point is NOT within a 1.0-band of the annulus
    dom = annulus4.dom
    rr = np.sqrt((dom.node_coords**2).sum(axis=1))
    beta = _beta(Field(annulus4.dom, np.exp(-((rr - MID_RADIUS) ** 2))))
    assert abs(beta[0]) <= 1e-10 and abs(beta[1]) <= 1e-10
    assert not dom.region_distance(beta)[0] <= 1.0
    # while a bump inside the disk is trivially within any band of it
    inside = _beta(Field(disk_host.dom, _bump_values(disk_host.dom, (0.0, 0.0))))
    assert disk_host.dom.region_distance(inside)[0] <= 0.05


# ------------------------------------------------------------ symmetry group


def test_symmetry_group_sizes():
    square = build_domain("rectangle", {"a": 2.0, "b": 2.0}, lam=1.0, h=0.1)
    rect = build_domain("rectangle", {"a": 2.0, "b": 1.0}, lam=1.0, h=0.1)
    annulus = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=4.0, h=0.25)
    assert len(symmetry_group(square)) == 8
    assert len(symmetry_group(rect)) == 4  # axis swaps cannot preserve the mask
    assert len(symmetry_group(annulus)) == 8


def test_symmetry_group_elements_are_exact_permutations(annulus4):
    dom = annulus4.dom
    perms = symmetry_group(dom)
    assert np.array_equal(perms[0], np.arange(dom.n_interior))
    for perm in perms:
        assert np.array_equal(np.sort(perm), np.arange(dom.n_interior))
    # the x-reflection must appear and act exactly on the centered coordinates
    reflected = [
        p for p in perms
        if np.array_equal(dom.node_coords[p][:, 0], -dom.node_coords[:, 0])
        and np.array_equal(dom.node_coords[p][:, 1], dom.node_coords[:, 1])
    ]
    assert len(reflected) == 1


# ----------------------------------------------------------------- psi seeds


def test_psi_seed_postconditions(annulus4):
    seeder = PsiSeeder(Energy(annulus4, P), ball_radius=1.0)
    assert seeder.ball_level > 0
    for angle in (0.2, 1.1, 2.3, 3.7, 5.1):
        x_tilde = (MID_RADIUS * np.cos(angle), MID_RADIUS * np.sin(angle))
        u = seeder.seed(x_tilde)
        Q = float(np.sum(weights(annulus4) * coefficients(annulus4, u) ** 2))
        energy, j = _energy_and_j(annulus4, u)
        assert abs(j) <= 1e-10 * Q
        beta = _beta(u)
        snapped = annulus4.dom.node_coords[seeder.node(x_tilde)]
        assert np.hypot(beta[0] - snapped[0], beta[1] - snapped[1]) <= annulus4.dom.h
        # zero-extension can only lower the quadratic form on a full span, so
        # the projected seed never exceeds the ball level
        assert energy <= seeder.ball_level + 1e-9


@pytest.fixture(scope="module")
def disk_seeder(disk_host):
    # host disk and seeding ball share shape, radius, and grid
    return PsiSeeder(Energy(disk_host, P), ball_radius=1.0)


def test_psi_seed_on_matching_disk_reproduces_ball_state(disk_host, disk_seeder):
    # the stamp is a node-for-node copy and the projected energy equals the
    # ball level
    u = disk_seeder.seed((0.0, 0.0))
    assert _energy_and_j(disk_host, u)[0] == pytest.approx(disk_seeder.ball_level, abs=1e-9)


def test_psi_seed_ball_must_fit(annulus4, disk_seeder):
    seeder = PsiSeeder(Energy(annulus4, P), ball_radius=1.0)
    with pytest.raises(BallDoesNotFit):
        seeder.seed((3.7, 0.0))  # only 0.3 from the outer boundary
    with pytest.raises(BallDoesNotFit):
        # unit ball into the unit disk anywhere off center cannot fit
        disk_seeder.seed((0.5, 0.0))


# -------------------------------------------------------------- multiplicity


def test_multiplicity_two_orbit_classes_on_annulus(annulus_classes):
    rep = annulus_classes
    assert rep.n_seeds == 8
    assert rep.n_converged == 8
    assert rep.n_classes == 2
    assert sorted(cl.orbit_size for cl in rep.classes) == [4, 4]
    lo, hi = rep.classes[0], rep.classes[1]
    assert lo.representative.energy < hi.representative.energy
    # diagonal minima and axis states split by the energy gap alone
    gap = hi.representative.energy - lo.representative.energy
    assert gap == pytest.approx(0.0090, abs=0.002)
    for cl in rep.classes:
        assert rep.below_ball_level(cl.representative.energy)
        assert cl.beta_in_plus
        assert cl.representative.positive
        assert cl.representative.residual <= 1e-8 * (1 + abs(cl.representative.energy))


def test_multiplicity_levels_match_frozen_anchors(annulus_classes):
    # deterministic pipeline: values frozen from an independent probe run
    assert annulus_classes.ball_level == pytest.approx(4.569331751, rel=1e-6)
    assert annulus_classes.classes[0].representative.energy == pytest.approx(4.399484421, rel=1e-6)
    assert annulus_classes.classes[1].representative.energy == pytest.approx(4.408484889, rel=1e-6)


def test_multiplicity_order_independent(annulus4, annulus_classes):
    centers = [
        (MID_RADIUS * np.cos(k * np.pi / 4), MID_RADIUS * np.sin(k * np.pi / 4))
        for k in (3, 0, 6, 1)
    ]
    rep = multiplicity_search(Energy(annulus4, P), centers, ball_radius=1.0)
    assert rep.n_classes == 2
    for got, ref in zip(rep.classes, annulus_classes.classes):
        assert got.representative.energy == pytest.approx(ref.representative.energy, rel=1e-9)


def test_multiplicity_collapses_on_disk(disk_host):
    centers = [(0.0, 0.0), (0.2, 0.0), (-0.2, 0.0), (0.0, 0.2), (0.0, -0.2)]
    rep = multiplicity_search(Energy(disk_host, P), centers, ball_radius=0.5)
    assert rep.n_classes == 1
    assert rep.classes[0].orbit_size == 5
    assert rep.below_ball_level(rep.classes[0].representative.energy)


def test_multiplicity_rejects_empty_centers(annulus4):
    with pytest.raises(ValueError, match="seed center"):
        multiplicity_search(Energy(annulus4, P), [], ball_radius=1.0)


@pytest.mark.parametrize("limits", [{"max_iter": 3}, {"tol": 1e-17}])
def test_multiplicity_fails_typed_on_an_unconverged_ball(annulus4, limits):
    # the seeding ball is solved within the caller's tol and max_iter: a ball
    # state that does not converge is no level to compare the classes against
    centers = [(MID_RADIUS, 0.0), (0.0, MID_RADIUS)]
    with pytest.raises(AllStartsFailed, match="seeding ball of radius 1 "):
        multiplicity_search(Energy(annulus4, P), centers, ball_radius=1.0, **limits)


def test_multiplicity_warning_names_the_dropped_start(annulus4, monkeypatch, caplog):
    # a start that does not converge is logged by its seed tag, whose center
    # is already formatted, and dropped
    def second_start_stalls(energy, seed, seed_tag, **kwargs):
        if seed_tag.startswith("psi-1@"):
            kwargs["max_iter"] = 1
        return ground_state(energy, seed, seed_tag=seed_tag, **kwargs)

    monkeypatch.setattr(topology, "ground_state", second_start_stalls)
    # numpy scalars, as the runner's centers are; an axis and a diagonal
    # center, two seed orbits, so that the second start is descended
    diagonal = MID_RADIUS / np.sqrt(2.0)
    centers = [tuple(np.array(c)) for c in ((MID_RADIUS, 0.0), (diagonal, diagonal))]
    with caplog.at_level("WARNING", logger="fracfield.topology"):
        rep = multiplicity_search(Energy(annulus4, P), centers, ball_radius=1.0)
    assert rep.n_seeds == 2 and rep.n_converged == 1
    [warning] = [r.getMessage() for r in caplog.records if "did not converge" in r.getMessage()]
    assert "psi-1@(1.98,1.98)" in warning
    assert "np.float64" not in warning


def _mid_circle(*degrees):
    return [(MID_RADIUS * np.cos(np.radians(d)), MID_RADIUS * np.sin(np.radians(d)))
            for d in degrees]


@pytest.fixture
def descents(monkeypatch):
    """The seed tags that multiplicity_search runs ground_state on, in order."""
    tags: list[str] = []

    def counted(energy, seed, seed_tag, **kwargs):
        tags.append(seed_tag)
        return ground_state(energy, seed, seed_tag=seed_tag, **kwargs)

    monkeypatch.setattr(topology, "ground_state", counted)
    return tags


def test_multiplicity_descends_once_per_seed_orbit(annulus4, disk_host, descents):
    # the eight mid-circle centers form two orbits of the mask's D4, the axis
    # and the diagonal one
    rep = multiplicity_search(Energy(annulus4, P), _mid_circle(*range(0, 360, 45)),
                              ball_radius=1.0)
    assert descents == ["psi-0@(2.8,0)", "psi-1@(1.98,1.98)"]
    assert rep.n_converged == 8
    assert sorted(cl.orbit_size for cl in rep.classes) == [4, 4]
    # the disk's center and its four axis points
    descents.clear()
    centers = [(0.0, 0.0), (0.2, 0.0), (-0.2, 0.0), (0.0, 0.2), (0.0, -0.2)]
    multiplicity_search(Energy(disk_host, P), centers, ball_radius=0.5)
    assert len(descents) == 2
    # no mask symmetry takes the 30 degree node to the axis one
    descents.clear()
    multiplicity_search(Energy(annulus4, P), _mid_circle(0, 30), ball_radius=1.0)
    assert len(descents) == 2


def test_multiplicity_image_records_match_their_own_descents(annulus4, descents, monkeypatch):
    # 120 and 300 degrees are the 30 degree node's images under the quarter
    # turns, which are not involutions: mapping by the inverse of the right
    # permutation would put the bump at 300 degrees for 120 and back
    centers = _mid_circle(30, 120, 150, 300, 0, 90, 180)
    grouped = topology.orbit_classes
    seen: list[list] = []

    def recorded(basis, records):
        seen.append(list(records))
        return grouped(basis, records)

    monkeypatch.setattr(topology, "orbit_classes", recorded)
    energy = Energy(annulus4, P)
    multiplicity_search(energy, centers, ball_radius=1.0)
    [records] = seen
    assert len(records) == len(centers)
    assert len(descents) == 2
    seeder = PsiSeeder(energy, ball_radius=1.0)
    images = [rec for rec in records if rec.seed_tag not in descents]
    assert len(images) == 5
    for rec in images:
        k = int(rec.seed_tag[4:rec.seed_tag.index("@")])
        own = ground_state(energy, seeder.seed(centers[k]), seed_tag=rec.seed_tag)
        assert rec.energy == pytest.approx(own.energy, rel=1e-12)
        diff = rec.u.values - own.u.values
        assert np.sqrt(diff @ diff) <= 1e-10 * np.sqrt(own.u.values @ own.u.values)
        assert rec.iterations == own.iterations
        assert rec.converged and rec.positive == own.positive
        assert rec.barycenter == pytest.approx(own.barycenter, abs=1e-9)


# ------------------------------------------------------------- pinned level


def test_annulus_level_pinned_to_center(annulus4, annulus_classes):
    rep = annulus_level(Energy(annulus4, P), x_tilde=(0.0, 0.0))
    assert rep.record.converged
    assert rep.distance_to_target <= 2 * annulus4.dom.h
    assert rep.record.positive
    # pinning the barycenter into the hole costs real energy: the value sits
    # far above the unconstrained classes, and the mass must split
    assert rep.value > annulus_classes.classes[0].representative.energy * 1.05
    assert rep.value == pytest.approx(8.826, rel=1e-3)
    fractions = mass_clusters(rep.record.u)
    assert fractions[0] < 0.9
    assert len(rep.rho_schedule) == 4
    assert all(b > a for a, b in zip(rep.rho_schedule, rep.rho_schedule[1:]))


def test_penalty_is_energy_plus_gap_to_the_barycenter(annulus4):
    # the penalty's beta is the records' barycenter, bit for bit: with x_tilde
    # 1e-3 from beta and rho making the penalty as large as I, a one-ulp change
    # of beta would move F by about 1e-12
    e = Energy(annulus4, P)
    x0 = e.point(gaussian_bump_seed(annulus4, (MID_RADIUS, 0.0), 0.8).values)
    u, r = e.retract(*x0)
    beta = _barycenter(annulus4.dom, u)[1]
    x_tilde = beta + np.array([1e-3, -1e-3])
    energy = e.measure(u)[0]
    rho = abs(energy) / 2e-6
    # max_iter=0: the kernel retracts the seed, measures F there and stops
    pinned = PinnedEnergy(annulus4, P, rho, x_tilde)
    (u_k, r_k), F, _, its = _retracted_descent(pinned, x0, 1e-8, 0)
    assert its == 0
    assert np.array_equal(u_k, u) and np.array_equal(r_k, r)
    gap = beta - x_tilde
    assert F == energy + rho * float(gap @ gap)


@pytest.mark.parametrize("lam", [2.0, 4.0, 6.0])
def test_annulus_level_converges_on_evd_and_evr(unblocked_basis, lam):
    # the last penalty stage ends where rounding decides whether a step
    # passes the Armijo case of the acceptance rule; its rounding case must
    # finish the stage on the evd and evr bases alike
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=lam, h=0.25)
    levels = []
    for basis in (assemble_and_decompose(dom), unblocked_basis(dom)):
        rep = annulus_level(Energy(basis, P))
        assert rep.record.converged
        levels.append(rep.value)
    assert levels[0] == pytest.approx(levels[1], rel=1e-12)


def test_annulus_level_infeasible_target(annulus4):
    with pytest.raises(ConstraintViolated):
        annulus_level(Energy(annulus4, P), x_tilde=(10.0, 0.0), max_iter=2000)


def _off_centre_penalty(annulus4):
    """(Energy, PinnedEnergy, c, values) for a bump off the axes, cut below zero
    so m = 1[u > 0] is not all ones, with x_tilde off its barycenter and rho
    making the penalty's gradient comparable to the energy's."""
    e = Energy(annulus4, P)
    dom = annulus4.dom
    values = _bump_values(dom, (MID_RADIUS * np.cos(0.5), MID_RADIUS * np.sin(0.5)), 0.8) - 0.05
    c = coefficients(annulus4, Field(dom, values))
    values = dense_phi(annulus4) @ c
    beta = _barycenter(dom, values)[1]
    x_tilde = beta + np.array([0.4, -0.3])
    rho = float(np.linalg.norm(coefficient_grad(e, c))) / 0.5
    return e, PinnedEnergy(annulus4, P, rho, x_tilde), c, values


def test_pinned_gradient_matches_energy_differences(annulus4):
    # the Hessian test differences the gradient; this one differences F itself,
    # so a gradient that is wrong but consistent with its Hessian fails here
    e, pinned, c, values = _off_centre_penalty(annulus4)
    g, g_energy = coefficient_grad(pinned, c), coefficient_grad(e, c)
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.standard_normal(c.size) * np.exp(-0.01 * np.arange(c.size))
        z = dense_phi(annulus4) @ v
        eps = 2e-5 / float(np.abs(z).max())
        # central differences stay on one side of u = 0 at every node
        assert np.all(np.abs(values) > 10.0 * eps * np.abs(z))

        def diff(energy):
            return (energy_at(energy, c + eps * v) - energy_at(energy, c - eps * v)) / (2.0 * eps)

        fd = diff(pinned)
        assert abs(fd - float(g @ v)) <= 1e-8 * abs(fd)
        # the penalty's part alone, not drowned by the energy's
        fd_pen = fd - diff(e)
        pen = float((g - g_energy) @ v)
        assert abs(pen) >= 0.1 * abs(fd)
        assert abs(fd_pen - pen) <= 1e-8 * abs(pen)


def test_penalty_hessian_matches_gradient_differences(annulus4):
    e, pinned, c, values = _off_centre_penalty(annulus4)
    # central differences stay on one side of u = 0 at every node
    rng = np.random.default_rng(3)
    for _ in range(3):
        v = rng.standard_normal(c.size) * np.exp(-0.01 * np.arange(c.size))
        z = dense_phi(annulus4) @ v
        eps = 1e-6 / float(np.abs(z).max())
        assert np.all(np.abs(values) > 10.0 * eps * np.abs(z))

        def g(t):
            return coefficient_grad(pinned, c + t * v)

        fd = (g(eps) - g(-eps)) / (2.0 * eps)
        hv = coefficient_hessian(pinned, c)(v)
        assert np.linalg.norm(fd - hv) <= 1e-8 * np.linalg.norm(hv)
        # the penalty's part alone, not drowned by the energy's
        pen = hv - coefficient_hessian(e, c)(v)
        fd_pen = fd - (coefficient_grad(e, c + eps * v)
                       - coefficient_grad(e, c - eps * v)) / (2.0 * eps)
        assert np.linalg.norm(pen) >= 0.1 * np.linalg.norm(hv)
        assert np.linalg.norm(fd_pen - pen) <= 1e-8 * np.linalg.norm(pen)


def test_penalty_hessian_is_symmetric(annulus4):
    _, pinned, c, values = _off_centre_penalty(annulus4)
    hess = coefficient_hessian(pinned, c)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b = rng.standard_normal((2, c.size))
        lhs, rhs = float(a @ hess(b)), float(hess(a) @ b)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(hess(a)) * np.linalg.norm(b)


def test_penalty_hessian_sends_c_to_nehari_differential(annulus4):
    # the penalty is 0-homogeneous, so H_F c + g_F = J'(c), here computed from
    # J = Q - h^2 sum (u+)^3 and not from the energy's Hessian
    e, pinned, c, values = _off_centre_penalty(annulus4)
    jprime = 2.0 * weights(annulus4) * c - 3.0 * e.h2 * (
        dense_phi(annulus4).T @ np.maximum(values, 0.0) ** 2)
    g = coefficient_grad(pinned, c)
    lhs = coefficient_hessian(pinned, c)(c) + g
    assert np.linalg.norm(lhs - jprime) <= 1e-12 * np.linalg.norm(g - coefficient_grad(e, c))


@pytest.fixture(scope="module")
def annulus2():
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, lam=2.0, h=0.25)
    return assemble_and_decompose(dom)


def _diagonal_bumps_seed(basis):
    """Four equal bumps on the diagonals of the mid circle: exactly D4-symmetric."""
    dom = basis.dom
    mid = 0.5 * (dom.params["R"] + dom.params["r"]) * dom.lam
    vals = sum(_bump_values(dom, (mid * np.cos(a), mid * np.sin(a)), 0.4)
               for a in np.pi / 4 * np.array([1, 3, 5, 7]))
    return Field(basis.dom, vals)


def test_annulus_level_escapes_the_four_bump_saddle(annulus2, monkeypatch):
    # from four D4-symmetric bumps the first stage converges to the
    # four-bump critical point, which is a saddle of F (index 2); the default
    # ring seed reaches it too under some BLAS thread counts and leaves it by
    # rounding under others. The second-order check steps off it, and the
    # level ends at the two-bump minimum.
    basis = annulus2
    escape = topology._saddle_escape
    taken: list[bool] = []

    def counted(*args):
        step = escape(*args)
        taken.append(step is not None)
        return step

    monkeypatch.setattr(topology, "_saddle_escape", counted)
    rep = annulus_level(Energy(basis, P), seed=_diagonal_bumps_seed(basis))
    assert sum(taken) >= 1
    assert rep.record.converged
    assert rep.value == pytest.approx(9.418961681314, rel=1e-11)
    fractions = mass_clusters(rep.record.u)
    assert len(fractions) == 2
    assert fractions[0] == pytest.approx(fractions[1], rel=1e-6)
    pinned = PinnedEnergy(basis, P, rep.rho_schedule[-1], np.zeros(2))
    ev, _ = _smallest_eigenpairs(pinned, rep.record.u.values, 2)
    assert ev[0] < 0.0 < ev[1]


def test_escape_check_agrees_with_hessian_spectrum(annulus2, monkeypatch):
    # the check steps exactly where hessian_spectrum of the stage's objective
    # counts index 2 (the four-bump saddle), and at the level's end point,
    # index 1, it returns None
    basis = annulus2
    escape = topology._saddle_escape
    checks: list[tuple[int, bool]] = []

    def indexed(obj, x):
        step = escape(obj, x)
        checks.append((hessian_spectrum(obj, Field(obj.basis.dom, x[0])).morse_index,
                       step is not None))
        return step

    monkeypatch.setattr(topology, "_saddle_escape", indexed)
    rep = annulus_level(Energy(basis, P), seed=_diagonal_bumps_seed(basis))
    assert (2, True) in checks
    assert all(index == (2 if stepped else 1) for index, stepped in checks)
    pinned = PinnedEnergy(basis, P, rep.rho_schedule[-1], np.zeros(2))
    assert hessian_spectrum(pinned, rep.record.u).morse_index == 1
    assert escape(pinned, pinned.point(rep.record.u.values)) is None


def test_pinned_pencil_matches_the_dense_coefficient_pencil(annulus4, monkeypatch):
    # at the ring-penalty point of annulus4, the two smallest theta of the
    # nodal pencil (L - E) y = theta L y, from ARPACK's mode 2, are those of
    # the dense coefficient pencil H x = theta W x; the escape step, forced
    # here at this minimum, is _ESCAPE_SIZE sqrt(Q) times the point (y, L y)
    # of the second eigenvector y = phi x, h^2 y^T L y = 1, signed so that its
    # largest-magnitude value is positive
    rep = annulus_level(Energy(annulus4, P))
    u = rep.record.u.values
    pinned = PinnedEnergy(annulus4, P, rep.rho_schedule[-1], np.zeros(2))
    phi, w = dense_phi(annulus4), weights(annulus4)
    # H = W - h^2 phi^T E phi with E the curvature at u itself: the penalty is
    # stiff enough that its E at phi c, c = h^2 phi^T u, moves theta by 1e-12.
    # So is the pencil: W^-1/2 H W^-1/2 has norm about 3e4, and the dense
    # generalized and standard solvers agree on theta only to about 5e-12
    E = pinned.curvature(u)
    H = np.diag(w) - pinned.h2 * phi.T @ np.column_stack([E(col) for col in phi.T])
    theta, X = scipy.linalg.eigh(0.5 * (H + H.T), np.diag(w), subset_by_index=[0, 1])
    got, _ = _smallest_eigenpairs(pinned, u, 2)
    assert np.max(np.abs(got - theta)) <= 2e-11

    monkeypatch.setattr(topology, "DEFAULT_EPS_NULL", -(theta[1] + 1.0))
    x = pinned.point(u)
    r = x[1]
    step_u, step_r = topology._saddle_escape(pinned, x)
    y = phi @ X[:, 1]
    y = y if y[np.argmax(np.abs(y))] > 0.0 else -y
    scale = topology._ESCAPE_SIZE * np.sqrt(pinned.quadratic(u, r))
    assert np.linalg.norm(step_u / scale - y) <= 1e-8 * np.linalg.norm(y)
    assert pinned.h2 * float(step_u @ step_r) / scale**2 == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(step_r, pinned.point(step_u)[1])


def test_annulus_level_checks_only_the_point_it_returns(annulus4, annulus2, monkeypatch):
    # the stages before the last only warm-start the next: the second-order
    # check runs on the last stage's objective, once where the last stage
    # ends at a minimum (the centre target on annulus4), and after each
    # escape's re-descent at the last rho where it ends at a saddle (the
    # four-bump point that annulus2's diagonal seed keeps to the last stage)
    descent, escape = topology._retracted_descent, topology._saddle_escape
    events: list[tuple] = []

    def descended(obj, *args):
        out = descent(obj, *args)
        events.append(("descent", obj.rho))
        return out

    def checked(obj, x):
        step = escape(obj, x)
        events.append(("check", obj.rho, step is not None))
        return step

    monkeypatch.setattr(topology, "_retracted_descent", descended)
    monkeypatch.setattr(topology, "_saddle_escape", checked)
    rep = annulus_level(Energy(annulus4, P))
    stages = [("descent", rho) for rho in rep.rho_schedule]
    assert events == stages + [("check", rep.rho_schedule[-1], False)]

    events.clear()
    rep = annulus_level(Energy(annulus2, P), seed=_diagonal_bumps_seed(annulus2))
    stages = [("descent", rho) for rho in rep.rho_schedule]
    last = rep.rho_schedule[-1]
    escapes = sum(1 for e in events if e[0] == "check" and e[2])
    assert escapes >= 1
    assert events == (stages + [("check", last, True), ("descent", last)] * escapes
                      + [("check", last, False)])
    assert rep.record.converged


def test_annulus_level_escapes_are_bounded(annulus2, monkeypatch):
    monkeypatch.setattr(topology, "_MAX_ESCAPES", 0)
    with pytest.raises(SaddleNotEscaped):
        annulus_level(Energy(annulus2, P), seed=_diagonal_bumps_seed(annulus2))


def test_annulus_level_check_failure_is_typed(annulus4, monkeypatch):
    # one Lanczos restart cannot converge the check: on a feasible target that
    # is an eigensolve failure, not a level
    monkeypatch.setattr(morse, "_LANCZOS_RESTARTS", 1)
    with pytest.raises(EigSolveFailure):
        annulus_level(Energy(annulus4, P))


def test_unconverged_stage_ends_the_continuation(annulus4):
    # the ring seed's barycenter is the target, so the level is returned,
    # unconverged, after the first stage's max_iter steps
    rep = annulus_level(Energy(annulus4, P), max_iter=5)
    assert not rep.record.converged
    assert rep.record.iterations == 5


def test_annulus_level_rejects_other_shapes(disk_host):
    with pytest.raises(ValueError, match="annulus"):
        annulus_level(Energy(disk_host, P))


def test_annulus_level_rejects_a_seed_from_another_domain(annulus4):
    disk = assemble_and_decompose(build_domain("disk", {"R": 1.0}, lam=1.0, h=0.2), alpha=0.5)
    seed = gaussian_bump_seed(disk, (0.0, 0.0), 0.5)
    with pytest.raises(DomainMismatch):
        annulus_level(Energy(annulus4, P), seed=seed)


# ------------------------------------------------------------- mass clusters


def test_mass_clusters_single_and_split(disk_host):
    dom = disk_host.dom
    bump = Field(disk_host.dom, _bump_values(dom, (0.0, 0.0), 0.15))
    single = mass_clusters(bump)
    assert len(single) == 1
    # fractions are shares of the total (u+)^2 mass, so the tail below the
    # threshold keeps the lone component slightly under one
    assert 0.9 <= single[0] <= 1.0
    assert mass_clusters(bump, level_frac=0.05)[0] >= 0.99
    two = mass_clusters(
        Field(disk_host.dom, 
            _bump_values(dom, (0.55, 0.0), 0.12) + _bump_values(dom, (-0.55, 0.0), 0.12)
        )
    )
    assert len(two) == 2
    assert two[0] == pytest.approx(0.5, abs=0.05)
    assert two[0] >= two[1]
    assert sum(two) <= 1.0 + 1e-12


def test_mass_clusters_validation(disk_host):
    u = Field(disk_host.dom, _bump_values(disk_host.dom, (0.0, 0.0)))
    with pytest.raises(ValueError, match="level_frac"):
        mass_clusters(u, level_frac=0.0)
    with pytest.raises(NonpositiveField):
        mass_clusters(Field(disk_host.dom, -u.values))


# --------------------------------------------------------- radial asymmetry


def test_radial_asymmetry_discriminates(disk_host):
    dom = disk_host.dom
    rr2 = (dom.node_coords**2).sum(axis=1)
    radial = Field(disk_host.dom, np.exp(-rr2))
    assert radial_asymmetry(radial) <= 1e-12
    offset = Field(disk_host.dom, _bump_values(dom, (0.4, 0.0), 0.25))
    assert radial_asymmetry(offset) > 0.1
    with pytest.raises(NonpositiveField):
        radial_asymmetry(Field(disk_host.dom, np.zeros(dom.n_interior)))


def test_radial_asymmetry_of_disk_ground_state(disk_host):
    seed = gaussian_bump_seed(disk_host, (0.0, 0.0), 0.4)
    rec = ground_state(Energy(disk_host, P), seed)
    assert rec.converged
    assert radial_asymmetry(rec.u) <= 0.02


# ---------------------------------------------------------------- saddle


def test_band_saddle_between_adjacent_minima(annulus4, annulus_classes, annulus_saddle):
    # the saddle between the lowest class and its x-mirror image, as the
    # minimum of I on the Nehari manifold in the x-mirror's fixed-point
    # subspace; a climbing-image band strung between the two reached
    # 8.795460970536, two bumps side by side at twice the class energy
    rec = annulus_saddle.saddle
    assert rec.converged and rec.positive
    assert rec.seed_tag == "mirror-x-fixed"
    assert rec.energy == pytest.approx(8.795460970536, rel=1e-10)
    assert rec.energy > 1.5 * annulus_classes.classes[0].representative.energy
    # the values stay exactly even under the mirror
    x = annulus4.dom.node_coords
    (mirror,) = [p for p in symmetry_group(annulus4.dom)
                 if np.array_equal(x[p], x * np.array([-1.0, 1.0]))]
    assert np.array_equal(rec.u.values[mirror], rec.u.values)
    # the record is judged on the full-space residual of I, the odd modes
    # included, recomputed here from phi c on the tests' dense phi rather
    # than the carried values
    obj = Energy(annulus4, P)
    c = coefficients(annulus4, rec.u)
    energy = energy_at(obj, c)
    assert abs(energy - rec.energy) <= _rounding_allowance(rec.energy)
    g = coefficient_grad(obj, c)
    residual = _residual(float(g @ (g / weights(annulus4))), energy)
    assert residual == pytest.approx(rec.residual, rel=1e-12)
    assert residual <= 1e-8


def test_band_saddle_products_per_sweep(annulus_saddle_run):
    # one Riesz map per accepted step, on the fixed-point subspace (the
    # gradient's; a halving needs none), plus the start's; the start's point
    # (G_+ L_+ v, L_+ v) is one fixed_operator and one fixed_green more, and
    # the record's measure, on the whole space, one operator and one green.
    # The band took 11 sweeps of 11 products each here; the descent takes 7 steps
    report, products = annulus_saddle_run
    assert report.sweeps == report.saddle.iterations
    assert 1 <= report.sweeps <= 10
    assert products["fixed_green"] <= report.sweeps + 2
    assert products["fixed_operator"] == 1
    assert products["operator"] == products["green"] == 1


def test_band_saddle_beyond_p_two(annulus4):
    # the same saddle for p = 2.5: the band reached 3.1152564, index 2
    energy = Energy(annulus4, 2.5)
    centers = [(MID_RADIUS * np.cos(k * np.pi / 4), MID_RADIUS * np.sin(k * np.pi / 4))
               for k in range(8)]
    classes = multiplicity_search(energy, centers, ball_radius=1.0)
    lo = classes.classes[0].representative.u
    mirror, *_ = moving_mirrors(annulus4, lo)
    report = band_saddle(energy, lo, mirror)
    assert report.saddle.converged and report.sweeps <= 10
    assert report.saddle.energy == pytest.approx(3.1152564, rel=1e-6)
    rep = hessian_spectrum(energy, report.saddle.u)
    assert rep.morse_index == 2 and rep.nondegenerate


@pytest.fixture
def no_products(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a product with L or G ran before validation")

    for name in ("operator", "green", "fixed_operator", "fixed_green"):
        monkeypatch.setattr(SpectralBasis, name, refuse)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
def test_band_saddle_rejects_meaningless_tol(annulus4, annulus_classes, tol, no_products):
    # unchecked, nan runs max_iter steps and returns converged=False, and inf
    # returns the retracted start as converged; the descent entry points and
    # the multistart ones refuse both before any product with L or G
    energy = Energy(annulus4, P)
    lo = annulus_classes.classes[0].representative.u
    for call in (lambda: band_saddle(energy, lo, 0, tol=tol),
                 lambda: ground_state(energy, lo, tol=tol),
                 lambda: annulus_level(energy, tol=tol),
                 lambda: level_c(energy, tol=tol),
                 lambda: multiplicity_search(energy, [(MID_RADIUS, 0.0)], 1.0, tol=tol),
                 lambda: limit_level_estimate(P, [1.0, 2.0, 3.0], 0.25, tol=tol)):
        with pytest.raises(ValueError, match="tol"):
            call()


def test_band_saddle_rejects_one_state_at_both_ends(annulus4, annulus_classes, no_products):
    # unchecked, a mirror that leaves u in place starts the descent at 2u,
    # which retracts onto u itself, a minimum (index 1) reported as the saddle
    axis = annulus_classes.classes[1].representative.u
    (fixing,) = {0, 1} - set(moving_mirrors(annulus4, axis))
    with pytest.raises(ValueError, match="one state"):
        band_saddle(Energy(annulus4, P), axis, fixing)
    # generator 2 is the swap, no mirror
    with pytest.raises(ValueError, match="one state"):
        band_saddle(Energy(annulus4, P), axis, 2)


def test_adjacent_orbit_image_is_never_the_state_itself(annulus4, annulus_classes):
    # the adjacent image band_saddle starts from is u∘σ for a mirror σ that
    # moving_mirrors gives; an axis state mirrored across its own axis is itself
    # again, so that mirror must not be among them
    h = annulus4.dom.h
    axis = annulus_classes.classes[1].representative
    images = [Field(annulus4.dom, axis.u.values[p]) for p in symmetry_group(annulus4.dom)]
    on_x = [u for u in images if abs(_beta(u)[1]) < h]
    on_y = [u for u in images if abs(_beta(u)[0]) < h]
    # the states at (+-2.8, 0) and (0, +-2.8), each twice, since the
    # representative is its own mirror image
    assert len(on_x) == len(on_y) == 4
    for u in on_x:
        assert moving_mirrors(annulus4, u) == [0]
    for u in on_y:
        assert moving_mirrors(annulus4, u) == [1]
    # off the axes both mirrors move the state, the x-mirror first
    assert moving_mirrors(annulus4, annulus_classes.classes[0].representative.u) == [0, 1]
    # and every image a moving mirror makes lies more than 2h from the state
    mirrors = {used[0]: perm for perm, used in mask_symmetries(annulus4.dom)
               if used in ((0,), (1,))}
    for u in images + [annulus_classes.classes[0].representative.u]:
        ref = np.array(_beta(u))
        for m in moving_mirrors(annulus4, u):
            partner = Field(annulus4.dom, u.values[mirrors[m]])
            assert np.hypot(*(np.array(_beta(partner)) - ref)) > 2 * h


def test_adjacent_orbit_image_ignores_the_sign_of_rounding_noise(annulus4, annulus_classes,
                                                                 monkeypatch):
    # on an axis state the off-axis barycenter coordinate is rounding noise;
    # moving_mirrors compares distances with 2h, so the mirrors it gives, and
    # with them the adjacent images, must not depend on the sign that noise draws
    h = annulus4.dom.h
    images = [Field(annulus4.dom, rep.u.values[p])
              for rep in (c.representative for c in annulus_classes.classes)
              for p in symmetry_group(annulus4.dom)]
    u = next(v for v in images if abs(_beta(v)[1]) < h and _beta(v)[0] > h)
    barycenter = topology._barycenter
    found = []
    for noise in (1e-17, -1e-17):
        def nudged(dom, values, noise=noise):
            up, beta, mass = barycenter(dom, values)
            if values is u.values:
                beta = np.array([beta[0], noise])
            return up, beta, mass

        monkeypatch.setattr(topology, "_barycenter", nudged)
        found.append(moving_mirrors(annulus4, u))
    assert found[0] == found[1] == [0]
