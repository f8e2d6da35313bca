"""Nehari-manifold projection, ground states, and level computations.

The manifold M is the set of nontrivial fields with J(u) = Q(u) - <h(u), u> = 0,
where Q(u) = h^2 u . L u, L = (-Delta)^alpha + I. For the power family h(s) = (s_+)^p
every ray through a field with nontrivial positive part meets M exactly once,
at t = (Q/P)^(1/(p-1)) with P = h^2 sum (u_+)^(p+1), and that point maximizes
the energy along the ray. Ground states are found by retracted descent: a
step followed by the closed-form rescaling back onto M. On M the radial
derivative of I vanishes (I'(u)[u] = J(u) = 0), so the full gradient is
tangent to first order and the retracted step decreases energy for small
step sizes. The descent kernel takes one objective object, a model.Energy
or its model.PinnedEnergy, and runs on its nodal points (u, r), r =
L u (model module docstring): it reads from the objective F at the
retracted trial (level), the nodal gradient, the curvature E of the second
variation and the Riesz image G g (riesz, one green), G = L^-1, and applies
no L within a step. topology.band_saddle runs it on a model.RestrictedEnergy.

Residual convention: records store ||grad I||_* / (1 + |I|), where ||.||_* is
the dual norm sqrt(h^2 g . G g) of the nodal dual g; a record is converged iff
this quantity is <= tol. It is read at the record's values with L u made
afresh (model.Energy.measure), not from the descent's nodal pair.

Steps: every accepted step is a retracted trial x - t d of the point
x = (u, r) along a direction d given as a point, with t halved up to
_MAX_BACKTRACKS times until the acceptance rule below passes (_line_search);
max_iter counts accepted steps. Three kinds are tried in turn at each iterate.

- Newton step, from the (_NEWTON_AFTER + 1)-th step on, once the residual is
  at most sqrt(tol), while fewer than max_iter Hessian products have been
  spent, and until a Newton step lands at the rounding floor. The
  objective's curvature(values) supplies the Hessian action v_r - E v_u,
  for ground_state's plain energy and for the pinned objective of
  topology.annulus_level alike. A Newton step costs one green per CG
  iteration, about half a dozen, and an L-BFGS or gradient step one green,
  for the Riesz image of the new gradient; neither applies L. Near tol
  Newton converges quadratically, so from sqrt(tol) one or two Newton steps
  finish a descent that L-BFGS has brought there. Two variants of the gate
  were measured: from residual 0.1, the gate of the earlier Barzilai-Borwein
  kernel, Newton steps spent most of the L-BFGS saving again; with no
  Newton step at all the pinned annulus levels of the rng_seed 0 sweep
  took 139, 114 and 429 steps instead of 79, 61 and 69 at lambda=4, 6 and 2
  (one BLAS thread), and the whole sweep 1,215 instead of 735.
  The gate also keeps Newton to the basin the first-order steps have
  chosen: from a residual near 1 a Newton step can cross into another
  basin, as it takes the pinned lambda=6 annulus level to a lower
  ring-shaped minimum. Once an accepted Newton step changes F by no more
  than the rounding allowance below, F can no longer tell its progress,
  and the descent tries no further Newton step: retried there, Newton took
  2,495 and 4,617 Hessian products (1 and 2 BLAS threads) on the lambda=4
  annulus level pinned at 22.5 degrees at tol 1e-14, against 180 and 141.
  The direction is a truncated preconditioned CG solve of H y = -g on the
  tangent space {y : J'(u) y = 0} (Steihaug 1983; Absil, Mahony and
  Sepulchre 2008), preconditioned by the Riesz map with the projection onto
  the tangent space that is orthogonal in the energy inner product.
  CG stops at relative residual min(_CG_FORCING, sqrt(residual)), at the
  first nonpositive curvature, or after _CG_MAX_ITER products; J'(u) =
  H (u, r) + g costs one product more, and its Riesz image one green. The
  step is tried from t = 1 and skipped when the direction is not a descent
  direction.
- L-BFGS step along H g from t = 1 (Nocedal, Math. Comp. 35, 1980), taken
  when there is no Newton step or none of its halvings passes. H is the
  inverse Hessian that the two-loop recursion builds from the pairs (s, y)
  of the last _LBFGS_MEMORY accepted steps, s the step and y the change of
  the gradient along it, from the Riesz map scaled by s y / (y G y) of the
  newest pair; each pair keeps G y, the difference of the Riesz images at
  its ends, so the recursion applies no green. A step is kept as the sum of
  its two terms, (t_N - 1) x - t_N t d for the retracted trial t_N (x - t d),
  not as a difference of points: its u- and r-parts then carry rounding
  relative to its size, and the pair (u, r) stays consistent to about
  4e-15 where differences of points let tiny Newton steps near a saddle
  feed 1e-12 into it. A pair is kept only when s y > 0. Off-centre starts move their bump
  to the centre along the soft translation modes of the lattice's pinning
  landscape, and the pairs keep the curvature along them. When none of its
  halvings passes, the memory is cleared.
- Gradient step along the Riesz image (G g, g), from t = 1/max(1, ||g||_*): the first step,
  and the step after the memory is cleared. When none of its halvings
  passes either, the descent stops.

Acceptance rule, one for all kinds. A trial with value F_new passes in one
of two cases:

- Armijo decrease: F_new < F and F_new <= F - _ARMIJO t <g, d>.
- Rounding case: |F_new - F| is at most the rounding allowance
  _ROUNDING_ULPS eps max(|F|, 1), and ||g_new||_*^2 <= (1 - _ARMIJO) ||g||_*^2.

Near a minimum the Armijo test alone can fail on every halving, or pass
steps that leave F unchanged, for rounding alone: each retracted step changes
F by less than the error of evaluating F at a retracted point, so the stored
F is the lucky low draw among noisy trials. Once F differences are at that
level, the rule judges progress by the gradient instead, as the approximate
Wolfe conditions of Hager and Zhang (SIAM J. Optim. 2005) do. The factor
1 - _ARMIJO asks the dual gradient norm to drop by a fixed fraction, more
than rounding noise in the gradient can: with a bare "the norm drops", the
lambda=6 annulus level pinned at (4.2, 0) at tol 1e-13 took 1,325 steps and
20,194 Hessian products under 2 BLAS threads, against 115 and 424 with it.

Accepted F therefore never rises by more than that allowance, and only in
the rounding case.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .domain import build_domain
from .errors import AllStartsFailed, NonmonotoneLevels, NonpositiveField
from .model import Energy, _barycenter
from .spectral import Field, SpectralBasis, assemble_and_decompose

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
_ROUNDING_ULPS = 64
_NEWTON_AFTER = 20
_LBFGS_MEMORY = 8
_CG_FORCING = 0.1
_CG_MAX_ITER = 300
_POSITIVITY_EPS = 1e-8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolutionRecord:
    """One computed critical-point candidate with its diagnostics.

    residual is the normalized dual gradient norm described in the module
    docstring; positive means min u >= -1e-8 * max u on the grid. Its Morse
    index is not kept here but in morse.hessian_spectrum's report.
    """

    u: Field
    energy: float
    residual: float
    barycenter: tuple[float, float]
    positive: bool
    seed_tag: str
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LevelReport:
    """Best converged energy of a multistart batch plus its spread (see level_c)."""

    value: float
    spread: float
    n_converged: int
    n_requested: int
    records: tuple[SolutionRecord, ...]


@dataclass(frozen=True)
class LimitLevelReport:
    """Geometric extrapolation of ball levels toward the whole-plane level.

    error_bar is the last computed gap, a deliberately conservative bound;
    the fit model is an artifact choice and the value is an estimate.
    """

    value: float
    error_bar: float
    radii: tuple[float, ...]
    levels: tuple[float, ...]


def _check_tol(tol: float) -> None:
    # at inf a descent calls its start converged; at nan it never stops
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def gaussian_bump_seed(basis: SpectralBasis, center: tuple[float, float], width: float) -> Field:
    """Gaussian bump on the basis's grid; the structured localized seed."""
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    x = basis.dom.node_coords
    d2 = (x[:, 0] - center[0]) ** 2 + (x[:, 1] - center[1]) ** 2
    return Field(basis.dom, np.exp(-d2 / (2.0 * width * width)))


def ground_state(
    energy: Energy,
    seed: Field,
    tol: float = 1e-8,
    max_iter: int = 20000,
    seed_tag: str = "custom",
) -> SolutionRecord:
    """Minimize I over the Nehari manifold with the retracted descent kernel.

    Energies of accepted iterates rise by at most the rounding allowance of
    the module docstring. On iteration exhaustion the best iterate is
    returned marked unconverged rather than raised. A tol that is not finite
    and positive is a ValueError, a seed on another domain DomainMismatch.
    """
    _check_tol(tol)
    energy.basis.check_same_domain(seed.dom)
    if not np.any(seed.values > 0.0):
        raise NonpositiveField("field has no positive part on the grid")
    u, _, F, residual, iterations = _retracted_descent(energy, *energy.point(seed.values), tol,
                                                       max_iter)
    return _solution_record(u, F, residual, tol, seed_tag, iterations)


def _retracted_descent(
    obj: Energy, u: np.ndarray, r: np.ndarray, tol: float, max_iter: int,
) -> tuple[Field, np.ndarray, float, float, int]:
    """The one descent on the Nehari manifold of the objective F: from the
    nodal point (u, r), (u, r, F, residual, iterations) at its end, with u
    as a Field.

    Retract (u, r), then take the module docstring's Newton, L-BFGS or scaled
    gradient steps until the residual is at most tol, max_iter steps are
    taken, or no step is accepted. The F and residual returned are
    obj.measure's, read at the end point's values with L u made afresh: the
    pair carries its r only to rounding, and its own residual can fall below
    the rounding floor of the true one. Where the pair's residual passes
    tol, or no step is accepted, and the measured residual is above tol, the
    descent goes on from (u, L u), as long as that residual drops by the
    factor 1 - _ARMIJO between such readings.
    obj.level runs at every trial point; obj.grad and obj.riesz (one green)
    at accepted points and at trials the rounding case of the acceptance
    rule judges; obj.curvature(u) for the Newton step. Every direction is a linear combination of gradients, their
    Riesz images and steps, so a point that obj keeps in a subspace, with
    gradients and Riesz images in it, stays there.
    """
    t, F = obj.level(u, obj.quadratic(u, r))
    u, r = t * u, t * r
    g = obj.grad(u, r)
    gg = obj.riesz(g)
    gd = obj.h2 * float(g @ gg)

    newton_gate = math.sqrt(tol)
    memory = _LBFGSMemory()
    iterations = products = 0
    at_floor = False
    read = math.inf  # ||grad F||_*^2 measured where the pair was last re-read
    for _ in range(max_iter):
        residual = _residual(gd, F)
        trial = None
        if residual > tol:
            if (iterations >= _NEWTON_AFTER and residual <= newton_gate and products < max_iter
                    and not at_floor):
                newton, used = _newton_direction(obj, u, r, g, gg, obj.curvature(u), residual)
                products += used
                if newton is not None:
                    du, dr = newton
                    trial = _line_search(obj, u, r, -du, -dr, 1.0, F, -obj.h2 * float(g @ du),
                                         gd)
                    at_floor = trial is not None and abs(trial[2] - F) <= _rounding_allowance(F)
            if trial is None and memory:
                du, dr = memory.direction(g, gg)
                trial = _line_search(obj, u, r, du, dr, 1.0, F, obj.h2 * float(g @ du), gd)
                if trial is None:
                    memory.clear()
            if trial is None:
                trial = _line_search(obj, u, r, gg, g, 1.0 / max(1.0, math.sqrt(gd)), F, gd, gd)
        if trial is None:
            # the pair's residual passed tol or no step passes: measure the
            # point with r made afresh, and go on from (u, L u) while that
            # residual is above tol and drops between readings
            F_c, gd_c, r_c = obj.measure(u)
            if _residual(gd_c, F_c) <= tol or gd_c > (1.0 - _ARMIJO) * read:
                return Field(obj.basis.dom, u), r, F_c, _residual(gd_c, F_c), iterations
            read = gd_c
            r = r_c
            F, g = F_c, obj.grad(u, r)
            gg = obj.riesz(g)
            gd = obj.h2 * float(g @ gg)
            continue
        s_u, s_r, F, new_g, new_gg = trial
        u, r = u + s_u, r + s_r
        if new_g is None:
            new_g = obj.grad(u, r)
            new_gg = obj.riesz(new_g)
        memory.store(s_u, s_r, new_g - g, new_gg - gg)
        g, gg = new_g, new_gg
        gd = obj.h2 * float(g @ gg)
        iterations += 1
    F, gd, _ = obj.measure(u)
    return Field(obj.basis.dom, u), r, F, _residual(gd, F), iterations


class _LBFGSMemory:
    """The curvature pairs of the last _LBFGS_MEMORY accepted steps, oldest
    first, as (s_u, s_r, y, Gy, s y): s the step as a point, y the change of
    the gradient along it (a dual) and Gy the u-part of y's Riesz image, and
    the L-BFGS direction they define (Nocedal, Math. Comp. 35, 1980). The
    pairings here drop the common factor h^2, which cancels in every ratio."""

    def __init__(self):
        self.pairs: deque[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]] = deque(
            maxlen=_LBFGS_MEMORY)

    def __len__(self) -> int:
        return len(self.pairs)

    def store(self, s_u: np.ndarray, s_r: np.ndarray, y: np.ndarray, gy: np.ndarray) -> None:
        """Keep the pair only when s y > 0, which keeps the inverse Hessian positive definite."""
        sy = float(s_u @ y)
        if sy > 0.0:
            self.pairs.append((s_u, s_r, y, gy, sy))

    def clear(self) -> None:
        self.pairs.clear()

    def direction(self, g: np.ndarray, gg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H g as a point, by the two-loop recursion over the pairs from the
        initial inverse Hessian, the Riesz map scaled by s y / (y G y) of the
        newest pair; gg = G g. The Riesz image of q = g - sum a y is
        (gg - sum a Gy, q), so the recursion applies no green."""
        q, gq = g, gg
        alphas = []
        for s_u, _, y, gy, sy in reversed(self.pairs):
            a = float(s_u @ q) / sy
            q, gq = q - a * y, gq - a * gy
            alphas.append(a)
        _, _, y, gy, sy = self.pairs[-1]
        scale = sy / float(y @ gy)
        d_u, d_r = scale * gq, scale * q
        for (s_u, s_r, y, _, sy), a in zip(self.pairs, reversed(alphas)):
            b = a - float(y @ d_u) / sy
            d_u += b * s_u
            d_r += b * s_r
        return d_u, d_r


def _newton_direction(
    obj: Energy, u: np.ndarray, r: np.ndarray, g: np.ndarray, gg: np.ndarray,
    E: Callable[[np.ndarray], np.ndarray], residual: float,
) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
    """(y, products): the Newton direction y of the module docstring at the
    point (u, r), as a point, or None, and the number of Hessian products it
    took; gg = G g.

    Projected preconditioned CG from y = 0 on H y = -g, H v = v_r - E v_u:
    every CG direction is projected onto the tangent space {y : a y = 0},
    a = J'(u) = H (u, r) + g, orthogonally in the energy inner product
    h^2 v_u . w_r, so the iterates stay in it; y is
    projected once more against drift. The preconditioner is the Riesz map,
    one green per iteration. None when y is not a descent direction
    (g y >= 0), as when the first curvature is nonpositive.
    """
    def hess(v_u: np.ndarray, v_r: np.ndarray) -> np.ndarray:
        return v_r - E(v_u)

    a = hess(u, r) + g
    ga = obj.riesz(a)
    a_ga = float(a @ ga)

    def project(res: np.ndarray, gres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Riesz image (gres, res) of res, projected onto the tangent space
        orthogonally in the energy inner product."""
        k = float(a @ gres) / a_ga
        return gres - k * ga, res - k * a

    y_u, y_r = np.zeros_like(u), np.zeros_like(r)
    res = g.copy()
    z_u, z_r = project(res, gg)
    rz = float(res @ z_u)
    rz_stop = min(_CG_FORCING, math.sqrt(residual)) ** 2 * rz
    p_u, p_r = -z_u, -z_r
    products = 1
    for _ in range(_CG_MAX_ITER):
        hp = hess(p_u, p_r)
        products += 1
        curvature = float(p_u @ hp)
        if curvature <= 0.0:
            break
        alpha = rz / curvature
        y_u += alpha * p_u
        y_r += alpha * p_r
        res += alpha * hp
        z_u, z_r = project(res, obj.riesz(res))
        rz_new = float(res @ z_u)
        if rz_new <= rz_stop:
            break
        beta = rz_new / rz
        p_u, p_r = beta * p_u - z_u, beta * p_r - z_r
        rz = rz_new
    k = float(a @ y_u) / a_ga
    y_u, y_r = y_u - k * ga, y_r - k * a
    return ((y_u, y_r) if float(g @ y_u) < 0.0 else None), products


def _residual(gd: float, F: float) -> float:
    """The residual convention of the module docstring, from gd = ||grad F||_*^2."""
    return math.sqrt(max(gd, 0.0)) / (1.0 + abs(F))


def _rounding_allowance(F: float) -> float:
    """_ROUNDING_ULPS eps max(|F|, 1): how far two evaluations of one level may differ."""
    return _ROUNDING_ULPS * _EPS * max(abs(F), 1.0)


def _line_search(
    obj: Energy, u: np.ndarray, r: np.ndarray, du: np.ndarray, dr: np.ndarray, t: float,
    F: float, slope: float, gd: float,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray | None, np.ndarray | None] | None:
    """First retracted trial (u, r) - t (du, dr) over halvings of t that the module
    docstring's acceptance rule passes, as (u, r, F, g, G g), or None when none does.

    slope = <g, d> and gd = ||g||_*^2 at (u, r). The trial's Q is
    h^2 (u.r - t (u.dr + du.r) + t^2 du.dr), from three dot products taken
    once, and obj.level gives its F from Q and the trial's values. g and G g
    are the gradient at the trial and its Riesz image when the rule's
    rounding case computed them, else None.
    """
    allowance = _rounding_allowance(F)
    ur, cross, dd = float(u @ r), float(u @ dr) + float(du @ r), float(du @ dr)
    for _ in range(_MAX_BACKTRACKS):
        ut = u - t * du
        try:
            s, F_new = obj.level(ut, obj.h2 * (ur - t * (cross - t * dd)))
        except NonpositiveField:
            t *= 0.5
            continue
        armijo = F_new < F and F_new <= F - _ARMIJO * t * slope
        if armijo or abs(F_new - F) <= allowance:
            # the step to the retracted trial s (u - t d), from its two terms,
            # so that its u- and r-parts carry rounding relative to its size
            step = (s - 1.0) * u - (s * t) * du, (s - 1.0) * r - (s * t) * dr
            if armijo:
                return *step, F_new, None, None
            g = obj.grad(u + step[0], r + step[1])
            gg = obj.riesz(g)
            if obj.h2 * float(g @ gg) <= (1.0 - _ARMIJO) * gd:
                return *step, F_new, g, gg
        t *= 0.5
    return None


def _solution_record(
    u: Field, energy: float, residual: float, tol: float, seed_tag: str, iterations: int,
) -> SolutionRecord:
    """Record for the field u; barycenter and positivity are read from its values."""
    vmax = float(u.values.max())
    return SolutionRecord(
        u=u,
        energy=energy,
        residual=residual,
        barycenter=tuple(_barycenter(u.dom, u.values)[1].tolist()),
        positive=bool(float(u.values.min()) >= -_POSITIVITY_EPS * max(vmax, 1e-300)),
        seed_tag=seed_tag,
        iterations=iterations,
        converged=bool(residual <= tol),
    )


def _multistart_seeds(
    basis: SpectralBasis, n: int, rng_seed: int
) -> list[tuple[str, tuple[float, float], float]]:
    """Structured centered seed plus randomized centers/widths on interior nodes."""
    dom = basis.dom
    inradius = float(dom.boundary_distance.max())
    base_width = min(0.5 * inradius, 2.0)
    centroid = dom.node_coords.mean(axis=0)
    seeds = [("center", (float(centroid[0]), float(centroid[1])), base_width)]
    rng = np.random.default_rng(rng_seed)
    for i in range(1, n):
        node = dom.node_coords[int(rng.integers(dom.n_interior))]
        width = base_width * (0.5 + rng.random())
        seeds.append((f"random-{i}", (float(node[0]), float(node[1])), width))
    return seeds


def start_order(seed_tag: str) -> int:
    """Position of a level_c start in seed order, read from its seed_tag."""
    return 0 if seed_tag == "center" else int(seed_tag.removeprefix("random-"))


def level_c(
    energy: Energy,
    n_multistarts: int = 4,
    tol: float = 1e-8,
    max_iter: int = 20000,
    rng_seed: int = 0,
) -> LevelReport:
    """Ground-state level: minimum converged energy across a multistart batch.

    Converged records are merged in _level_order, so rounding does not pick
    the best record, whose energy is the level. A tol that is not finite and
    positive is a ValueError before any work.
    """
    _check_tol(tol)
    if n_multistarts < 1:
        raise ValueError(f"n_multistarts must be >= 1, got {n_multistarts}")
    basis = energy.basis
    results = [
        ground_state(energy, gaussian_bump_seed(basis, center, width), tol=tol,
                     max_iter=max_iter, seed_tag=tag)
        for tag, center, width in _multistart_seeds(basis, n_multistarts, rng_seed)
    ]

    good = _level_order([r for r in results if r.converged])
    if not good:
        raise AllStartsFailed(f"none of {n_multistarts} starts converged at tol={tol}")
    energies = [r.energy for r in good]
    return LevelReport(
        value=energies[0],
        spread=float(max(energies) - min(energies)),
        n_converged=len(good),
        n_requested=n_multistarts,
        records=tuple(good),
    )


def _level_order(records: list[SolutionRecord]) -> list[SolutionRecord]:
    """By energy, where energies within rounding of a group's lowest join it, then by start."""
    groups: list[list[SolutionRecord]] = []
    for r in sorted(records, key=lambda r: r.energy):
        if groups and r.energy - groups[-1][0].energy <= _rounding_allowance(groups[-1][0].energy):
            groups[-1].append(r)
        else:
            groups.append([r])
    return [r for g in groups for r in sorted(g, key=lambda r: start_order(r.seed_tag))]


def limit_level_estimate(
    p: float,
    radii: list[float],
    h: float,
    alpha: float = 0.5,
    tol: float = 1e-8,
    max_iter: int = 20000,
    n_multistarts: int = 2,
    rng_seed: int = 0,
) -> LimitLevelReport:
    """Extrapolate ball levels c(B_xi) over expanding radii at fixed grid step.

    Fits a geometric sequence to the last three levels: with gaps g1, g2 and
    ratio rho = g2/g1 the tail sums to g2 rho/(1 - rho) below the last level.
    Raises NonmonotoneLevels when a level fails to drop below the one before
    by more than rounding or the gaps fail to shrink, both signs the grid is
    too coarse for the expansion. Each level_c runs at tol and max_iter. A tol
    that is not finite and positive is a ValueError before any basis is built.
    """
    _check_tol(tol)
    if len(radii) < 3:
        raise ValueError(f"need at least 3 radii, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")

    levels = []
    for xi in radii:
        dom = build_domain("disk", {"R": float(xi)}, lam=1.0, h=h)
        energy = Energy(assemble_and_decompose(dom, alpha=alpha), p)
        rep = level_c(energy, n_multistarts=n_multistarts, tol=tol, max_iter=max_iter,
                      rng_seed=rng_seed)
        levels.append(rep.value)

    value, error_bar = _geometric_tail(levels, radii)
    return LimitLevelReport(
        value=value,
        error_bar=error_bar,
        radii=tuple(float(r) for r in radii),
        levels=tuple(float(v) for v in levels),
    )


def _geometric_tail(levels: list[float], radii: list[float]) -> tuple[float, float]:
    """(extrapolated level, last gap) for limit_level_estimate.

    A drop within the rounding allowance of the higher level counts as flat:
    levels of coinciding masks differ by rounding noise of either sign.
    """
    if any(a - b <= _rounding_allowance(a) for a, b in zip(levels, levels[1:])):
        raise NonmonotoneLevels(
            f"levels {levels} not strictly decreasing over radii {radii}; grid too coarse"
        )
    c1, c2, c3 = levels[-3], levels[-2], levels[-1]
    g1, g2 = c1 - c2, c2 - c3
    rho = g2 / g1
    if not 0.0 < rho < 1.0:
        raise NonmonotoneLevels(
            f"level gaps do not shrink (ratio {rho:.3f}); geometric tail undefined"
        )
    return float(c3 - g2 * rho / (1.0 - rho)), float(g2)
