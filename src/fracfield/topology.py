"""Barycenter localization, translated-bump seeding, and multiplicity search.

The domain's shape enters the solution count through two maps: the barycenter
beta(u), which sends low-energy fields to points near the domain, and the
seed map that plants a translated ball ground state at a chosen center and
projects it onto the Nehari manifold. Running the descent solver from seeds
spread over the domain and grouping the results by the grid symmetry group
realizes the category counting numerically: a disk collapses to one orbit
class, an annulus at large scale sustains at least two, and an elastic band
strung between two classes hunts the connecting saddle.

Grid symmetries are the exact mask-preserving subgroup (at most D4); the
continuum rotation orbit on an annulus collapses to finitely many pinned
representatives, so counts here are orbit-class counts.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .domain import GridDomain, build_domain, neighborhood_membership
from .errors import (
    BallDoesNotFit,
    ConstraintViolated,
    EigSolveFailure,
    NonpositiveField,
    SaddleNotEscaped,
)
from .model import Energy, Nonlinearity, h_prime
from .morse import _smallest_eigenpairs, default_eps_null
from .nehari import (
    SolutionRecord,
    _Hessian,
    _Value,
    _armijo_step,
    _barycenter,
    _residual,
    _retracted_descent,
    _solution_record,
    gaussian_bump_seed,
    ground_state,
    nehari_scale,
)
from .spectral import Field, SpectralBasis, assemble_and_decompose

log = logging.getLogger(__name__)

_ESCAPE_SIZE = 0.1
_MAX_ESCAPES = 4
_CHECK_RESTARTS = 50
# penalty weights of annulus_level's continuation, in units of the seed's
# energy over (lam r)^2
_RHO_MULTIPLIERS = (1.0, 10.0, 100.0, 1000.0)
# orbit_classes joins two records whose relative energy gap is below the
# first and whose relative L2 distance under some grid symmetry is below the second
_ENERGY_GAP_TOL = 1e-4
_L2_DIST_TOL = 1e-2
# band_saddle's image count, endpoints included, and its sweep cap
_N_IMAGES = 13
_MAX_SWEEPS = 400


_D4 = (
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (-1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, 1, 0),
    (0, 1, -1, 0),
    (0, -1, -1, 0),
)


def symmetry_group(dom: GridDomain) -> list[np.ndarray]:
    """Mask-preserving D4 elements as interior-index permutations.

    Candidate reflections/rotations act about the grid's own center; any
    candidate that fails to map the interior node set onto itself exactly is
    dropped, so slightly asymmetric grids degrade to smaller groups rather
    than producing wrong permutations. The identity is always first.
    """
    # grid offsets from the center, doubled so a half-integer center stays
    # integer; an image with odd doubled offset falls between nodes
    iy, ix = np.nonzero(dom.index_of >= 0)
    ox = 2 * ix - (dom.nx - 1)
    oy = 2 * iy - (dom.ny - 1)
    perms: list[np.ndarray] = []
    for a, b, c, d in _D4:
        jx = a * ox + b * oy + (dom.nx - 1)
        jy = c * ox + d * oy + (dom.ny - 1)
        if np.any(jx % 2) or np.any(jy % 2):
            continue
        jx, jy = jx // 2, jy // 2
        if np.any((jx < 0) | (jx >= dom.nx) | (jy < 0) | (jy >= dom.ny)):
            continue
        perm = dom.index_of[jy, jx]
        if np.all(perm >= 0):
            perms.append(perm)
    return perms


class PsiSeeder:
    """Cache of a ball ground state, stamped onto a host domain on demand.

    Solves the ground state of B_rho (same grid step as the host)
    once; seed(x) translates it by a grid-aligned shift to snap(x), extends by
    zero, and projects the result onto the host Nehari manifold.
    """

    def __init__(
        self,
        basis_dom: SpectralBasis,
        nl: Nonlinearity,
        ball_radius: float,
        tol: float = 1e-8,
    ):
        if ball_radius <= 0.0:
            raise ValueError(f"ball_radius must be positive, got {ball_radius}")
        self.basis_dom = basis_dom
        self.nl = nl
        self.ball_radius = float(ball_radius)
        ball_dom = build_domain("disk", {"R": self.ball_radius}, lam=1.0, h=basis_dom.dom.h)
        self.basis_ball = assemble_and_decompose(ball_dom, alpha=basis_dom.alpha)
        seed = gaussian_bump_seed(self.basis_ball, (0.0, 0.0), 0.5 * self.ball_radius)
        self.ball_state = ground_state(self.basis_ball, nl, seed, tol=tol, seed_tag="ball-cache")
        self.ball_level = self.ball_state.energy

    def snap(self, x_tilde: tuple[float, float]) -> tuple[float, float]:
        """Nearest host grid node to x_tilde."""
        dom = self.basis_dom.dom
        ix = int(np.clip(round((x_tilde[0] - dom.xs[0]) / dom.h), 0, dom.nx - 1))
        iy = int(np.clip(round((x_tilde[1] - dom.ys[0]) / dom.h), 0, dom.ny - 1))
        return float(dom.xs[ix]), float(dom.ys[iy])

    def seed(self, x_tilde: tuple[float, float]) -> Field:
        """The ball state stamped at the snapped center, zero-extended, projected to M.

        The ball shares the host's grid step, so the stamp is an exact
        node-to-node copy, no interpolation; ball nodes that land outside the
        host mask are dropped. Raises BallDoesNotFit when x_tilde is not inside
        the domain by at least the ball radius.
        """
        dom = self.basis_dom.dom
        if not neighborhood_membership(dom, x_tilde, self.ball_radius, side="inner_minus"):
            raise BallDoesNotFit(
                f"center {x_tilde} is closer than {self.ball_radius} to the boundary "
                "of the host domain"
            )
        stamp = self.basis_ball.dom.node_coords + self.snap(x_tilde)
        jx, jy = np.rint((stamp - (dom.xs[0], dom.ys[0])) / dom.h).astype(np.int64).T
        on_grid = (jx >= 0) & (jx < dom.nx) & (jy >= 0) & (jy < dom.ny)
        idx = np.full(jx.size, -1)
        idx[on_grid] = dom.index_of[jy[on_grid], jx[on_grid]]
        kept = idx >= 0
        ext = np.zeros(dom.n_interior)
        ext[idx[kept]] = self.ball_state.u.values[kept]
        dropped = int(jx.size - kept.sum())
        if dropped:
            log.debug("seed: %d ball nodes fell outside the host mask after snapping", dropped)

        f = self.basis_dom.analyze(ext)
        return self.basis_dom.synthesize(nehari_scale(self.basis_dom, self.nl, f) * f.coeffs)


def mass_clusters(u: Field, level_frac: float = 0.25) -> tuple[float, ...]:
    """Mass fractions of connected superlevel components of u+, descending.

    Components of {u+ >= level_frac * max u+} under 4-connectivity on the
    grid; each component's share of sum (u+)^2. A single centered bump gives
    (1.0,); a split state gives several comparable fractions.
    """
    if not 0.0 < level_frac < 1.0:
        raise ValueError(f"level_frac must be in (0, 1), got {level_frac}")
    up = np.maximum(u.values, 0.0)
    total = float((up * up).sum())
    if total <= 0.0:
        raise NonpositiveField("mass clustering undefined: u+ vanishes on the grid")
    grid = u.dom.grid_values(up)
    labels, n_comp = ndimage.label(grid >= level_frac * up.max())
    fractions = []
    for comp in range(1, n_comp + 1):
        vals = grid[labels == comp]
        fractions.append(float((vals * vals).sum()) / total)
    return tuple(sorted(fractions, reverse=True))


@dataclass(frozen=True)
class AnnulusLevelReport:
    """Outcome of the barycenter-pinned minimization on an annulus."""

    value: float
    record: SolutionRecord
    target: tuple[float, float]
    distance_to_target: float
    rho_schedule: tuple[float, ...]


def _penalty(
    obj: Energy, rho: float, x_tilde: np.ndarray,
) -> tuple[_Value, Callable[..., np.ndarray], _Hessian]:
    """The kernel's value, grad and hess callables for F = I + rho |beta(u) - x_tilde|^2.

    beta is _barycenter's, as in the records. The penalty's nodal gradient
    4 rho s q / M is computed with F at each trial point and reused at accepted
    ones. With s = u+, m = 1[u > 0], M = sum s^2, r_i = x_i - beta,
    q = r . (beta - x_tilde) and Bz = 2 sum s_i z_i r_i / M (the change of
    beta along z), the penalty's nodal Hessian on z is

        4 rho / M [s (r . Bz) + m q z - 2 (s <s q, z> + s q <s, z>) / M],

    a diagonal on the positive set plus a term of rank at most 3. hess(values)
    computes the per-point terms once and returns the map v -> H_F v, which
    adds that Hessian to the energy's second variation on z = phi v in one
    product with phi and one with its transpose. The penalty is 0-homogeneous,
    so its Hessian sends c to minus its gradient: H_F c + g_F = H_I c + g_I =
    J'(c), and the Newton step's tangent space is the plain energy's.
    """
    dom = obj.basis.dom

    def value(c: np.ndarray, values: np.ndarray) -> tuple[float, np.ndarray]:
        up, beta, M = _barycenter(dom, values)
        gap = beta - x_tilde
        pvals = 4.0 * rho * up * ((dom.node_coords - beta) @ gap) / M
        return obj.energy(c, values) + rho * float(gap @ gap), pvals

    def grad(c: np.ndarray, values: np.ndarray, pvals: np.ndarray) -> np.ndarray:
        return obj.grad(c, values) + obj.phi.T @ pvals

    def hess(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        s, beta, M = _barycenter(dom, values)
        r = dom.node_coords - beta
        q = r @ (beta - x_tilde)
        sq, sr = s * q, s[:, None] * r
        diag = (4.0 * rho / M) * (s > 0.0) * q - obj.h2 * h_prime(obj.nl, values)

        def hv(v: np.ndarray) -> np.ndarray:
            z = obj.phi @ v
            bz = 2.0 * (z @ sr) / M
            low_rank = s * (r @ bz) - 2.0 * (s * float(sq @ z) + sq * float(s @ z)) / M
            return obj.w * v + obj.phi.T @ ((4.0 * rho / M) * low_rank + diag * z)

        return hv

    return value, grad, hess


def _saddle_escape(
    obj: Energy, hv: Callable[[np.ndarray], np.ndarray], c: np.ndarray,
) -> np.ndarray | None:
    """The escape step from a stage's end point c when it is a saddle of F, else None.

    The two smallest eigenvalues of F's Hessian hv there, by morse's Lanczos: the
    first is the ray's, negative at every point of the manifold, and a second
    one below -eps_null makes the point a saddle on the manifold. The step is
    _ESCAPE_SIZE |c| along the second eigenvector, signed so that its largest
    component is positive.
    """
    ev, vecs = _smallest_eigenpairs(hv, c.size, 2, vectors=True, maxiter=_CHECK_RESTARTS)
    if ev[1] >= -default_eps_null(obj.basis):
        return None
    v = vecs[:, 1]
    v = v if v[np.argmax(np.abs(v))] > 0.0 else -v
    return _ESCAPE_SIZE * float(np.linalg.norm(c)) * v


def annulus_level(
    basis: SpectralBasis,
    nl: Nonlinearity,
    x_tilde: tuple[float, float] = (0.0, 0.0),
    seed: Field | None = None,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> AnnulusLevelReport:
    """Barycenter-pinned level a(R,r,lam) by quadratic-penalty continuation.

    Minimizes I over the manifold subject to beta(u) near x_tilde, sweeping
    rho upward with warm starts; rho is scaled by (seed energy)/(lam r)^2 so
    the penalty competes with the energy from the first stage on. The default
    seed is a radially symmetric ring at the mid radius, whose barycenter is
    already the center.

    Each stage builds _penalty's callables for its rho once and runs nehari's
    descent kernel on them, Newton finish included. The penalty is
    scale-invariant along rays (beta ignores positive scaling), so the Nehari
    retraction leaves it unchanged and the plain solver's descent argument
    carries over. A converged stage is checked to second order, on the same
    Hessian action (_saddle_escape): where its end point is
    a saddle of the penalized objective, as the symmetric four-bump point
    that the ring seed can reach at lam=2, the stage is rerun from a step off
    it, at most _MAX_ESCAPES times in all, then SaddleNotEscaped is raised.
    An unconverged stage ends the continuation, and so does a check whose
    Lanczos solve fails within _CHECK_RESTARTS restarts. Fails with
    ConstraintViolated if the barycenter it ends at sits farther than 2h from
    the target, else with the check's EigSolveFailure if there was one.
    """
    dom = basis.dom
    if dom.shape_id != "annulus":
        raise ValueError(f"annulus_level needs an annulus domain, got {dom.shape_id!r}")
    obj = Energy(basis, nl)
    target = np.array([float(x_tilde[0]), float(x_tilde[1])])

    if seed is None:
        rr = np.sqrt((dom.node_coords**2).sum(axis=1))
        mid = 0.5 * (dom.params["R"] + dom.params["r"]) * dom.lam
        width = (dom.params["R"] - dom.params["r"]) * dom.lam / 3.0
        seed = basis.analyze(np.exp(-((rr - mid) ** 2) / (2.0 * width * width)))

    c = np.asarray(seed.coeffs, dtype=float)
    values = obj.values(c)
    c, values = obj.retract(c, values)
    e_typ = obj.energy(c, values)
    length = dom.lam * dom.params["r"]
    rhos = tuple(m * abs(e_typ) / length**2 for m in _RHO_MULTIPLIERS)

    k = iterations = escapes = 0
    unchecked: EigSolveFailure | None = None
    while k < len(rhos):
        value, grad, hess = _penalty(obj, rhos[k], target)
        c, values, _, residual, its = _retracted_descent(obj, c, value, grad, hess, tol, max_iter)
        iterations += its
        if residual > tol:
            break  # an unconverged stage ends the continuation
        try:
            step = _saddle_escape(obj, hess(values), c)
        except EigSolveFailure as exc:
            unchecked = exc
            break
        if step is None:
            k += 1
        elif escapes < _MAX_ESCAPES:
            escapes += 1
            c = c + step
        else:
            raise SaddleNotEscaped(
                f"stage rho={rhos[k]:.3g} still ends at a saddle after {escapes} escapes"
            )

    values = obj.values(c)
    record = _solution_record(
        basis, c, values, obj.energy(c, values), residual, tol, "ring-penalty", iterations
    )
    beta = np.array(record.barycenter)
    dist = float(np.sqrt(((beta - target) ** 2).sum()))
    if dist > 2.0 * dom.h:
        raise ConstraintViolated(
            f"final barycenter {tuple(beta)} sits {dist:.3g} from target {x_tilde}"
            f" (allowed 2h = {2 * dom.h:.3g})"
        ) from unchecked
    if unchecked is not None:
        raise unchecked
    return AnnulusLevelReport(
        value=record.energy,
        record=record,
        target=(float(target[0]), float(target[1])),
        distance_to_target=dist,
        rho_schedule=rhos,
    )


@dataclass(frozen=True)
class OrbitClass:
    """One symmetry-orbit class of converged solutions."""

    representative: SolutionRecord
    orbit_size: int
    below_ball_level: bool
    beta_in_plus: bool


@dataclass(frozen=True)
class MultiplicityReport:
    """Deduplicated multistart outcome with the localization predicate.

    classes are sorted by energy. ball_level is c(B_rho) for the seeding ball;
    below_ball_level marks classes in the low sublevel where the barycenter is
    predicted to stay within distance rho of the domain (beta_in_plus).
    """

    classes: tuple[OrbitClass, ...]
    ball_level: float
    ball_radius: float
    n_seeds: int
    n_converged: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _l2_orbit_distance(
    a: np.ndarray, b: np.ndarray, perms: list[np.ndarray]
) -> float:
    na = float(np.sqrt(a @ a))
    nb = float(np.sqrt(b @ b))
    scale = max(na, nb, 1e-300)
    best = np.inf
    for perm in perms:
        diff = a - b[perm]
        best = min(best, float(np.sqrt(diff @ diff)) / scale)
    return best


def orbit_classes(
    basis: SpectralBasis,
    records: list[SolutionRecord],
) -> list[list[SolutionRecord]]:
    """Group records into symmetry-orbit classes by union-find.

    Two records land in the same class iff their relative energy gap is below
    _ENERGY_GAP_TOL AND some grid-symmetry image brings their relative L2
    distance below _L2_DIST_TOL. Each class lists its records in input order.
    """
    perms = symmetry_group(basis.dom)
    n = len(records)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = records[i].energy, records[j].energy
            gap = abs(ei - ej) / max(abs(ei), abs(ej), 1e-300)
            if gap >= _ENERGY_GAP_TOL:
                continue
            dist = _l2_orbit_distance(records[i].u.values, records[j].u.values, perms)
            if dist < _L2_DIST_TOL:
                parent[find(i)] = find(j)

    groups: dict[int, list[SolutionRecord]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(records[i])
    return list(groups.values())


def multiplicity_search(
    basis: SpectralBasis,
    nl: Nonlinearity,
    seed_centers: list[tuple[float, float]],
    ball_radius: float,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> MultiplicityReport:
    """Descend from translated-bump seeds and count symmetry-orbit classes.

    Class membership is decided by orbit_classes; a class is represented by
    its member from the earliest seed center. Unconverged starts are logged
    and dropped, never raised.
    """
    if not seed_centers:
        raise ValueError("need at least one seed center")
    seeder = PsiSeeder(basis, nl, ball_radius, tol=tol)
    records: list[SolutionRecord] = []
    for k, center in enumerate(seed_centers):
        seed = seeder.seed(center)
        rec = ground_state(
            basis, nl, seed, tol=tol, max_iter=max_iter,
            seed_tag=f"psi-{k}@({center[0]:.3g},{center[1]:.3g})",
        )
        if rec.converged:
            records.append(rec)
        else:
            log.warning("multiplicity start %d at %s did not converge; dropped", k, center)

    n = len(records)
    classes = []
    for members in orbit_classes(basis, records):
        # first in seed order: orbit members agree in energy only to rounding,
        # so picking the lowest would let rounding choose
        rep = members[0]
        below = rep.energy <= seeder.ball_level * (1.0 + 1e-12)
        in_plus = neighborhood_membership(
            basis.dom, rep.barycenter, ball_radius, side="outer_plus"
        )
        classes.append(OrbitClass(
            representative=rep,
            orbit_size=len(members),
            below_ball_level=below,
            beta_in_plus=in_plus,
        ))
    classes.sort(key=lambda cl: (cl.representative.energy, cl.representative.seed_tag))
    return MultiplicityReport(
        classes=tuple(classes),
        ball_level=seeder.ball_level,
        ball_radius=float(ball_radius),
        n_seeds=len(seed_centers),
        n_converged=n,
    )


def adjacent_orbit_image(basis: SpectralBasis, u: Field) -> Field | None:
    """First symmetry image of u whose barycenter flips in x and keeps y, or None.

    Images with a barycenter within 2h of u's are passed over: they are u again
    (an axis state mirrored across its own axis), and a band to them climbs nothing.
    """
    basis.check_same_domain(u.dom)
    ref = _barycenter(basis.dom, u.values)[1]
    for perm in symmetry_group(basis.dom)[1:]:
        cand = u.values[perm]
        b = _barycenter(basis.dom, cand)[1]
        if float(np.hypot(*(b - ref))) <= 2.0 * basis.dom.h:
            continue
        if b[0] * ref[0] < 0 and b[1] * ref[1] > 0:
            return basis.analyze(cand)
    return None


@dataclass(frozen=True)
class BandSaddleReport:
    """Climbing-image elastic band outcome between two minimizer classes.

    saddle is the climbing image as a record (converged means its own full
    gradient met the tolerance, i.e. it is a genuine critical point, not just
    the band's highest image); energies is the final path profile.
    """

    saddle: SolutionRecord
    energies: tuple[float, ...]
    converged: bool
    sweeps: int


def band_saddle(
    basis: SpectralBasis,
    nl: Nonlinearity,
    end_a: Field,
    end_b: Field,
    tol: float = 1e-6,
) -> BandSaddleReport:
    """String method with a climbing image, run inside the Nehari manifold.

    Images interpolate the endpoint coefficients, are retracted onto the
    manifold after every move, and are redistributed by arclength on each
    side of the climbing image so the band cannot slide off the barrier. The
    climbing image follows the gradient with its path-tangent component
    reversed, converging to the saddle instead of the minima.
    """
    obj = Energy(basis, nl)
    basis.check_same_domain(end_a.dom)
    basis.check_same_domain(end_b.dom)

    ts = np.linspace(0.0, 1.0, _N_IMAGES)
    path = []
    for t in ts:
        c = (1.0 - t) * end_a.coeffs + t * end_b.coeffs
        path.append(np.asarray(obj.retract(c, obj.values(c))[0]))

    def profile() -> tuple[list[np.ndarray], list[float]]:
        vals = [obj.values(c) for c in path]
        return vals, [obj.energy(c, v) for c, v in zip(path, vals)]

    def redistribute(path: list[np.ndarray], lo: int, hi: int) -> None:
        # equal-arclength reparametrization of images strictly between lo, hi
        if hi - lo < 2:
            return
        seg = path[lo : hi + 1]
        lengths = [0.0]
        for a, b in zip(seg, seg[1:]):
            lengths.append(lengths[-1] + float(np.linalg.norm(b - a)))
        total = lengths[-1]
        if total <= 0.0:
            return
        targets = np.linspace(0.0, total, len(seg))
        out = [seg[0]]
        j = 0
        for tgt in targets[1:-1]:
            while lengths[j + 1] < tgt:
                j += 1
            frac = (tgt - lengths[j]) / max(lengths[j + 1] - lengths[j], 1e-300)
            c = (1.0 - frac) * seg[j] + frac * seg[j + 1]
            out.append(np.asarray(obj.retract(c, obj.values(c))[0]))
        out.append(seg[-1])
        path[lo : hi + 1] = out

    step = 0.1
    saddle_residual = np.inf
    sweeps_done = 0
    for sweep in range(_MAX_SWEEPS):
        vals, energies = profile()
        k_star = 1 + int(np.argmax(energies[1:-1]))

        moved = []
        for k in range(1, _N_IMAGES - 1):
            c, values = path[k], vals[k]
            g = obj.grad(c, values)
            d = g / obj.w
            if k == k_star:
                tau = path[k + 1] - path[k - 1]
                tau /= max(float(np.linalg.norm(tau)), 1e-300)
                d = d - 2.0 * float(d @ tau) * tau
                saddle_residual = _residual(float(g @ (g / obj.w)), energies[k])
                new_c, _ = obj.retract(c - step * d, obj.values(c - step * d))
                moved.append((k, new_c))
            else:
                trial = _armijo_step(obj, c, values, d, obj.values(d), energies[k],
                                     float(g @ d), step, obj.value, 30)
                if trial is not None:
                    moved.append((k, trial[0]))
        for k, new_c in moved:
            path[k] = new_c
        sweeps_done = sweep + 1
        if saddle_residual <= tol:
            break
        redistribute(path, 0, k_star)
        redistribute(path, k_star, _N_IMAGES - 1)

    vals, energies = profile()
    k_star = 1 + int(np.argmax(energies[1:-1]))
    c, values = path[k_star], vals[k_star]
    g = obj.grad(c, values)
    residual = _residual(float(g @ (g / obj.w)), energies[k_star])
    rec = _solution_record(basis, c, values, energies[k_star], residual, tol,
                           "band-climbing-image", sweeps_done)
    return BandSaddleReport(
        saddle=rec,
        energies=tuple(float(e) for e in energies),
        converged=rec.converged,
        sweeps=sweeps_done,
    )
