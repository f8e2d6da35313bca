"""Barycenter localization, translated-bump seeding, and multiplicity search.

The domain's shape enters the solution count through two maps: the barycenter
beta(u), which sends low-energy fields to points near the domain, and the
seed map that plants a translated ball ground state at a chosen center and
projects it onto the Nehari manifold. Running the descent solver from seeds
spread over the domain and grouping the results by the grid symmetry group
realizes the category counting numerically: a disk collapses to one orbit
class, an annulus at large scale sustains at least two, and an elastic band
strung between two classes hunts the connecting saddle.

Grid symmetries are the exact mask-preserving subgroup of D4, taken from
domain.mask_symmetries; the continuum rotation orbit on an annulus collapses
to finitely many pinned representatives, so counts here are orbit-class
counts.

mass_clusters loads scipy.ndimage (for its component labelling) when
called, not with the module, as domain.mask_betti does.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .domain import GridDomain, build_domain, mask_symmetries
from .errors import (
    BallDoesNotFit,
    ConstraintViolated,
    EigSolveFailure,
    NonpositiveField,
    SaddleNotEscaped,
)
from .model import Energy, Nonlinearity, PinnedEnergy, _barycenter
from .morse import _smallest_eigenpairs
from .nehari import (
    SolutionRecord,
    _line_search,
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
# _saddle_escape's null threshold on F's Hessian itself, in units of min W
_ESCAPE_EPS_NULL = 1e-6
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


def symmetry_group(dom: GridDomain) -> list[np.ndarray]:
    """Mask-preserving D4 elements as interior-index permutations, in
    domain.mask_symmetries order: the identity first."""
    return [p for p, _ in mask_symmetries(dom)]


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
        if not float(dom.signed_boundary_distance(x_tilde)[0]) >= self.ball_radius:
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
    # imported here, not with the module: see domain.mask_betti
    from scipy import ndimage

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


def _saddle_escape(obj: PinnedEnergy, c: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """The escape step from a stage's end point c when it is a saddle of F, else None.

    The two smallest eigenvalues of F's Hessian there, by morse's Lanczos on the
    Hessian itself, not on morse's S: the first is the ray's, negative at every
    point of the manifold, and a second one below -_ESCAPE_EPS_NULL min W makes
    the point a saddle on the manifold. The step is
    _ESCAPE_SIZE |c| along the second eigenvector, signed so that its largest
    component is positive.
    """
    ev, vecs = _smallest_eigenpairs(obj.hessian(values), c.size, 2, vectors=True,
                                    maxiter=_CHECK_RESTARTS)
    if ev[1] >= -_ESCAPE_EPS_NULL * float(obj.basis.weights[0]):
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

    Each stage builds one PinnedEnergy for its rho and runs nehari's descent
    kernel on it, Newton finish included. The penalty is scale-invariant
    along rays (beta ignores positive scaling), so the Nehari retraction
    leaves it unchanged and the plain solver's descent argument carries over.
    A converged stage is checked to second order, on the same Hessian action
    (_saddle_escape): where its end point is
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
    else:
        basis.check_same_domain(seed.dom)

    c = np.asarray(seed.coeffs, dtype=float)
    values = obj.values(c)
    c, values = obj.retract(c, values)
    e_typ = obj.energy(c, values)
    length = dom.lam * dom.params["r"]
    rhos = tuple(m * abs(e_typ) / length**2 for m in _RHO_MULTIPLIERS)

    k = iterations = escapes = 0
    unchecked: EigSolveFailure | None = None
    while k < len(rhos):
        pinned = PinnedEnergy(basis, nl, rhos[k], target)
        c, values, _, residual, its = _retracted_descent(pinned, c, tol, max_iter)
        iterations += its
        if residual > tol:
            break  # an unconverged stage ends the continuation
        try:
            step = _saddle_escape(pinned, c, values)
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
        in_plus = float(basis.dom.region_distance(rep.barycenter)[0]) <= ball_radius
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


def _same_place(dom: GridDomain, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two barycenters lie within 2h of each other, which marks one state."""
    return float(np.hypot(*(a - b))) <= 2.0 * dom.h


def adjacent_orbit_image(basis: SpectralBasis, u: Field) -> Field | None:
    """First symmetry image of u whose barycenter flips in x and keeps y, or None.

    "Keeps y" means within 2h of u's y: on an axis state that coordinate is
    rounding noise, and its sign must not choose. Images with a barycenter
    within 2h of u's are passed over: they are u again (an axis state mirrored
    across its own axis), and a band to them climbs nothing.
    """
    basis.check_same_domain(u.dom)
    ref = _barycenter(basis.dom, u.values)[1]
    for perm in symmetry_group(basis.dom)[1:]:
        cand = u.values[perm]
        b = _barycenter(basis.dom, cand)[1]
        if _same_place(basis.dom, b, ref):
            continue
        if b[0] * ref[0] < 0 and abs(b[1] - ref[1]) <= 2.0 * basis.dom.h:
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

    Each image carries its nodal values with its coefficients: phi is linear,
    so a move, a retraction or an interpolation applies to both. A sweep thus
    makes one product with phi (phi d) and one with its transpose (the
    gradient) per interior image, _N_IMAGES - 2 = 11 of each. phi c is
    synthesized only at set-up and once more at the end, for the interior
    images of the final profile and for the saddle record.

    Every image moves from one step length, 1, along d = W^-1 g, the gradient
    preconditioned by the quadratic-form weights W. Near a critical point
    g = H e for the offset e, so W^-1 g = W^-1 H e and the rates are set by
    the pencil H x = theta W x of morse. There theta = 1 - x^T Phi^T D Phi x
    / x^T W x <= 1, since D = h^2 h'(u) >= 0, and at a critical point the ray
    mode has theta_0 = 1 - p, the lowest eigenvalue at every point measured:
    the spectrum lies in [1 - p, 1]. So:

    - A plain image's first trial, c - W^-1 g = h^2 W^-1 Phi^T h(u), is the
      fixed-point map u <- (A^alpha + I)^-1 h(u): it keeps u positive, and
      the Nehari retraction then rescales it. The line search halves from 1
      only when that trial fails its acceptance rule.
    - The climbing image's offset contracts by 1 - theta on each mode the
      retraction keeps (theta in (0, 1]) and, with the tangent component
      reversed, by |1 + theta_tau| on its path-tangent mode. Per sweep that
      is about max(1 - theta_+, |1 + theta_tau|), with theta_+ the smallest
      positive theta: about 0.66 at the lam=6 band, which converges in 10
      sweeps. A step of 0.1 would contract by 1 - 0.1 theta_+, about 0.964
      there, and take 106.

    Raises ValueError for a tol that is not finite and positive, and for ends
    whose barycenters lie within 2h of each other: a band between one state
    and itself climbs nothing, and its highest image is a minimum.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    basis.check_same_domain(end_a.dom)
    basis.check_same_domain(end_b.dom)
    if _same_place(basis.dom, _barycenter(basis.dom, end_a.values)[1],
                   _barycenter(basis.dom, end_b.values)[1]):
        raise ValueError("band ends are one state: their barycenters lie within 2h")
    obj = Energy(basis, nl)

    path = []
    for t in np.linspace(0.0, 1.0, _N_IMAGES):
        c = (1.0 - t) * end_a.coeffs + t * end_b.coeffs
        path.append(obj.retract(c, obj.values(c)))

    def redistribute(lo: int, hi: int) -> None:
        # equal-arclength reparametrization of images strictly between lo, hi
        if hi - lo < 2:
            return
        seg = path[lo : hi + 1]
        lengths = [0.0]
        for (a, _), (b, _) in zip(seg, seg[1:]):
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
            (ca, va), (cb, vb) = seg[j], seg[j + 1]
            out.append(obj.retract((1.0 - frac) * ca + frac * cb, (1.0 - frac) * va + frac * vb))
        out.append(seg[-1])
        path[lo : hi + 1] = out

    step = 1.0
    saddle_residual = np.inf
    sweeps_done = 0
    for sweep in range(_MAX_SWEEPS):
        energies = [obj.energy(c, v) for c, v in path]
        k_star = 1 + int(np.argmax(energies[1:-1]))

        moved = []
        for k in range(1, _N_IMAGES - 1):
            c, values = path[k]
            g = obj.grad(c, values)
            d = g / obj.w
            dv = obj.values(d)
            if k == k_star:
                # phi tau from the neighbours' carried values, as tau from their coefficients
                (c_lo, v_lo), (c_hi, v_hi) = path[k - 1], path[k + 1]
                norm = max(float(np.linalg.norm(c_hi - c_lo)), 1e-300)
                tau, tau_v = (c_hi - c_lo) / norm, (v_hi - v_lo) / norm
                proj = 2.0 * float(d @ tau)
                d, dv = d - proj * tau, dv - proj * tau_v
                saddle_residual = _residual(float(g @ (g / obj.w)), energies[k])
                moved.append((k, obj.retract(c - step * d, values - step * dv)))
            else:
                gd = float(g @ d)
                trial = _line_search(obj, c, values, d, dv, step, energies[k], gd, gd)
                if trial is not None:
                    moved.append((k, trial[:2]))
        for k, image in moved:
            path[k] = image
        sweeps_done = sweep + 1
        if saddle_residual <= tol:
            break
        redistribute(0, k_star)
        redistribute(k_star, _N_IMAGES - 1)

    # the endpoints never move; the interior images are synthesized afresh
    path[1:-1] = [(c, obj.values(c)) for c, _ in path[1:-1]]
    energies = [obj.energy(c, v) for c, v in path]
    k_star = 1 + int(np.argmax(energies[1:-1]))
    c, values = path[k_star]
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
