"""Barycenter localization, translated-bump seeding, and multiplicity search.

The domain's shape enters the solution count through two maps: the barycenter
beta(u), which sends low-energy fields to points near the domain, and the
seed map that plants a translated ball ground state at a chosen center and
projects it onto the Nehari manifold. Running the descent solver from seeds
spread over the domain and grouping the results by the grid symmetry group
realizes the category counting numerically: a disk collapses to one orbit
class, an annulus at large scale sustains at least two. The search descends
once per orbit of the seeds under the grid symmetries: a seed whose snapped
center is an earlier descended seed's under a symmetry takes that record
mapped by the symmetry, which the D4-equivariance of the energy and of the
descent makes its own descent up to rounding (orbit_records, which the
sweep's bump starts use too). The saddle between
a class representative and its mirror image is found as a minimum of the
energy on the Nehari manifold inside the mirror's fixed-point subspace
(band_saddle).

Grid symmetries are the domain's exact mask-preserving subgroup of D4
(GridDomain.symmetries), the whole group for the orbits and its axis mirrors
for the saddle; the continuum rotation orbit on an annulus collapses to
finitely many pinned representatives, so counts here are orbit-class counts.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .domain import GridDomain, build_domain, mask_components
from .errors import (
    AllStartsFailed,
    BallDoesNotFit,
    ConstraintViolated,
    EigSolveFailure,
    NonpositiveField,
    SaddleNotEscaped,
)
from .model import Energy, PinnedEnergy, RestrictedEnergy, _barycenter
from .morse import DEFAULT_EPS_NULL, _smallest_eigenpairs
from .nehari import (
    SolutionRecord,
    _check_tol,
    _retracted_descent,
    _solution_record,
    ground_state,
    level_c,
)
from .spectral import Field, SpectralBasis, assemble_and_decompose

log = logging.getLogger(__name__)

_ESCAPE_SIZE = 0.1
_MAX_ESCAPES = 4
# penalty weights of annulus_level's continuation, in units of the seed's
# energy over (lam r)^2
_RHO_MULTIPLIERS = (1.0, 10.0, 100.0, 1000.0)
# orbit_classes joins two records whose relative energy gap is below the
# first and whose relative L2 distance under some grid symmetry is below the second
_ENERGY_GAP_TOL = 1e-4
_L2_DIST_TOL = 1e-2


def symmetry_group(dom: GridDomain) -> list[np.ndarray]:
    """Mask-preserving D4 elements as interior-index permutations, in
    dom.symmetries order: the identity first."""
    return [p for p, _ in dom.symmetries]


class PsiSeeder:
    """Cache of a ball ground state, stamped onto a host domain on demand.

    Solves the ground state of B_rho (same grid step, alpha and p as the host
    energy) once, as level_c's one centred start; unless it converges within
    tol and max_iter, AllStartsFailed names the ball radius, tol and max_iter.
    seed(x) translates it by a grid-aligned shift to node(x), extends by zero,
    and projects it onto the host manifold.
    """

    def __init__(self, energy: Energy, ball_radius: float, tol: float = 1e-8,
                 max_iter: int = 20000):
        if ball_radius <= 0.0:
            raise ValueError(f"ball_radius must be positive, got {ball_radius}")
        self.energy = energy
        self.ball_radius = float(ball_radius)
        ball_dom = build_domain("disk", {"R": self.ball_radius}, lam=1.0, h=energy.basis.dom.h)
        self.basis_ball = assemble_and_decompose(ball_dom, alpha=energy.basis.alpha)
        try:
            self.ball_state = level_c(Energy(self.basis_ball, energy.p), n_multistarts=1,
                                      tol=tol, max_iter=max_iter).records[0]
        except AllStartsFailed as exc:
            raise AllStartsFailed(
                f"the seeding ball of radius {self.ball_radius:g} did not converge "
                f"at tol={tol:g} within max_iter={max_iter}"
            ) from exc
        self.ball_level = self.ball_state.energy

    def node(self, x_tilde: tuple[float, float]) -> int:
        """Interior index of the host grid node nearest x_tilde, never -1 where
        check_fits passes: a ball of 25 nodes or more, centred on a node, has
        radius over 2 sqrt(2) h, and that node lies within h/sqrt(2) of x_tilde."""
        return _nearest_node(self.energy.basis.dom, x_tilde)

    def check_fits(self, x_tilde: tuple[float, float]) -> None:
        """Raise BallDoesNotFit unless x_tilde is inside the domain by at least
        the ball radius."""
        dom = self.energy.basis.dom
        if not float(dom.signed_boundary_distance(x_tilde)[0]) >= self.ball_radius:
            raise BallDoesNotFit(
                f"center {x_tilde} is closer than {self.ball_radius} to the boundary "
                "of the host domain"
            )

    def seed(self, x_tilde: tuple[float, float]) -> Field:
        """The ball state stamped at the snapped center, zero-extended, projected to M.

        The ball shares the host's grid step, so the stamp is an exact
        node-to-node copy, no interpolation; ball nodes that land outside the
        host mask are dropped. Raises BallDoesNotFit when x_tilde is not inside
        the domain by at least the ball radius (check_fits).
        """
        self.check_fits(x_tilde)
        dom = self.energy.basis.dom
        stamp = self.basis_ball.dom.node_coords + dom.node_coords[self.node(x_tilde)]
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

        e = self.energy
        return Field(dom, e.nehari_t(ext, e.quadratic(*e.point(ext))) * ext)


def _nearest_node(dom: GridDomain, x: tuple[float, float]) -> int:
    """Interior index of the grid node nearest x, -1 when that node is outside the mask."""
    ix = int(np.clip(round((x[0] - dom.xs[0]) / dom.h), 0, dom.nx - 1))
    iy = int(np.clip(round((x[1] - dom.ys[0]) / dom.h), 0, dom.ny - 1))
    return int(dom.index_of[iy, ix])


def orbit_records(
    basis: SpectralBasis, centers: list[tuple[float, float]], tags: list[str],
    descend: Callable[[tuple[float, float], str], SolutionRecord],
) -> list[SolutionRecord]:
    """One record per seed center, in order, from one descent per seed orbit.

    descend(center, tag) runs a seed's descent. A seed is descended only if
    its snapped center node (the grid node nearest it) is not the image of an
    earlier descended seed's node under a mask permutation p of
    symmetry_group, matched exactly as integer node indices, earlier seeds
    and the identity first. Any other seed's record is that source record
    mapped by the p with p[node_k] == node_j, where k is the seed and j the
    source: u's values are src.u.values[p] and the barycenter is read from
    them; energy, residual, iterations, converged and positive are
    copied, and seed_tag is the seed's own. That is the seed's own descent up
    to rounding when its seed is the source's seed mapped by p: p commutes
    with the masked Laplacian, so I, its gradient, the Green operator and the
    retraction commute with it, and with them every step of the descent
    kernel. A seed stamped at its snapped node from a D4-symmetric state is
    such an image (multiplicity_search); so is a Gaussian bump whose center
    is the D4 image of the source's, as the mid-circle centers of the sweep's
    bump starts are, up to the rounding of their coordinates.
    """
    perms = symmetry_group(basis.dom)
    descended: list[tuple[int, SolutionRecord]] = []
    records = []
    for center, tag in zip(centers, tags, strict=True):
        node = _nearest_node(basis.dom, center)
        image = next(
            ((p, src) for src_node, src in descended for p in perms if p[node] == src_node),
            None) if node >= 0 else None
        if image is None:
            rec = descend(center, tag)
            if node >= 0:
                descended.append((node, rec))
        else:
            p, src = image
            u = Field(basis.dom, src.u.values[p])
            rec = replace(src, u=u, seed_tag=tag,
                          barycenter=tuple(_barycenter(basis.dom, u.values)[1].tolist()))
        records.append(rec)
    return records


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
    high = grid >= level_frac * up.max()
    _, labels = mask_components(high)
    vals = grid[high]
    mass = np.bincount(labels, weights=vals * vals)
    return tuple(sorted((float(m) / total for m in mass), reverse=True))


@dataclass(frozen=True)
class AnnulusLevelReport:
    """Outcome of the barycenter-pinned minimization on an annulus."""

    value: float
    record: SolutionRecord
    target: tuple[float, float]
    distance_to_target: float
    rho_schedule: tuple[float, ...]


def _saddle_escape(obj: PinnedEnergy, x: np.ndarray) -> np.ndarray | None:
    """The escape step, as a nodal point, from the pinned objective's converged
    point x = [u; r] when it is a saddle of F, else None.

    The two smallest theta of F's Hessian pencil (L - E) y = theta L y there,
    by morse's Lanczos: the first is the ray's, negative at every point of the
    manifold, and a second one below -morse.DEFAULT_EPS_NULL makes the point
    a saddle on the manifold, as hessian_spectrum would count it. The step is
    _ESCAPE_SIZE sqrt(Q) times the point [y; L y] of the second eigenvector
    y, whose h^2 y^T L y is 1, signed so that its largest-magnitude value is
    positive.
    """
    ev, vecs = _smallest_eigenpairs(obj, x[0], 2, vectors=True)
    if ev[1] >= -DEFAULT_EPS_NULL:
        return None
    y = vecs[:, 1]
    y = y if y[np.argmax(np.abs(y))] > 0.0 else -y
    return obj.point(_ESCAPE_SIZE * math.sqrt(obj.quadratic(*x)) * y)


def annulus_level(
    energy: Energy,
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
    already the center; a seed on another domain is a DomainMismatch.

    Each stage builds one PinnedEnergy on energy's basis and exponent for its
    rho and runs nehari's descent kernel on it, Newton finish included. The
    penalty is scale-invariant along rays (beta ignores positive scaling), so
    the Nehari retraction leaves it unchanged and the plain solver's descent
    argument carries over.
    An unconverged stage ends the continuation. Only the point it returns is
    checked to second order, by morse's Lanczos on the last stage's
    PinnedEnergy (_saddle_escape): where that point is a saddle of the
    penalized objective, as the symmetric four-bump point that the ring seed
    can reach at lam=2, the last stage is rerun from a step off it, at most
    _MAX_ESCAPES times, then SaddleNotEscaped is raised. An unconverged rerun
    or a failed Lanczos solve ends the checks. Fails with
    ConstraintViolated if the barycenter it ends at sits farther than 2h from
    the target, else with the check's EigSolveFailure if there was one, and
    with ValueError at once for a tol that is not finite and positive.
    """
    _check_tol(tol)
    basis = energy.basis
    dom = basis.dom
    if dom.shape_id != "annulus":
        raise ValueError(f"annulus_level needs an annulus domain, got {dom.shape_id!r}")
    target = np.array([float(x_tilde[0]), float(x_tilde[1])])

    if seed is None:
        rr = np.sqrt((dom.node_coords**2).sum(axis=1))
        mid = 0.5 * (dom.params["R"] + dom.params["r"]) * dom.lam
        width = (dom.params["R"] - dom.params["r"]) * dom.lam / 3.0
        seed = Field(dom, np.exp(-((rr - mid) ** 2) / (2.0 * width * width)))
    basis.check_same_domain(seed.dom)
    x = energy.retract(*energy.point(seed.values))
    e_typ = energy.energy(x[0], energy.quadratic(*x))
    length = dom.lam * dom.params["r"]
    rhos = tuple(m * abs(e_typ) / length**2 for m in _RHO_MULTIPLIERS)

    iterations = escapes = 0
    unchecked: EigSolveFailure | None = None
    for rho in rhos:
        pinned = PinnedEnergy(basis, energy.p, rho, target)
        x, _, residual, its = _retracted_descent(pinned, x, tol, max_iter)
        iterations += its
        if residual > tol:
            break  # an unconverged stage ends the continuation
    while residual <= tol:
        try:
            step = _saddle_escape(pinned, x)
        except EigSolveFailure as exc:
            unchecked = exc
            break
        if step is None:
            break
        if escapes == _MAX_ESCAPES:
            raise SaddleNotEscaped(
                f"stage rho={rho:.3g} still ends at a saddle after {escapes} escapes"
            )
        escapes += 1
        x, _, residual, its = _retracted_descent(pinned, x + step, tol, max_iter)
        iterations += its

    # the level is I's; the residual is the last stage's, of the pinned objective
    record = _solution_record(Field(dom, x[0]), energy.measure(x[0])[0], residual, tol,
                              "ring-penalty", iterations)
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
    beta_in_plus: bool


@dataclass(frozen=True)
class MultiplicityReport:
    """Deduplicated multistart outcome with the localization predicate.

    classes are sorted by energy. ball_level is c(B_rho) for the seeding ball;
    below_ball_level tells whether an energy lies in the low sublevel where the
    barycenter is predicted to stay within distance rho of the domain
    (beta_in_plus).
    """

    classes: tuple[OrbitClass, ...]
    ball_level: float
    ball_radius: float
    n_seeds: int
    n_converged: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def below_ball_level(self, energy: float) -> bool:
        """Whether energy is at most ball_level, up to rounding."""
        return energy <= self.ball_level * (1.0 + 1e-12)


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
    distance below _L2_DIST_TOL. Each class lists its records in input order,
    and the classes are sorted by their first record's (energy, seed_tag). That
    record represents it: members agree in energy only to rounding.
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
    return sorted(groups.values(), key=lambda cl: (cl[0].energy, cl[0].seed_tag))


def multiplicity_search(
    energy: Energy,
    seed_centers: list[tuple[float, float]],
    ball_radius: float,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> MultiplicityReport:
    """Descend from translated-bump seeds, one descent per seed orbit, and
    count symmetry-orbit classes.

    The seeds' records come from orbit_records: a seed whose snapped center
    node is the image of an earlier descended seed's under a mask
    permutation takes that record mapped by the permutation. That is its own
    descent up to rounding, as the ball state is D4-symmetric and the
    permutation preserves the mask.

    Class membership is decided by orbit_classes; a class is represented by
    its member from the earliest seed center, always a descended seed, as an
    image lists after its source. Unconverged starts, images included, are
    logged and dropped, never raised; an unconverged seeding ball (PsiSeeder,
    same tol and max_iter) raises AllStartsFailed, and every center that the
    ball does not fit raises BallDoesNotFit before any descent. A tol that is
    not finite and positive is a ValueError before any work.
    """
    _check_tol(tol)
    if not seed_centers:
        raise ValueError("need at least one seed center")
    basis = energy.basis
    seeder = PsiSeeder(energy, ball_radius, tol=tol, max_iter=max_iter)
    for center in seed_centers:
        seeder.check_fits(center)
    tags = [f"psi-{k}@({x:.3g},{y:.3g})" for k, (x, y) in enumerate(seed_centers)]
    records: list[SolutionRecord] = []
    for rec in orbit_records(basis, seed_centers, tags, lambda center, tag: ground_state(
            energy, seeder.seed(center), tol=tol, max_iter=max_iter, seed_tag=tag)):
        if rec.converged:
            records.append(rec)
        else:
            log.warning("multiplicity start %s did not converge; dropped", rec.seed_tag)

    classes = []
    for members in orbit_classes(basis, records):
        rep = members[0]
        in_plus = float(basis.dom.region_distance(rep.barycenter)[0]) <= ball_radius
        classes.append(OrbitClass(
            representative=rep,
            orbit_size=len(members),
            beta_in_plus=in_plus,
        ))
    return MultiplicityReport(
        classes=tuple(classes),
        ball_level=seeder.ball_level,
        ball_radius=float(ball_radius),
        n_seeds=len(seed_centers),
        n_converged=len(records),
    )


def moving_mirrors(u: Field) -> dict[int, np.ndarray]:
    """The mirrors of u's mask that move u's barycenter by more than 2h, as
    {generator: node permutation} in generator order (0 the x-mirror, 1 the
    y-mirror, as u.dom.symmetries composes them). Mirror m reflects
    coordinate m about the origin, the center of every grid with mirrors, so
    it moves beta by 2|beta_m|. A mirror that does not move it, as the one
    across an axis u sits on, maps u onto itself up to rounding."""
    beta = _barycenter(u.dom, u.values)[1]
    return {used[0]: p for p, used in u.dom.symmetries
            if used in ((0,), (1,)) and abs(beta[used[0]]) > u.dom.h}


@dataclass(frozen=True)
class SaddleReport:
    """band_saddle's saddle; sweeps counts its accepted descent steps, as
    saddle.iterations does."""

    saddle: SolutionRecord
    sweeps: int


def band_saddle(
    energy: Energy,
    u: Field,
    mirror: int,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SaddleReport:
    """The saddle between u and its image u∘σ under a mirror σ of the mask,
    as a minimum of I on the Nehari manifold in σ's fixed-point subspace.

    mirror is σ's generator, as moving_mirrors gives it. The descent runs
    nehari's kernel on a model.RestrictedEnergy of σ's node permutation from
    its point of u's values, the σ-even part (u + u∘σ)/2 to rounding,
    retracted onto the manifold; its values stay exactly σ-even, each Riesz
    map a green and a pair average. Its record is judged on the full-space
    residual of I, which the kernel's measure reads: at a σ-even point the
    gradient of the σ-invariant I is σ-even, so it equals the restricted
    residual to rounding. On the annulus at lam = 4, 6 and 8 (h = 0.25, tol
    1e-8) it takes 3 to 8 steps to the index-2 saddle that a climbing-image
    band between u and u∘σ found, with energies equal to 5.2e-12 relative.

    Raises DomainMismatch for a u off the energy's domain, and ValueError for
    a tol that is not finite and positive and for a mirror not in
    moving_mirrors(u), which a mirror the mask lacks never is: the descent
    from a u that σ leaves in place ends at u, a minimum.
    """
    _check_tol(tol)
    basis = energy.basis
    basis.check_same_domain(u.dom)
    sigma = moving_mirrors(u).get(mirror)
    if sigma is None:
        raise ValueError(f"mirror {mirror} is no mirror of the mask that moves u: "
                         "u and its image would be one state")
    obj = RestrictedEnergy(basis, energy.p, sigma)
    x, F, residual, steps = _retracted_descent(obj, obj.point(u.values), tol, max_iter)
    rec = _solution_record(Field(basis.dom, x[0]), F, residual, tol,
                           f"mirror-{'xy'[mirror]}-fixed", steps)
    return SaddleReport(saddle=rec, sweeps=steps)
