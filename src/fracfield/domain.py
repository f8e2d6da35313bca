"""Masked uniform grids over scaled planar regions.

A domain is a region lambda*Omega for a base shape Omega (rectangle, disk, or
annulus) discretized on a uniform Cartesian grid of spacing h. Interior nodes
are the grid nodes whose centers lie strictly inside the continuous region;
there are no cut cells, and every interior node carries quadrature weight h^2.

Grid alignment is chosen so that scaling (lam, h) -> (2*lam, 2*h) reproduces
the same node set with coordinates exactly doubled:

* rectangle: nodes start at the exact corner -lam*a/2, -lam*b/2, so a grid
  that divides the side lengths puts nodes exactly on the boundary (masked
  out by the strict-inside test);
* disk, annulus: a node sits exactly at the center, so the node set is
  symmetric under the full grid symmetry group of the shape.

Two facts about the shape are read off its mask here and nowhere else: the
D4 maps that preserve it (GridDomain.symmetries, found once per domain),
which split the eigenbasis, group the orbits and give the saddle's mirrors,
and its Betti numbers (mask_betti), the Morse census's P_t = b0 + b1 t.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import BadShapeParams, EmptyMask

# each shape's parameters, of the unit shape Omega
SHAPE_PARAMS = {"rectangle": ("a", "b"), "disk": ("R",), "annulus": ("R", "r")}

# Strict-inside margin, relative to the domain scale. Keeps exact-boundary
# nodes out of the mask regardless of rounding direction.
_EPS_REL = 1e-12

_MIN_NODES = 25


def _validate(shape_id: str, params: dict, lam: float, h: float) -> None:
    if shape_id not in SHAPE_PARAMS:
        raise BadShapeParams(f"unknown shape {shape_id!r}; expected one of {tuple(SHAPE_PARAMS)}")
    if not (lam > 0) or not math.isfinite(lam):
        raise BadShapeParams(f"lambda must be positive and finite, got {lam}")
    if not (h > 0) or not math.isfinite(h):
        raise BadShapeParams(f"h must be positive and finite, got {h}")
    expected = set(SHAPE_PARAMS[shape_id])
    if set(params) != expected:
        raise BadShapeParams(
            f"{shape_id} expects params {sorted(expected)}, got {sorted(params)}"
        )
    for k, v in params.items():
        if not (v > 0) or not math.isfinite(v):
            raise BadShapeParams(f"param {k} must be positive and finite, got {v}")
    if shape_id == "annulus" and params["r"] >= params["R"]:
        raise BadShapeParams(
            f"annulus needs r < R, got r={params['r']} R={params['R']}"
        )


def _axis_nodes(half_extent: float, h: float) -> np.ndarray:
    """Symmetric node row covering [-half_extent, half_extent] with a node at 0."""
    m = int(math.floor(half_extent / h + 1e-9)) + 1
    return np.arange(-m, m + 1, dtype=float) * h


def _corner_nodes(extent: float, h: float) -> np.ndarray:
    """Node row starting exactly at -extent/2, robust when h divides extent."""
    ratio = extent / h
    n_seg = round(ratio) if abs(ratio - round(ratio)) <= 1e-6 * max(1.0, ratio) else int(ratio)
    return -0.5 * extent + np.arange(n_seg + 1, dtype=float) * h


# The eight grid maps (x, y) -> (a x + b y, c x + d y) of D4 as (a, b, c, d),
# each with the generators whose product, in the order listed, it is: 0 the
# x-mirror x -> -x, 1 the y-mirror y -> -y, 2 the swap (x, y) -> (y, x)
_D4 = (
    ((1, 0, 0, 1), ()),
    ((-1, 0, 0, 1), (0,)),
    ((1, 0, 0, -1), (1,)),
    ((-1, 0, 0, -1), (0, 1)),
    ((0, 1, 1, 0), (2,)),
    ((0, -1, 1, 0), (0, 2)),
    ((0, 1, -1, 0), (1, 2)),
    ((0, -1, -1, 0), (0, 1, 2)),
)


@dataclass(frozen=True)
class GridDomain:
    """Immutable masked-grid realization of lambda*Omega.

    Attributes
    ----------
    shape_id : a key of SHAPE_PARAMS
    params : shape parameters of the unit shape Omega
    lam : scaling factor lambda > 0
    h : grid spacing
    xs, ys : node coordinates along each axis (full bounding grid)
    mask : bool array of shape (len(ys), len(xs)); True at interior nodes
    node_coords : (n, 2) coordinates of interior nodes, row-major grid order
    boundary_distance : (n,) exact distance from each interior node to the
        boundary of lambda*Omega, from the shape formulas
    index_of : (ny, nx) int array mapping grid position to interior index, -1 outside
    """

    shape_id: str
    params: dict
    lam: float
    h: float
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    node_coords: np.ndarray = field(repr=False)
    boundary_distance: np.ndarray = field(repr=False)
    index_of: np.ndarray = field(repr=False)

    @property
    def n_interior(self) -> int:
        return self.node_coords.shape[0]

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    @cached_property
    def symmetries(self) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        """The D4 maps that preserve the mask, each as a read-only interior-index
        permutation with the generators composing it, in _D4 order: the
        identity first. Found on first read and shared by every reader.

        The maps act about the grid's own center. One that does not carry the
        interior node set exactly onto itself is left out, so a slightly
        asymmetric grid keeps only the symmetries it really has.
        """
        # grid offsets from the center, doubled so a half-integer center stays
        # integer; an image with odd doubled offset falls between nodes
        iy, ix = np.nonzero(self.mask)
        ox = 2 * ix - (self.nx - 1)
        oy = 2 * iy - (self.ny - 1)
        found = []
        for (a, b, c, d), used in _D4:
            jx = a * ox + b * oy + (self.nx - 1)
            jy = c * ox + d * oy + (self.ny - 1)
            if np.any(jx % 2) or np.any(jy % 2):
                continue
            jx, jy = jx // 2, jy // 2
            if np.any((jx < 0) | (jx >= self.nx) | (jy < 0) | (jy >= self.ny)):
                continue
            perm = self.index_of[jy, jx]
            if np.all(perm >= 0):
                perm.flags.writeable = False
                found.append((perm, used))
        return tuple(found)

    @property
    def content_hash(self) -> str:
        """Hash of the geometric identity, used to tag dumps and detect mismatches."""
        key = (
            self.shape_id,
            tuple(sorted(self.params.items())),
            repr(self.lam),
            repr(self.h),
            self.nx,
            self.ny,
            self.n_interior,
        )
        return hashlib.sha256(repr(key).encode()).hexdigest()[:16]

    def signed_boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary: positive inside lambda*Omega."""
        return _signed_distance(self.shape_id, self.params, self.lam, np.asarray(pts, float))

    def region_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the closed region lambda*Omega (zero inside)."""
        return np.maximum(0.0, -self.signed_boundary_distance(pts))

    def grid_values(self, interior_values: np.ndarray) -> np.ndarray:
        """Scatter a flat interior vector onto the full (ny, nx) grid, zero outside the mask."""
        out = np.zeros((self.ny, self.nx))
        out[self.mask] = interior_values
        return out


def _signed_distance(shape_id: str, params: dict, lam: float, pts: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(pts)
    x, y = pts[..., 0], pts[..., 1]
    # sqrt(x*x + y*y) rather than hypot: IEEE sqrt/multiply commute exactly with
    # power-of-two scaling, which the (lam, h) -> (2*lam, 2*h) invariant relies on.
    if shape_id == "rectangle":
        wx = 0.5 * lam * params["a"]
        wy = 0.5 * lam * params["b"]
        dx = np.abs(x) - wx
        dy = np.abs(y) - wy
        gx = np.maximum(dx, 0.0)
        gy = np.maximum(dy, 0.0)
        inside = np.minimum(-dx, -dy)
        outside = -np.sqrt(gx * gx + gy * gy)
        return np.where((dx < 0) & (dy < 0), inside, outside)
    rho = np.sqrt(x * x + y * y)
    if shape_id == "disk":
        return lam * params["R"] - rho
    # annulus: inside iff lam*r < rho < lam*R
    return np.minimum(lam * params["R"] - rho, rho - lam * params["r"])


def build_domain(shape_id: str, params: dict, lam: float, h: float) -> GridDomain:
    """Construct the masked grid for lambda*Omega.

    Raises
    ------
    BadShapeParams
        for invalid geometry.
    EmptyMask
        if fewer than 25 interior nodes result (h too coarse for the region).
    """
    _validate(shape_id, params, lam, h)
    if shape_id == "rectangle":
        xs = _corner_nodes(lam * params["a"], h)
        ys = _corner_nodes(lam * params["b"], h)
        scale = lam * max(params["a"], params["b"])
    else:
        half = lam * params["R"]
        xs = _axis_nodes(half, h)
        ys = xs.copy()
        scale = 2.0 * half

    X, Y = np.meshgrid(xs, ys)  # row index = y, column index = x
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    sd = _signed_distance(shape_id, params, lam, pts).reshape(X.shape)
    mask = sd > _EPS_REL * scale

    n = int(mask.sum())
    if n < _MIN_NODES:
        raise EmptyMask(
            f"h={h} leaves {n} interior nodes for {shape_id} at lambda={lam}; "
            f"need at least {_MIN_NODES}"
        )

    node_coords = pts.reshape(X.shape + (2,))[mask]
    boundary_distance = sd[mask]
    index_of = np.full(mask.shape, -1, dtype=np.int64)
    index_of[mask] = np.arange(n)

    return GridDomain(
        shape_id=shape_id,
        params=dict(params),
        lam=float(lam),
        h=float(h),
        xs=xs,
        ys=ys,
        mask=mask,
        node_coords=node_coords,
        boundary_distance=boundary_distance,
        index_of=index_of,
    )


def mask_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4-adjacent pairs of a boolean grid's True nodes, as (i, j): indices
    of those nodes in row-major order, j the right or the lower neighbor of i,
    the horizontal pairs first."""
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[mask] = np.arange(int(mask.sum()))
    across = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    return (np.concatenate([index[:, :-1][across], index[:-1, :][down]]),
            np.concatenate([index[:, 1:][across], index[1:, :][down]]))


def mask_components(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """(count, labels): the components of a boolean grid's True nodes under
    4-connectivity, the 5-point stencil's, and each node's component, the
    nodes in row-major order."""
    # imported here, not with the module, like scipy.special in
    # extension.BesselProfile: the process of a task that never calls them
    # should not load them (csgraph adds about 1 MB resident)
    from scipy.sparse.csgraph import connected_components

    i, j = mask_pairs(mask)
    n = int(mask.sum())
    graph = scipy.sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return connected_components(graph, directed=False)


def mask_betti(dom: GridDomain) -> tuple[int, int]:
    """Betti numbers (b0, b1) of the mask as the 5-point stencil sees it.

    b0 counts the mask's components under 4-connectivity, the stencil's. A
    planar complex has no 2-cycles, so b1 = b0 - (V - E + F), the Euler
    characteristic of the mask's nodes, 4-adjacent pairs and fully filled
    2 x 2 squares: the holes that the complement's dual 8-connectivity sees.
    A ring that the grid breaks reads as its pieces, not as a ring.
    """
    m = dom.mask
    b0 = mask_components(m)[0]
    squares = m[:-1, :-1] & m[:-1, 1:] & m[1:, :-1] & m[1:, 1:]
    euler = int(m.sum()) - mask_pairs(m)[0].size + int(squares.sum())
    return b0, b0 - euler
