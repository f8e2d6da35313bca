"""Masked-grid construction: node counts, distances, scaling, neighborhoods and
Betti numbers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fracfield.config import default_config, validate_config
from fracfield.domain import GridDomain, build_domain, mask_betti
from fracfield.errors import BadShapeParams, EmptyMask
from fracfield.runner import run
from oracles import diameter


def _boundary_points(shape_id, params, lam, n=20000):
    """Dense sampling of the boundary of lambda*Omega, used as a distance oracle."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if shape_id == "disk":
        R = lam * params["R"]
        return np.stack([R * np.cos(t), R * np.sin(t)], axis=1)
    if shape_id == "annulus":
        R, r = lam * params["R"], lam * params["r"]
        outer = np.stack([R * np.cos(t), R * np.sin(t)], axis=1)
        inner = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        return np.concatenate([outer, inner])
    wx, wy = 0.5 * lam * params["a"], 0.5 * lam * params["b"]
    s = np.linspace(-1.0, 1.0, n // 4)
    return np.concatenate([
        np.stack([s * wx, np.full_like(s, wy)], axis=1),
        np.stack([s * wx, np.full_like(s, -wy)], axis=1),
        np.stack([np.full_like(s, wx), s * wy], axis=1),
        np.stack([np.full_like(s, -wx), s * wy], axis=1),
    ])


def test_unit_square_interior_count():
    dom = build_domain("rectangle", {"a": 1.0, "b": 1.0}, 1.0, 1.0 / 33.0)
    assert dom.n_interior == 32 * 32
    assert dom.mask.sum(axis=0).max() == 32
    assert dom.mask.sum(axis=1).max() == 32


def test_annulus_cell_count_area():
    params = {"R": 1.0, "r": 0.4}
    lam = 2.0
    dom = build_domain("annulus", params, lam, 0.1)
    exact = math.pi * lam**2 * (params["R"] ** 2 - params["r"] ** 2)
    area = dom.n_interior * dom.h**2
    assert abs(area - exact) / exact < 0.02
    # the hole is excluded
    rho = np.sqrt((dom.node_coords**2).sum(axis=1))
    assert rho.min() > lam * params["r"]
    assert rho.max() < lam * params["R"]


@pytest.mark.parametrize(
    "shape_id,params",
    [
        ("rectangle", {"a": 1.0, "b": 0.7}),
        ("disk", {"R": 1.0}),
        ("annulus", {"R": 1.0, "r": 0.4}),
    ],
)
def test_scaling_invariance_exact(shape_id, params):
    lam, h = 1.3, 0.04
    d1 = build_domain(shape_id, params, lam, h)
    d2 = build_domain(shape_id, params, 2 * lam, 2 * h)
    assert d2.n_interior == d1.n_interior
    assert np.array_equal(d2.mask, d1.mask)
    assert np.array_equal(d2.node_coords, 2.0 * d1.node_coords)
    assert np.array_equal(d2.boundary_distance, 2.0 * d1.boundary_distance)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.5, 4.0, allow_nan=False, allow_infinity=False),
    inv_h=st.floats(8.0, 30.0, allow_nan=False, allow_infinity=False),
)
def test_scaling_invariance_property(lam, inv_h):
    h = 1.0 / inv_h
    d1 = build_domain("disk", {"R": 1.0}, lam, h)
    d2 = build_domain("disk", {"R": 1.0}, 2 * lam, 2 * h)
    assert d2.n_interior == d1.n_interior
    assert np.array_equal(d2.node_coords, 2.0 * d1.node_coords)


@pytest.mark.parametrize(
    "shape_id,params,lam,h",
    [
        ("rectangle", {"a": 1.0, "b": 1.0}, 2.0, 0.05),
        ("disk", {"R": 1.0}, 1.5, 0.05),
        ("annulus", {"R": 1.0, "r": 0.4}, 2.0, 0.05),
    ],
)
def test_boundary_distance_exact_and_bounded(shape_id, params, lam, h):
    dom = build_domain(shape_id, params, lam, h)
    bd = dom.boundary_distance
    assert (bd > 0).all()
    assert bd.max() <= diameter(dom)
    # oracle: min distance to a dense boundary sampling
    bpts = _boundary_points(shape_id, params, lam)
    for i in range(0, dom.n_interior, max(1, dom.n_interior // 40)):
        p = dom.node_coords[i]
        brute = np.sqrt(((bpts - p) ** 2).sum(axis=1)).min()
        assert abs(bd[i] - brute) < 2e-4 * diameter(dom)


def test_all_interior_nodes_strictly_inside():
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, 2.0, 0.07)
    sd = dom.signed_boundary_distance(dom.node_coords)
    assert (sd > 0).all()


def test_neighborhood_membership_annulus():
    # inside by at least a band: signed distance; within a band of the
    # region: region distance
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.1)

    def depth(p):
        return float(dom.signed_boundary_distance(p)[0])

    def reach(p):
        return float(dom.region_distance(p)[0])

    mid = np.array([4.0 * 0.7, 0.0])  # radius lam*(R+r)/2 = 2.8, depth 1.2
    assert depth(mid) >= 0.2
    assert depth(mid) >= 1.19
    assert not depth(mid) >= 1.3
    assert reach(mid) <= 0.0
    out = np.array([4.1, 0.0])  # 0.1 beyond the outer circle
    assert reach(out) <= 0.2
    assert not reach(out) <= 0.05
    hole = np.array([0.0, 0.0])  # region distance lam*r = 1.6
    assert reach(hole) <= 1.7
    assert not reach(hole) <= 1.5
    assert not depth(hole) >= 0.1


def test_empty_mask_raises():
    with pytest.raises(EmptyMask):
        build_domain("disk", {"R": 1.0}, 1.0, 0.5)


@pytest.mark.parametrize(
    "shape_id,params,lam,h",
    [
        ("annulus", {"R": 0.4, "r": 1.0}, 1.0, 0.05),
        ("annulus", {"R": 1.0, "r": 1.0}, 1.0, 0.05),
        ("rectangle", {"a": -1.0, "b": 1.0}, 1.0, 0.05),
        ("rectangle", {"a": 1.0}, 1.0, 0.05),
        ("disk", {"R": 1.0}, -2.0, 0.05),
        ("disk", {"R": 1.0}, 1.0, 0.0),
        ("hexagon", {"R": 1.0}, 1.0, 0.05),
    ],
)
def test_bad_shape_params(shape_id, params, lam, h):
    with pytest.raises(BadShapeParams):
        build_domain(shape_id, params, lam, h)


def test_index_map_and_grid_scatter_roundtrip():
    dom = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    idx = dom.index_of[dom.mask]
    assert np.array_equal(idx, np.arange(dom.n_interior))
    assert (dom.index_of[~dom.mask] == -1).all()
    vals = np.arange(dom.n_interior, dtype=float)
    grid = dom.grid_values(vals)
    assert np.array_equal(grid[dom.mask], vals)
    assert (grid[~dom.mask] == 0.0).all()
    # node_coords really are the masked meshgrid points, row-major
    X, Y = np.meshgrid(dom.xs, dom.ys)
    assert np.array_equal(dom.node_coords[:, 0], X[dom.mask])
    assert np.array_equal(dom.node_coords[:, 1], Y[dom.mask])


def test_content_hash_distinguishes_domains():
    d1 = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    d2 = build_domain("disk", {"R": 1.0}, 1.0, 0.05)
    d3 = build_domain("disk", {"R": 1.0}, 1.0, 0.1)
    assert d1.content_hash != d2.content_hash
    assert d1.content_hash == d3.content_hash


def test_symmetries_are_found_once_and_shared_read_only():
    # every reader takes the same arrays, so none may write into them
    dom = build_domain("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25)
    assert dom.symmetries is dom.symmetries
    perm, used = dom.symmetries[1]
    assert used == (0,)
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = perm[1]
    assert all(not p.flags.writeable for p, _ in dom.symmetries)


def test_the_multiplicity_task_finds_each_domains_symmetries_once(tmp_path, monkeypatch):
    # the eigenbasis blocks, the orbit descents and classes and the band
    # saddle's mirrors read one group per domain: the default task builds the
    # annulus and its seeding ball and finds the D4 maps of each once, where
    # a fresh search per reader made 6
    built, found = [], []
    init, find = GridDomain.__init__, GridDomain.symmetries.func

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_find(dom):
        found.append(dom)
        return find(dom)

    monkeypatch.setattr(GridDomain, "__init__", counted_init)
    monkeypatch.setattr(GridDomain.symmetries, "func", counted_find)
    run(validate_config(default_config("multiplicity")), tmp_path)
    assert len(found) == len({id(dom) for dom in found}) == len(built) == 2


@pytest.mark.parametrize(
    "shape_id,params,lam,h,betti",
    [
        ("disk", {"R": 1.0}, 1.0, 0.1, (1, 0)),
        ("disk", {"R": 2.0}, 1.0, 0.125, (1, 0)),
        ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.25, (1, 0)),
        ("rectangle", {"a": 2.0, "b": 1.0}, 2.0, 0.3, (1, 0)),
        ("annulus", {"R": 1.0, "r": 0.4}, 2.0, 0.25, (1, 1)),
        ("annulus", {"R": 1.0, "r": 0.4}, 4.0, 0.25, (1, 1)),
        ("annulus", {"R": 1.0, "r": 0.4}, 6.0, 0.25, (1, 1)),
        ("annulus", {"R": 1.0, "r": 0.4}, 8.0, 0.25, (1, 1)),
        ("annulus", {"R": 1.0, "r": 0.4}, 6.0, 0.125, (1, 1)),
        # a ring 0.3 wide at h = 0.25: the stencil breaks it into 16 pieces
        ("annulus", {"R": 1.0, "r": 0.9}, 3.0, 0.25, (16, 0)),
    ],
    ids=["disk-h0.1", "disk-h0.125", "rectangle-divided", "rectangle-undivided",
         "annulus2", "annulus4", "annulus6", "annulus8", "annulus6-h0.125", "thin-ring"],
)
def test_mask_betti_numbers(shape_id, params, lam, h, betti):
    assert mask_betti(build_domain(shape_id, params, lam, h)) == betti


def test_mask_betti_matches_the_label_oracle_on_random_masks():
    # scipy.ndimage.label as the oracle: b0 counts the mask's 4-connected
    # components, b1 the 8-connected components of its complement padded by
    # one node, less the outside. Random masks of every density, with empty
    # rows, lone nodes and diagonal contacts; mask_betti reads only the mask
    rng = np.random.default_rng(11)
    eight = np.ones((3, 3), dtype=bool)
    for _ in range(500):
        ny, nx = rng.integers(1, 16, size=2)
        mask = rng.random((ny, nx)) < rng.uniform(0.1, 0.95)
        want = (ndimage.label(mask)[1],
                ndimage.label(np.pad(~mask, 1, constant_values=True), structure=eight)[1] - 1)
        assert mask_betti(SimpleNamespace(mask=mask)) == want
