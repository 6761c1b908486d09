"""2D Dirichlet problems: five-point stencil, boundary data, time step, the
postprocess on a 2D grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter.bench import ManufacturedCase
from rdfilter.core import (
    Field,
    laplacian_symbol,
    make_grid_1d,
    make_grid_2d,
    zero_reaction,
)
from rdfilter.ddm import make_layout
from rdfilter.filtering import postprocess_field, sigma8
from rdfilter.solver2d import kappa_critical_2d
from rdfilter.stepper import apply_laplacian, recurrence_roots, step

GRID = make_grid_2d(16, 16)
X, Y = np.meshgrid(GRID.nodes_x, GRID.nodes_y, indexing="ij")

EDGES = ("g0", "gpi", "h0", "hpi")
HOMOGENEOUS = dict.fromkeys(EDGES, np.zeros(17))


def test_laplacian_annihilates_constants_and_linears():
    c = apply_laplacian(np.full((17, 17, 1), 2.0))
    assert np.all(c[1:-1, 1:-1] == 0.0)
    lin = apply_laplacian(Field(GRID, X + Y).values)
    assert np.max(np.abs(lin[1:-1, 1:-1])) < 1e-11


def test_laplacian_tensor_eigenfunction():
    for k, l in [(1, 1), (2, 3), (5, 2)]:
        u = Field(GRID, np.sin(k * X) * np.sin(l * Y))
        out = apply_laplacian(u.values)[1:-1, 1:-1, 0]
        lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
        want = lam * (np.sin(k * X) * np.sin(l * Y))[1:-1, 1:-1]
        assert np.max(np.abs(out - want)) < 1e-8 * abs(lam)


def test_step2d_zero_fixed_point():
    dt = 1e-4
    z = Field.zeros(GRID)
    out = step(z, z, zero_reaction(), 0.0, dt, HOMOGENEOUS)
    assert np.all(out.values == 0.0)


def test_step2d_single_tensor_mode_recurrence():
    k, l = 3, 2
    dt = 0.1 * GRID.hx**2
    lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
    mode = np.sin(k * X) * np.sin(l * Y)
    u = Field(GRID, mode)
    out = step(u, u, zero_reaction(), 0.0, dt, HOMOGENEOUS)
    want = (4.0 - 1.0 + 2.0 * dt * lam * (2.0 - 1.0)) / 3.0
    assert np.max(np.abs(out.values[:, :, 0] - want * mode)) < 1e-11


def test_startup2d_forward_euler_symbol():
    k, l = 2, 2
    dt = 0.1 * GRID.hx**2
    lam = laplacian_symbol(GRID.hx, k) + laplacian_symbol(GRID.hy, l)
    mode = np.sin(k * X) * np.sin(l * Y)
    u0 = Field(GRID, mode)
    out = step(u0, None, zero_reaction(), 0.0, dt, HOMOGENEOUS)
    assert np.max(np.abs(out.values[:, :, 0] - (1.0 + dt * lam) * mode)) < 1e-11


def test_laplacian_uses_each_axis_spacing():
    # Nx != Ny: the second difference along each axis divides by its own h^2
    grid = make_grid_2d(24, 10)
    Xr, Yr = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
    for k, l in [(1, 1), (5, 3)]:
        mode = np.sin(k * Xr) * np.sin(l * Yr)
        out = apply_laplacian(Field(grid, mode).values)[1:-1, 1:-1, 0]
        lam = laplacian_symbol(grid.hx, k) + laplacian_symbol(grid.hy, l)
        assert np.max(np.abs(out - lam * mode[1:-1, 1:-1])) < 1e-9 * abs(lam)


def test_step_writes_x_edges_over_the_corners():
    # a hand-built edge dict whose edges disagree at the corners: the x-edges
    # (h0, hpi), written after the y-edges, own the four corners
    eps = 1e-12
    y_edge, x_edge = np.full((17, 1), eps), np.zeros((17, 1))
    edges = {"g0": y_edge, "gpi": y_edge, "h0": x_edge, "hpi": x_edge}
    z = Field.zeros(GRID)
    dt = 1e-4
    for z_prev in (z, None):  # a two-step and a startup step
        out = step(z, z_prev, zero_reaction(), 0.0, dt, edges).values[..., 0]
        assert np.all(out[[0, 0, -1, -1], [0, -1, 0, -1]] == 0.0)
        assert np.all(out[1:-1, [0, -1]] == eps)


def test_unfiltered_2d_stability_limit():
    # with hx = hy = h the worst tensor mode has |lam| <= 8/h^2, so the
    # unfiltered scheme needs dt < h^2/6
    h = GRID.hx
    n = GRID.n_intervals_x

    def all_stable(dt):
        for k in range(1, n):
            for l in range(1, n):
                lam = laplacian_symbol(h, k) + laplacian_symbol(h, l)
                if np.max(np.abs(recurrence_roots(dt, lam))) > 1.0 + 1e-12:
                    return False
        return True

    assert all_stable(0.95 * h**2 / 6.0)
    assert not all_stable(1.05 * h**2 / 6.0)


def test_kappa_critical_2d_values():
    h = np.pi / 32
    assert kappa_critical_2d(h**2 / 6.0, h) == 1.0
    assert kappa_critical_2d(h**2 / 10.0, h) == 1.0
    assert kappa_critical_2d(h**2 / 3.0, h) > 1.0
    with pytest.raises(ValueError):
        kappa_critical_2d(0.0, h)


def _max_root_modulus(dt: float, lam: np.ndarray) -> np.ndarray:
    # roots of 3 z^2 - (4 + 4 dt lam) z + (1 + 2 dt lam), in closed form per entry
    b = 2.0 + 2.0 * dt * lam
    disc = np.sqrt((b * b - 3.0 * (1.0 + 2.0 * dt * lam)).astype(complex))
    return np.maximum(np.abs(b + disc), np.abs(b - disc)) / 3.0


def test_closed_form_roots_match_recurrence_roots():
    dt, lams = 0.01, np.array([-1.0, -50.0, -150.0, -400.0, -1e4])
    want = [np.max(np.abs(recurrence_roots(dt, lam))) for lam in lams]
    assert np.allclose(_max_root_modulus(dt, lams), want, rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 48), st.floats(0.5, 64.0))
def test_retained_tensor_modes_stable_at_2d_critical_kappa(n, ratio):
    h = np.pi / n
    dt = ratio * h**2 / 6.0
    kappa = kappa_critical_2d(dt, h)
    k = np.arange(1, n)
    sig = sigma8(kappa * k / n)
    lam = laplacian_symbol(h, k)
    keep = np.outer(sig, sig) > 1e-12
    modulus = _max_root_modulus(dt, lam[:, np.newaxis] + lam[np.newaxis, :])
    assert np.max(modulus[keep], initial=0.0) <= 1.0 + 1e-12


def test_tensor_filter_separability():
    # on a field with zero edges the postprocess is the tensor filter alone,
    # and it factors into an x-filter and a y-filter
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(17, 17, 1))
    vals[0] = vals[-1] = 0.0
    vals[:, 0] = vals[:, -1] = 0.0
    u = Field(GRID, vals)
    kappa_x, kappa_y, none = 2.0, 1.5, 1e-12
    joint = postprocess_field(u, (kappa_x, kappa_y)).values
    both = postprocess_field(postprocess_field(u, (kappa_x, none)), (none, kappa_y)).values
    assert np.max(np.abs(joint - both)) < 1e-12


def test_tensor_filter_kills_mode_beyond_cutoff():
    # sigma(kappa k / N) = 0 along x alone removes the product mode
    u = Field(GRID, np.sin(8 * X) * np.sin(1 * Y))
    out = postprocess_field(u, (2.0, 2.0))
    assert np.max(np.abs(out.values)) < 1e-12


@pytest.mark.parametrize("field", [
    np.full_like(X, 3.0), np.cos(X) + np.cos(Y), np.cos(X) * np.cos(Y),
], ids=["constant", "cosx_plus_cosy", "cosx_cosy"])
def test_postprocess2d_cosines_unchanged(field):
    u = Field(GRID, field)
    out = postprocess_field(u, (3.0, 3.0))
    assert np.max(np.abs(out.values - u.values)) < 1e-10


def _dense_filter(n: int, kappa: float) -> np.ndarray:
    # sum_k sigma8(kappa k/n) sin(k x_i) (2/n) sin(k x_j) on the interior nodes,
    # with sigma8 written out as its polynomial in y = (1 + cos(pi xi)) / 2
    k = np.arange(1, n)
    xi = kappa * k / n
    y = 0.5 * (1.0 + np.cos(np.pi * np.minimum(xi, 1.0)))
    sig = np.where(xi < 1.0, (35.0 - 84.0 * y + 70.0 * y**2 - 20.0 * y**3) * y**4, 0.0)
    sines = np.sin(np.outer(np.arange(1, n), k) * np.pi / n)  # [node, mode]
    return (sines * sig) @ sines.T * (2.0 / n)


def _dense_trace_filter(trace: np.ndarray, kappa: float) -> np.ndarray:
    # first-order shift in closed form, dense filter, shift back; ends kept
    n = trace.shape[0] - 1
    cos = np.cos(np.linspace(0.0, np.pi, n + 1))[:, np.newaxis]
    a0, a1 = 0.5 * (trace[0] + trace[-1]), 0.5 * (trace[0] - trace[-1])
    out = trace.copy()
    out[1:-1] = _dense_filter(n, kappa) @ (trace - a0 - a1 * cos)[1:-1] + (a0 + a1 * cos)[1:-1]
    return out


# 260 x 16: x above MATRIX_MAX_N takes the DST path, y the matrix path
@pytest.mark.parametrize("nx, ny, m, kx, ky", [(24, 16, 2, 1.7, 2.3), (260, 16, 2, 2.9, 1.7)],
                         ids=["24x16", "260x16"])
def test_postprocess2d_matches_dense_tensor_oracle(nx, ny, m, kx, ky):
    grid = make_grid_2d(nx, ny)
    xs, ys = np.meshgrid(grid.nodes_x, grid.nodes_y, indexing="ij")
    rng = np.random.default_rng(11)
    u = rng.normal(size=(nx + 1, ny + 1, m)) + (np.cos(xs) * np.cos(2 * ys))[..., np.newaxis]
    got = postprocess_field(Field(grid, u), (kx, ky)).values

    g0, gpi = _dense_trace_filter(u[:, 0], kx), _dense_trace_filter(u[:, -1], kx)
    h0, hpi = _dense_trace_filter(u[0], ky), _dense_trace_filter(u[-1], ky)
    want = u.copy()
    want[:, 0], want[:, -1], want[0], want[-1] = g0, gpi, h0, hpi  # x-edges own the corners
    cx = np.cos(grid.nodes_x)[:, np.newaxis, np.newaxis]
    cy = np.cos(grid.nodes_y)[np.newaxis, :, np.newaxis]
    alpha0, alpha1 = 0.5 * (want[0] + want[-1]), 0.5 * (want[0] - want[-1])  # (Ny+1, m)
    v = want - alpha0 - alpha1 * cx
    beta0 = 0.5 * (v[:, 0] + v[:, -1])[:, np.newaxis]
    beta1 = 0.5 * (v[:, 0] - v[:, -1])[:, np.newaxis]
    w = v - beta0 - beta1 * cy
    fx, fy = _dense_filter(nx, kx), _dense_filter(ny, ky)
    out = np.zeros_like(u)
    for c in range(m):
        out[1:-1, 1:-1, c] = fx @ w[1:-1, 1:-1, c] @ fy.T
    out += alpha0 + alpha1 * cx + beta0 + beta1 * cy
    out[:, 0], out[:, -1], out[0], out[-1] = g0, gpi, h0, hpi
    assert np.max(np.abs(got - out)) < 1e-12


def test_postprocess2d_identity_at_tiny_kappa():
    u = Field(GRID, np.cos(X) * np.cos(2 * Y) + np.sin(X) * np.sin(Y))
    out = postprocess_field(u, (1e-9, 1e-9))
    assert np.max(np.abs(out.values - u.values)) < 1e-8


def test_postprocess2d_kills_high_tensor_mode():
    u = Field(GRID, np.sin(8 * X) * np.sin(8 * Y))
    out = postprocess_field(u, (2.0, 2.0))
    assert np.max(np.abs(out.values)) < 1e-10


def test_postprocess2d_preserves_filtered_boundary_exactly():
    # each edge is its trace run through the 1D postprocess with its own axis's kappa
    u = Field(GRID, np.cos(X) * np.cos(Y) + 0.1 * np.sin(3 * X) * np.sin(2 * Y))
    kappa = 2.5
    out = postprocess_field(u, (kappa, kappa)).values
    want_g0 = postprocess_field(Field(make_grid_1d(16), u.values[:, 0]), kappa).values
    assert np.array_equal(out[:, 0], want_g0)
    want_h0 = postprocess_field(Field(make_grid_1d(16), u.values[0, :]), kappa).values
    assert np.array_equal(out[0, :], want_h0)


def test_postprocess2d_takes_a_float_kappa_as_every_axis():
    u = Field(GRID, np.cos(X) * np.cos(Y) + 0.1 * np.sin(3 * X) * np.sin(2 * Y))
    assert np.array_equal(postprocess_field(u, 2.5).values, postprocess_field(u, (2.5, 2.5)).values)


@pytest.mark.parametrize("name, value", [
    ("uxx_at", lambda nodes: np.zeros((len(nodes), 1))),
    ("layout", make_layout(make_grid_1d(16), 2, 4)),
    ("kappa", (2.0,)),
], ids=["uxx_at", "layout", "kappa"])
def test_postprocess2d_rejects_by_name_what_a_2d_field_cannot_take(name, value):
    # the third-order shift and the strips are 1D; kappa needs one value per axis
    with pytest.raises(ValueError, match=f"^{name}: "):
        postprocess_field(Field.zeros(GRID), **{"kappa": (2.0, 2.0), name: value})


def test_boundary_sample_evaluates_g_on_each_edge():
    # a case's exact solution g is called once per edge, with the edge's node
    # array and its constant 0 or pi, so the two edges through a corner agree
    case = ManufacturedCase(lambda xy, t: xy[0] + 2.0 * xy[1] + t, lambda xy, t: 0.0)
    grid = make_grid_2d(8, 4)
    x, y = grid.nodes_x, grid.nodes_y
    edges = case.boundary(0.5, grid)
    want = {"g0": x + 0.5, "gpi": x + 2.0 * np.pi + 0.5,
            "h0": 2.0 * y + 0.5, "hpi": np.pi + 2.0 * y + 0.5}
    assert {key: vals.shape for key, vals in edges.items()} == {
        "g0": (9,), "gpi": (9,), "h0": (5,), "hpi": (5,)}
    for key, vals in want.items():
        assert np.array_equal(edges[key], vals), key
    Xg, Yg = np.meshgrid(x, y, indexing="ij")
    assert np.array_equal(case.exact_field(grid, 0.5).values[..., 0], Xg + 2.0 * Yg + 0.5)
    assert np.array_equal(case.initial(grid).values[..., 0], Xg + 2.0 * Yg)


@pytest.mark.parametrize("edge, m", [
    (np.zeros(3), 1),            # wrong length
    (np.zeros((17, 2)), 1),      # two components, one wanted
    (np.zeros((17, 1)), 2),      # one component, two wanted: it would broadcast
], ids=["length", "components_2_for_1", "components_1_for_2"])
def test_boundary_sample_rejects_an_edge_of_the_wrong_shape(edge, m):
    # the step checks every edge of the data it is given, a hand-built one too
    z = Field.zeros(GRID, m)
    edges = {**dict.fromkeys(EDGES[:3], np.zeros((17, m))), "hpi": edge}
    with pytest.raises(ValueError, match="^hpi: edge sample has shape"):
        step(z, z, zero_reaction(m), 0.0, 1e-4, edges)
