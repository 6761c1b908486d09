"""Overlapping strip layouts and the strip path of the postprocess."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter.bench import integrate, manufactured_heat_case, ratio_to_dt
from rdfilter.core import Field, make_grid_1d, zero_reaction
from rdfilter.ddm import MIN_INTERIOR_POINTS, SubdomainLayout, blend_weights, make_layout
from rdfilter import filtering
from rdfilter.filtering import MATRIX_MAX_N, kappa_critical, postprocess_field
from rdfilter.stepper import estimate_uxx, step

GRID = make_grid_1d(64)


def test_layout_single_subdomain():
    layout = make_layout(GRID, 1, 8)
    assert layout.ranges == ((0, 64),)


def test_layout_two_subdomains_overlap8():
    layout = make_layout(GRID, 2, 8)
    assert layout.ranges == ((0, 36), (28, 64))


def test_layout_invariants():
    grid = make_grid_1d(96)
    layout = make_layout(grid, 3, 6)
    assert layout.ranges[0][0] == 0 and layout.ranges[-1][1] == 96
    for (lo0, hi0), (lo1, _) in zip(layout.ranges, layout.ranges[1:]):
        assert hi0 - lo1 == 6
    for lo, hi in layout.ranges:
        assert hi - lo - 1 >= 8


def test_layout_rejects_infeasible():
    with pytest.raises(ValueError):
        make_layout(make_grid_1d(16), 4, 12)
    with pytest.raises(ValueError):
        make_layout(GRID, 2, 7)  # odd overlap
    with pytest.raises(ValueError):
        make_layout(GRID, 2, 0)


@pytest.mark.parametrize("key, args", [("n_subdomains", (2.0, 4)), ("overlap", (2, 4.0))])
def test_layout_takes_whole_counts_as_int_and_rejects_others_by_name(key, args):
    # a float overlap used to build float ranges, ((0, 34.0), (30.0, 64)),
    # on which postprocess_field failed slicing, and 2.0 strips failed in range()
    layout = make_layout(GRID, *args)
    assert layout.ranges == ((0, 34), (30, 64)) and layout.overlap == 4
    assert all(type(i) is int for r in layout.ranges for i in r) and type(layout.overlap) is int
    u = Field(GRID, np.cos(GRID.nodes))
    assert postprocess_field(u, 2.0, layout=layout).values.shape == (65, 1)
    # None used to raise a bare TypeError, '4.0' int()'s own "invalid literal",
    # 10**400 a bare OverflowError, and True was read as 1 (True strips built one)
    for value in (2.5 if key == "n_subdomains" else 4.5, None, "4", "4.0", 10**400, True,
                  False, np.bool_(True)):
        bad = (value, 4) if key == "n_subdomains" else (2, value)
        with pytest.raises(ValueError, match=f"^{key}: must be a whole number"):
            make_layout(GRID, *bad)
        with pytest.raises(ValueError, match=f"^{key}: must be a whole number"):
            SubdomainLayout(GRID, *bad)
    with pytest.raises(ValueError, match=f"^{key}: .*too large for a float"):
        SubdomainLayout(GRID, *((10**400, 4) if key == "n_subdomains" else (2, 10**400)))


@pytest.mark.parametrize("n_subdomains, overlap, match", [
    (2.5, 4, "^n_subdomains: must be a whole number"),
    (2, 66, "^overlap: infeasible layout: .*overlap=66 .*strips out of order"),
    (8, 10, "^overlap: infeasible layout: .*overlap=10 .*a strip may overlap only its neighbours"),
    (10, 2, "^n_subdomains: infeasible layout: .*n_subdomains=10, .*needs 8 interior points"),
    (1, -2, "^overlap: must be even and >= 2 between strips, >= 0 on one"),
    (2, 0, "^overlap: must be even and >= 2 between strips"),
], ids=["not_whole", "out_of_order", "non_neighbours", "few_interior_points",
        "negative_overlap", "no_overlap"])
def test_layout_rejects_each_broken_rule_by_name(n_subdomains, overlap, match):
    # each rule the computed strips can break: 2 strips with overlap 66 put
    # the second strip's start at -1, 8 strips with overlap 10 let strips 0
    # and 2 share nodes, and 10 strips leave the first with 6 interior points
    with pytest.raises(ValueError, match=match):
        SubdomainLayout(GRID, n_subdomains, overlap)


def test_layout_cannot_be_given_ranges():
    # the ranges used to be an input, checked against the overlap; they are
    # now computed from the counts, so a layout cannot be built from them
    with pytest.raises(ValueError, match="^n_subdomains: must be a whole number"):
        SubdomainLayout(GRID, ((0, 34), (30, 64)), 4)
    with pytest.raises(TypeError):
        SubdomainLayout(GRID, 2, 4, ranges=((0, 34), (30, 64)))


def test_blend_partition_of_unity():
    for nd, ov in [(2, 4), (4, 8), (3, 6)]:
        layout = make_layout(GRID, nd, ov)
        total = np.zeros(65)
        for (lo, hi), w in zip(layout.ranges, blend_weights(layout.ranges)):
            total[lo:hi + 1] += w
        assert np.max(np.abs(total - 1.0)) < 1e-14


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 256), st.integers(2, 6), st.sampled_from([2, 4, 6, 8, 12, 16, 32]))
def test_every_accepted_layout_blends_to_one(n, n_subdomains, overlap):
    grid = make_grid_1d(n)
    try:
        layout = make_layout(grid, n_subdomains, overlap)
    except ValueError:
        return
    ranges = layout.ranges
    assert len(ranges) == n_subdomains
    assert all(type(i) is int for r in ranges for i in r)
    assert ranges[0][0] == 0 and ranges[-1][1] == n  # cover 0..N in order
    for (lo0, hi0), (lo1, hi1) in zip(ranges, ranges[1:]):
        assert lo0 < lo1 and hi0 < hi1
        assert hi0 - lo1 == overlap  # neighbours share exactly the overlap
    for (_, hi0), (lo2, _) in zip(ranges, ranges[2:]):
        assert hi0 <= lo2  # non-neighbours share no interval; an end node weighs 0 in both
    for lo, hi in ranges:
        assert hi - lo - 1 >= MIN_INTERIOR_POINTS
    total = np.zeros(n + 1)
    for (lo, hi), w in zip(layout.ranges, blend_weights(layout.ranges)):
        total[lo:hi + 1] += w
    assert np.max(np.abs(total - 1.0)) < 1e-14


def test_layout_rejects_strips_that_share_nodes_with_non_neighbours():
    # N = 19 in four strips has cores of about 5 intervals: an overlap of 8
    # would let strips 0 and 2 share nodes
    with pytest.raises(ValueError, match="infeasible"):
        make_layout(make_grid_1d(19), 4, 8)
    assert make_layout(make_grid_1d(40), 4, 8).overlap == 8


def test_single_subdomain_matches_global_pipeline():
    rng = np.random.default_rng(4)
    vals = np.sin(np.outer(GRID.nodes, np.arange(1, 12))) @ rng.normal(size=11)
    vals += 0.4 + 0.7 * np.cos(GRID.nodes)
    u = Field(GRID, vals)
    kappa = 3.0
    layout = make_layout(GRID, 1, 8)
    got = postprocess_field(u, kappa, layout=layout).values
    assert np.array_equal(got, postprocess_field(u, kappa).values)  # the same code path


def test_cosine_unchanged_any_layout():
    u = Field(GRID, np.cos(GRID.nodes))
    kappa = 3.0
    for nd, ov in [(1, 4), (2, 4), (2, 8), (4, 8)]:
        layout = make_layout(GRID, nd, ov)
        out = postprocess_field(u, kappa, layout=layout)
        assert np.max(np.abs(out.values - u.values)) < 1e-10, (nd, ov)


def test_zero_field_maps_to_zero():
    layout = make_layout(GRID, 4, 8)
    out = postprocess_field(Field.zeros(GRID), 2.0, layout=layout)
    assert np.all(out.values == 0.0)


def test_third_order_local_shift_runs_and_blends():
    u = Field(GRID, (GRID.nodes / np.pi) ** 4 + np.cos(2 * GRID.nodes))
    layout = make_layout(GRID, 2, 8)
    out = postprocess_field(
        u, 1e-9, estimate_uxx(u, u, u, zero_reaction(), 0.1, 0.1), layout=layout,
    )
    # identity filter: the decomposition must reproduce the field
    assert np.max(np.abs(out.values - u.values)) < 1e-8


def test_integrate_1d_rejects_shift_order_2_even_unfiltered():
    with pytest.raises(ValueError, match="^shift_order: must be 1 or 3, got 2"):
        integrate(zero_reaction(), GRID, 0.01, 2, lambda t: (0.0, 0.0),
                  Field.zeros(GRID), shift_order=2, filter_on=False)
    # True used to run as order 1, and 2.5 to fail on the comparison only
    for bad in (True, np.True_, 2.5, "3"):
        with pytest.raises(ValueError, match="^shift_order: must be a whole number"):
            integrate(zero_reaction(), GRID, 0.01, 2, lambda t: (0.0, 0.0),
                      Field.zeros(GRID), shift_order=bad)


@pytest.mark.parametrize("key, value", [("shift_order", 3), ("layout", make_layout(GRID, 2, 8)),
                                        ("kappa_fraction", 5.0)])
def test_integrate_rejects_unfiltered_what_only_the_filter_reads(key, value):
    # each used to be ignored: the fields came out bit-identical
    run = partial(integrate, zero_reaction(), GRID, 0.01, 2, lambda t: (0.0, 0.0),
                  Field.zeros(GRID), filter_on=False)
    with pytest.raises(ValueError, match=f"^{key}: only a filtered run reads it"):
        run(**{key: value})
    assert run(kappa_fraction=1).stable


def test_postprocess_rejects_a_layout_of_another_grid():
    grid = make_grid_1d(128)
    u = Field(grid, np.sin(grid.nodes) + 0.1)
    with pytest.raises(ValueError, match="^layout: is for N=64, the field has N=128"):
        postprocess_field(u, 2.0, layout=make_layout(GRID, 2, 8))


def test_gibbs_perturbation_localized_at_interfaces():
    # smooth field: away from every interface the extra perturbation from
    # decomposing must stay within 10x the single-domain perturbation
    grid = make_grid_1d(128)
    x = grid.nodes
    u = Field(grid, np.exp(-((x - 1.2) ** 2)) + 0.5 * np.cos(x))
    kappa = 4.0
    layout = make_layout(grid, 4, 8)
    single = np.abs(postprocess_field(u, kappa).values - u.values)[:, 0]
    dd = np.abs(postprocess_field(u, kappa, layout=layout).values - u.values)[:, 0]
    interfaces = [lo for lo, _ in layout.ranges[1:]] + [hi for _, hi in layout.ranges[:-1]]
    dist = np.min(np.abs(np.subtract.outer(np.arange(129), interfaces)), axis=1)
    far = dist >= layout.overlap
    assert np.max(dd[far]) <= 10.0 * np.max(single[far]) + 1e-14


@pytest.mark.parametrize("shift_order", [1, 3])
@pytest.mark.parametrize("n, n_subdomains, overlap", [(64, 1, 0), (128, 4, 8), (256, 1, 0),
                                                      (256, 3, 8)])
def test_driver_matrix_path_matches_a_postprocess_field_loop(n, n_subdomains, overlap,
                                                             shift_order, monkeypatch):
    # at N <= MATRIX_MAX_N integrate's postprocess is P @ u + Q @ u_xx; the
    # loop below is the scheme with the DST path of postprocess_field after every step
    grid = make_grid_1d(n)
    layout = make_layout(grid, n_subdomains, overlap) if n_subdomains > 1 else None
    case = manufactured_heat_case()
    reaction, dt, n_steps = case.reaction(), ratio_to_dt(8.0, grid.h), 20
    kappa = kappa_critical(dt, grid.h)
    u0 = case.initial(grid)
    assert n <= MATRIX_MAX_N
    out = integrate(reaction, grid, dt, n_steps, case.boundary, u0,
                    shift_order=shift_order, layout=layout)
    monkeypatch.setattr(filtering, "MATRIX_MAX_N", 0)
    u_prev, u_curr = None, u0
    for k in range(n_steps):
        t_next = (k + 1) * dt
        u_new = step(u_curr, u_prev, reaction, k * dt, dt, case.boundary(t_next))
        uxx = None if u_prev is None or shift_order == 1 else estimate_uxx(
            u_new, u_curr, u_prev, reaction, dt, t_next)
        u_prev, u_curr = u_curr, postprocess_field(u_new, kappa, uxx, layout)
    assert out.stable and out.steps == n_steps
    scale = np.max(np.abs(u_curr.values))
    assert np.max(np.abs(out.field.values - u_curr.values)) <= 1e-12 * scale
