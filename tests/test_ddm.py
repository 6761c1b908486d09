"""Overlapping strip layouts and the strip path of the postprocess."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfilter.core import Field, make_grid_1d, zero_reaction
from rdfilter.ddm import blend_weights, make_layout
from rdfilter.filtering import FilterSpec, KappaMonitor, postprocess_field

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


def test_blend_partition_of_unity():
    for nd, ov in [(2, 4), (4, 8), (3, 6)]:
        layout = make_layout(GRID, nd, ov)
        total = np.zeros(65)
        for (lo, hi), w in zip(layout.ranges, blend_weights(layout)):
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
    total = np.zeros(n + 1)
    for (lo, hi), w in zip(layout.ranges, blend_weights(layout)):
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
    spec = FilterSpec(kappa=3.0)
    layout = make_layout(GRID, 1, 8)
    got = postprocess_field(u, spec, layout=layout).values
    want = postprocess_field(u, spec).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_cosine_unchanged_any_layout():
    u = Field(GRID, np.cos(GRID.nodes))
    spec = FilterSpec(kappa=3.0)
    for nd, ov in [(1, 4), (2, 4), (2, 8), (4, 8)]:
        layout = make_layout(GRID, nd, ov)
        out = postprocess_field(u, spec, layout=layout)
        assert np.max(np.abs(out.values - u.values)) < 1e-10, (nd, ov)


def test_zero_field_maps_to_zero():
    layout = make_layout(GRID, 4, 8)
    out = postprocess_field(Field.zeros(GRID), FilterSpec(kappa=2.0), layout=layout)
    assert np.all(out.values == 0.0)


def test_third_order_local_shift_runs_and_blends():
    u = Field(GRID, (GRID.nodes / np.pi) ** 4 + np.cos(2 * GRID.nodes))
    layout = make_layout(GRID, 2, 8)
    out = postprocess_field(
        u, FilterSpec(kappa=1e-9), shift_order=3,
        history=(u, u), reaction=zero_reaction(), dt=0.1, t_next=0.1, layout=layout,
    )
    # identity filter: the decomposition must reproduce the field
    assert np.max(np.abs(out.values - u.values)) < 1e-8


def test_third_order_requires_history():
    layout = make_layout(GRID, 2, 8)
    with pytest.raises(ValueError):
        postprocess_field(Field.zeros(GRID), FilterSpec(2.0), shift_order=3, layout=layout)


def test_gibbs_perturbation_localized_at_interfaces():
    # smooth field: away from every interface the extra perturbation from
    # decomposing must stay within 10x the single-domain perturbation
    grid = make_grid_1d(128)
    x = grid.nodes
    u = Field(grid, np.exp(-((x - 1.2) ** 2)) + 0.5 * np.cos(x))
    spec = FilterSpec(kappa=4.0)
    layout = make_layout(grid, 4, 8)
    single = np.abs(postprocess_field(u, spec).values - u.values)[:, 0]
    dd = np.abs(postprocess_field(u, spec, layout=layout).values - u.values)[:, 0]
    interfaces = [lo for lo, _ in layout.ranges[1:]] + [hi for _, hi in layout.ranges[:-1]]
    dist = np.min(np.abs(np.subtract.outer(np.arange(129), interfaces)), axis=1)
    far = dist >= layout.overlap
    assert np.max(dd[far]) <= 10.0 * np.max(single[far]) + 1e-14


def test_monitor_rejected_with_several_strips():
    u = Field(GRID, np.cos(GRID.nodes))
    spec = FilterSpec(kappa=3.0)
    with pytest.raises(ValueError, match="KappaMonitor"):
        postprocess_field(u, spec, monitor=KappaMonitor(3.0), layout=make_layout(GRID, 2, 8))
    one = postprocess_field(u, spec, monitor=KappaMonitor(3.0), layout=make_layout(GRID, 1, 8))
    assert np.array_equal(one.values, postprocess_field(u, spec, monitor=KappaMonitor(3.0)).values)

