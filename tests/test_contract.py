"""One input contract for the library's entry points, checked by two tables.

Each row of ``ROWS`` names an entry point, one of its keys and the values
that are invalid for that key; every such value must raise a ``ValueError``
(a ``ConfigError`` is one) whose message starts with the key.  A scalar key
takes its invalid values from ``BAD``, the values every key is tried with;
a key that takes a field, a layout or a sequence lists its own.  Every other
argument of a row is valid, so the key alone is at fault.

Each row of ``READ_ROWS`` names an optional key and one call where it
matters: at a value other than its default the call must give another
result, or raise naming the key.  So no optional key is silently ignored.

Out of scope: an argument of the wrong object type, say a float where a
``Field`` or a ``ReactionSystem`` belongs.  Duck typing raises
AttributeError there, and that is fine.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from rdfilter.bench import (
    PredatorPreyCase,
    bisect_max_stable_ratio,
    dd_layout,
    error_norms,
    integrate,
    manufactured_heat_case,
    ratio_to_dt,
    run_accuracy_sweep,
    run_case,
    run_dd_study,
    run_predator_prey,
    steps_to,
)
from rdfilter.core import Field, ReactionSystem, make_grid_1d, make_grid_2d, zero_reaction
from rdfilter.ddm import make_layout
from rdfilter.filtering import kappa_critical, postprocess_field
from rdfilter.solver2d import kappa_critical_2d
from rdfilter.stepper import estimate_uxx, step

BAD = {"True": True, "np.True_": np.True_, "nan": math.nan, "inf": math.inf, "-1": -1,
       "0": 0, "2.5": 2.5, "'3'": "3", "None": None, "10**400": 10**400}


def bad(*valid: str) -> dict:
    """The values of ``BAD`` but those named, which are valid for the key."""
    return {label: value for label, value in BAD.items() if label not in valid}


WHOLE = bad()  # a count: no value of BAD is one
POSITIVE = bad("2.5")  # a finite positive real
FLAG = bad("True", "np.True_")  # a bool

GRID = make_grid_1d(32)
U = Field(GRID, np.sin(GRID.nodes))
OTHER_GRID = {"field on N=16": Field.zeros(make_grid_1d(16)),
              "field with m=2": Field.zeros(GRID, 2)}
ZERO_BC = (0.0, 0.0)


def run(dt=1e-3, n_steps=2, shift_order=1, kappa_fraction=1.0, filter_on=True, u0=U,
        layout=None):
    return integrate(zero_reaction(), GRID, dt, n_steps, lambda t: ZERO_BC, u0,
                     shift_order=shift_order, filter_on=filter_on,
                     kappa_fraction=kappa_fraction, layout=layout)


def scored(dt=1e-3, n_steps=2, **options):
    return run_case(manufactured_heat_case(), GRID, dt, n_steps, **options)


ROWS = [
    ("make_grid_1d", "n_intervals", make_grid_1d, WHOLE),
    ("make_grid_2d", "n_intervals_x", lambda v: make_grid_2d(v, 8), WHOLE),
    ("make_grid_2d", "n_intervals_y", lambda v: make_grid_2d(8, v), bad("None")),  # square
    ("Field", "values", lambda v: Field(GRID, v),
     {"10 values": np.zeros(10), "(33, 2, 1) values": np.zeros((33, 2, 1)), "2.5": 2.5,
      "10**400": 10**400, "a string among them": ["x"] * 33}),
    ("ReactionSystem", "u_independent",
     lambda v: ReactionSystem(lambda x, t, u: u, lambda x, t, u: u, v), FLAG),
    ("step", "dt", lambda v: step(U, None, zero_reaction(), 0.0, v, ZERO_BC), POSITIVE),
    ("step", "u_prev", lambda v: step(U, v, zero_reaction(), 0.0, 1e-3, ZERO_BC), OTHER_GRID),
    ("step", "bc", lambda v: step(U, None, zero_reaction(), 0.0, 1e-3, v),
     {"one value": (0.0,), "None": None, "edge dict": {"g0": 0.0}}),
    ("estimate_uxx", "dt", lambda v: estimate_uxx(U, U, U, zero_reaction(), v, 0.0), POSITIVE),
    ("estimate_uxx", "u_curr", lambda v: estimate_uxx(U, v, U, zero_reaction(), 1e-3, 0.0),
     OTHER_GRID),
    ("estimate_uxx", "u_prev", lambda v: estimate_uxx(U, U, v, zero_reaction(), 1e-3, 0.0),
     OTHER_GRID),
    ("kappa_critical", "dt", lambda v: kappa_critical(v, 0.1), POSITIVE),
    ("kappa_critical", "h", lambda v: kappa_critical(1e-3, v), POSITIVE),
    ("kappa_critical_2d", "dt", lambda v: kappa_critical_2d(v, 0.1), POSITIVE),
    ("kappa_critical_2d", "h", lambda v: kappa_critical_2d(1e-3, v), POSITIVE),
    ("postprocess_field", "kappa", lambda v: postprocess_field(U, v),
     {**POSITIVE, "two axes on 1D": (2.0, 2.0)}),
    ("postprocess_field", "uxx", lambda v: postprocess_field(U, 2.0, v),
     {**OTHER_GRID, "2.5": 2.5}),
    ("postprocess_field", "layout",
     lambda v: postprocess_field(U, 2.0, layout=v), {"N=64": make_layout(make_grid_1d(64), 2, 8)}),
    ("make_layout", "n_subdomains", lambda v: make_layout(GRID, v, 4),
     {**WHOLE, "too many strips": 8}),
    ("make_layout", "overlap", lambda v: make_layout(GRID, 2, v),
     {**WHOLE, "odd": 3, "strips out of order": 34}),
    ("dd_layout", "overlap", lambda v: dd_layout(GRID, 2, v), {**WHOLE, "above the cap": 10}),
    ("integrate", "dt", lambda v: run(dt=v), POSITIVE),
    ("integrate", "n_steps", lambda v: run(n_steps=v), bad("0")),
    ("integrate", "shift_order", lambda v: run(shift_order=v), {**WHOLE, "2": 2}),
    ("integrate", "kappa_fraction", lambda v: run(kappa_fraction=v), POSITIVE),
    ("integrate", "filter_on", lambda v: run(filter_on=v), FLAG),
    ("integrate", "u0", lambda v: run(u0=v), {"field on N=16": OTHER_GRID["field on N=16"]}),
    ("integrate", "layout", lambda v: run(layout=v),
     {"N=64": make_layout(make_grid_1d(64), 2, 8)}),
    ("run_case", "dt", lambda v: scored(dt=v), POSITIVE),
    ("run_case", "n_steps", lambda v: scored(n_steps=v), bad("0")),
    ("run_case", "shift_order", lambda v: scored(shift_order=v), {**WHOLE, "2": 2}),
    ("run_case", "filter_on", lambda v: scored(filter_on=v), FLAG),
    ("run_case", "kappa_fraction", lambda v: scored(kappa_fraction=v), POSITIVE),
    ("ratio_to_dt", "ratio", lambda v: ratio_to_dt(v, 0.1), POSITIVE),
    ("ratio_to_dt", "h", lambda v: ratio_to_dt(1.0, v), POSITIVE),
    ("steps_to", "T", lambda v: steps_to(v, 1e-3), {**POSITIVE, "under two steps": 1e-3}),
    ("steps_to", "dt", lambda v: steps_to(1.0, v), POSITIVE),
    ("error_norms", "reference", lambda v: error_norms(U, v), OTHER_GRID),
    ("PredatorPreyCase", "base_level", lambda v: PredatorPreyCase(base_level=v), POSITIVE),
    ("PredatorPreyCase", "excited", lambda v: PredatorPreyCase(excited=v), FLAG),
    ("PredatorPreyCase", "sign_variant", lambda v: PredatorPreyCase(sign_variant=v), BAD),
    ("run_predator_prey", "ratio", lambda v: run_predator_prey(PredatorPreyCase(), 32, v, 2),
     POSITIVE),
    ("run_accuracy_sweep", "T",
     lambda v: run_accuracy_sweep(manufactured_heat_case(), (32,), (1.0,), (1,), T=v),
     POSITIVE),
    ("run_accuracy_sweep", "grid_sizes",
     lambda v: run_accuracy_sweep(manufactured_heat_case(), v, (1.0,), (1,)),
     {"a bare 8": 8, "a bare 1.0": 1.0, "None": None, "N=2": (2,), "N=2.5": (2.5,)}),
    ("run_accuracy_sweep", "ratios",
     lambda v: run_accuracy_sweep(manufactured_heat_case(), (32,), v, (1,)),
     {"a bare 8": 8, "a bare 1.0": 1.0, "None": None}),
    ("run_accuracy_sweep", "shift_orders",
     lambda v: run_accuracy_sweep(manufactured_heat_case(), (32,), (1.0,), v),
     {"a bare 1": 1, "a bare 1.0": 1.0, "None": None, "1 and 2": (1, 2), "True": (True,),
      "2.5": (2.5,)}),
    ("bisect_max_stable_ratio", "resolution",
     lambda v: bisect_max_stable_ratio(GRID, None, v, n_steps=2), POSITIVE),
    ("bisect_max_stable_ratio", "n_steps",
     lambda v: bisect_max_stable_ratio(GRID, None, 1.0, n_steps=v), {**WHOLE, "1": 1}),
    ("run_dd_study", "n_steps", lambda v: run_dd_study(32, 2, (4,), n_steps=v), WHOLE),
    ("run_dd_study", "n_subdomains", lambda v: run_dd_study(32, v, (4,)), WHOLE),
    ("run_dd_study", "overlaps", lambda v: run_dd_study(32, 2, v),
     {"a bare width": 4, "None": None}),
]

CASES = [pytest.param(call, key, value, id=f"{entry}-{key}-{label}")
         for entry, key, call, values in ROWS for label, value in values.items()]


@pytest.mark.parametrize("call, key, value", CASES)
def test_an_invalid_value_is_rejected_by_its_key(call, key, value):
    with pytest.raises(ValueError, match=f"^{key}: "):
        call(value)


# ---------------------------------------------------------------------------
# Every optional key is read.

CASE = manufactured_heat_case()
RATIO_4 = ratio_to_dt(4.0, GRID.h)  # above the explicit limit: the filter acts


def heat(**options):
    """The final field of 4 steps of the manufactured heat case at ratio 4."""
    return integrate(CASE.reaction(), GRID, RATIO_4, 4, CASE.boundary, CASE.initial(GRID),
                     **options).field


def sweep(**options):
    return run_accuracy_sweep(CASE, (32,), (2.0,), (1,), **options)


V = CASE.initial(GRID)
V_XX = Field(GRID, 12 * GRID.nodes**2 / np.pi**4 - 9 * np.cos(3 * GRID.nodes))

# (entry point, key, a call that passes the key its argument, a value other than
# the default)
READ_ROWS = [
    (integrate, "shift_order", lambda v: heat(shift_order=v), 3),
    (integrate, "filter_on", lambda v: heat(filter_on=v), False),
    (integrate, "kappa_fraction", lambda v: heat(kappa_fraction=v), 2.0),
    (integrate, "layout", lambda v: heat(layout=v), make_layout(GRID, 2, 8)),
    (postprocess_field, "uxx", lambda v: postprocess_field(V, 2.0, v), V_XX),
    (postprocess_field, "layout", lambda v: postprocess_field(V, 2.0, layout=v),
     make_layout(GRID, 2, 8)),
    (run_accuracy_sweep, "T", lambda v: sweep(T=v), 0.5),
    (run_accuracy_sweep, "filter_on", lambda v: sweep(filter_on=v), False),
    (run_accuracy_sweep, "kappa_fraction", lambda v: sweep(kappa_fraction=v), 2.0),
    (run_dd_study, "resolution", lambda v: run_dd_study(32, 2, (4,), resolution=v), 4.0),
    (run_dd_study, "n_steps", lambda v: run_dd_study(32, 2, (4,), n_steps=v), 20),
]


def fingerprint(result):
    """Bytes that differ when two results differ: a field's values, or the
    rows of a study with their wall-clock times and step counts zeroed (a row
    that only reports its ``n_steps`` is no proof that the trials read it)."""
    if isinstance(result, Field):
        return result.values.tobytes()
    return repr([dataclasses.replace(row, wall_ms=0.0, steps=0) for row in result])


def test_read_rows_cover_every_optional_key_of_their_entry_points():
    for entry in {entry for entry, *_ in READ_ROWS}:
        optional = {name for name, p in inspect.signature(entry).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        assert optional == {key for e, key, *_ in READ_ROWS if e is entry}, entry.__name__


@pytest.mark.parametrize("entry, key, call, value", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[1]}") for row in READ_ROWS])
def test_an_optional_key_changes_the_result_or_is_rejected(entry, key, call, value):
    default = inspect.signature(entry).parameters[key].default
    assert value != default
    try:
        other = call(value)
    except ValueError as err:
        assert str(err).startswith(f"{key}: "), err
        return
    assert fingerprint(other) != fingerprint(call(default))
