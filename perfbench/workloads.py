"""The benchmark's four solver workloads.

Each workload builds its inputs from a seed (``setup``), runs one
integration or study through a public driver of ``rdfilter.bench``
(``solve``, the timed part), and checks the answer (``verify``, untimed).

The seed draws a perturbation of the initial data made only of sine modes k
with kappa * k / N > 1.  The filter factor of those modes is exactly 0, so
the first postprocess removes them and the heat workloads' errors do not
depend on the seed beyond roundoff.  ``dd_ladder`` builds its trial fields
inside ``bisect_max_stable_ratio`` and does not use the seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "rdfilter" / "__init__.py").is_file():
    raise ImportError(f"no rdfilter source tree at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from rdfilter import bench  # noqa: E402
from rdfilter.core import Field, Field2D, make_grid_1d, make_grid_2d  # noqa: E402
from rdfilter.ddm import make_layout  # noqa: E402
from rdfilter.filtering import kappa_critical  # noqa: E402
from rdfilter.solver2d import kappa_critical_2d  # noqa: E402

NOISE_MODES = 4
NOISE_AMPLITUDE = 1.0e-6
WARMUP_STEPS = 10
# err_linf may drift by reordered floating-point sums; 1 % is far above that
# drift and far below any change of scheme, shift order or filter.
ERR_RTOL = 1.0e-2

# Full sizes make one solve last about 0.5 to 1.6 s on a 2-core x86 box; smoke
# sizes exist for the benchmark's own test.  ``expected`` holds the answers
# recorded at the commit that introduced the benchmark.
CONFIGS = {
    "heat1d_large": {
        "full": {"N": 4096, "ratio": 8.0, "shift_order": 3, "n_steps": 500,
                 "expected": {"err_linf": 3.111666702082516e-09}},
        "smoke": {"N": 64, "ratio": 8.0, "shift_order": 3, "n_steps": 20,
                  "expected": {"err_linf": 7.689771200713152e-03}},
    },
    "predprey1d": {
        "full": {"N": 256, "ratio": 4.0, "shift_order": 1, "n_steps": 1000,
                 "expected": {"min_floor": 0.0}},
        "smoke": {"N": 32, "ratio": 4.0, "shift_order": 1, "n_steps": 20,
                  "expected": {"min_floor": 0.0}},
    },
    "dd_ladder": {
        "full": {"N": 128, "n_subdomains": 4, "overlaps": [4, 8], "resolution": 0.1,
                 "n_steps": 100, "expected": {"ratios": [64.0, 18.75, 39.1875]}},
        "smoke": {"N": 64, "n_subdomains": 2, "overlaps": [4], "resolution": 1.0,
                  "n_steps": 20, "expected": {"ratios": [64.0, 64.0]}},
    },
    "heat2d": {
        "full": {"N": 128, "dt_over_h2": 2.0 / 6.0, "n_steps": 300,
                 "expected": {"err_linf": 1.0654785608983364e-03}},
        "smoke": {"N": 16, "dt_over_h2": 2.0 / 6.0, "n_steps": 5,
                  "expected": {"err_linf": 8.670968691321546e-02}},
    },
}


def filtered_noise(rng: np.random.Generator, n_intervals: int, kappa: float,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode numbers k with kappa * k / N > 1 (filter factor exactly 0), and
    their amplitudes."""
    k_min = int(n_intervals / kappa) + 2
    if k_min >= n_intervals:
        raise ValueError(f"no filtered-out modes for N={n_intervals}, kappa={kappa}")
    modes = rng.integers(k_min, n_intervals, size=count)
    return modes, NOISE_AMPLITUDE * rng.standard_normal(count)


def sine_noise_1d(rng, n_intervals: int, kappa: float, m: int) -> np.ndarray:
    """(N+1, m) sum of filtered-out sine modes, one draw per component."""
    x = np.linspace(0.0, np.pi, n_intervals + 1)
    cols = []
    for _ in range(m):
        modes, amps = filtered_noise(rng, n_intervals, kappa, NOISE_MODES)
        cols.append(np.sin(np.outer(x, modes)) @ amps)
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class SeededPredatorPrey(bench.PredatorPreyCase):
    """The classical excited predator-prey case with seeded initial noise."""

    noise: np.ndarray | None = None

    def initial(self, grid):
        base = super().initial(grid)
        return base if self.noise is None else base.with_values(base.values + self.noise)


class Workload:
    """One workload: ``setup`` once, then ``solve`` and ``verify`` per unit."""

    name = ""

    def __init__(self, config: dict):
        self.config = config
        self.expected = config["expected"]

    def with_expected(self, **expected) -> "Workload":
        return type(self)({**self.config, "expected": {**self.expected, **expected}})

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def solve(self):
        raise NotImplementedError

    def verify(self, result) -> tuple[dict, list[str]]:
        """(answer summary, failed checks) of one solve."""
        raise NotImplementedError


def _err_check(err: float, expected: float, failures: list[str]) -> None:
    if not abs(err - expected) <= ERR_RTOL * expected:
        failures.append(f"err_linf {err:.6e} not within {ERR_RTOL:.0%} of {expected:.6e}")


class Heat1DLarge(Workload):
    """Manufactured heat1d case, third-order shift, kappa = kappa_c."""

    name = "heat1d_large"

    def setup(self, seed: int) -> None:
        c = self.config
        self.grid = make_grid_1d(c["N"])
        self.dt = bench.ratio_to_dt(c["ratio"], self.grid.h)
        self.case = bench.manufactured_heat_case()
        kappa = kappa_critical(self.dt, self.grid.h)
        noise = sine_noise_1d(np.random.default_rng(seed), c["N"], kappa, 1)
        base = self.case.initial(self.grid)
        self.u0 = base.with_values(base.values + noise)
        self._integrate(WARMUP_STEPS)

    def _integrate(self, n_steps: int):
        return bench.integrate_1d(self.case.reaction(), self.grid, self.dt, n_steps,
                                  self.case.boundary, self.u0,
                                  shift_order=self.config["shift_order"])

    def solve(self):
        return self._integrate(self.config["n_steps"])

    def verify(self, out):
        failures = []
        err = float("nan")
        if not out.stable:
            failures.append(f"unstable after {out.steps} steps: {out.failure}")
        else:
            exact = self.case.exact_field(self.grid, out.steps * self.dt)
            err = bench.error_norms(out.field, exact)[1]
            _err_check(err, self.expected["err_linf"], failures)
        return {"err_linf": err, "steps": out.steps}, failures


class PredPrey1D(Workload):
    """Classical predator-prey with excited boundaries (m = 2, nonlinear)."""

    name = "predprey1d"

    def setup(self, seed: int) -> None:
        c = self.config
        grid = make_grid_1d(c["N"])
        kappa = kappa_critical(bench.ratio_to_dt(c["ratio"], grid.h), grid.h)
        noise = sine_noise_1d(np.random.default_rng(seed), c["N"], kappa, 2)
        self.case = SeededPredatorPrey(noise=noise)
        self._run(WARMUP_STEPS)

    def _run(self, n_steps: int):
        c = self.config
        return bench.run_predator_prey(self.case, c["N"], c["ratio"], n_steps=n_steps,
                                       shift_order=c["shift_order"])

    def solve(self):
        return self._run(self.config["n_steps"])

    def verify(self, result):
        row, traj = result
        floor = self.expected["min_floor"]
        failures = []
        if not row.stable:
            failures.append(f"unstable after {row.steps} steps: {row.note}")
        if not (traj["min_u"] >= floor and traj["min_v"] >= floor):
            failures.append(f"min u {traj['min_u']:.4g}, min v {traj['min_v']:.4g} below {floor}")
        return {"min_u": traj["min_u"], "min_v": traj["min_v"], "steps": row.steps}, failures


class DDLadder(Workload):
    """Criterion-8 study: bisected maximal stable ratio per overlap."""

    name = "dd_ladder"

    def setup(self, seed: int) -> None:
        c = self.config
        grid = make_grid_1d(c["N"])
        dt = bench.ratio_to_dt(4.0, grid.h)
        u0 = Field(grid, np.sin(grid.nodes))
        for layout in (None, make_layout(grid, c["n_subdomains"], c["overlaps"][0])):
            bench.integrate_1d(bench.zero_reaction(), grid, dt, WARMUP_STEPS,
                               lambda t: (0.0, 0.0), u0, layout=layout)

    def solve(self):
        c = self.config
        return bench.run_dd_study(c["N"], c["n_subdomains"], tuple(c["overlaps"]),
                                  resolution=c["resolution"], n_steps=c["n_steps"])

    def verify(self, rows):
        ratios = [r.ratio for r in rows]
        expected = self.expected["ratios"]
        failures = []
        if len(ratios) != len(expected) or any(
                abs(r - e) > self.config["resolution"] for r, e in zip(ratios, expected)):
            failures.append(f"ratios {ratios} differ from {expected}")
        ladder = ratios[1:]
        if any(a > b + 1e-9 for a, b in zip(ladder, ladder[1:])):
            failures.append(f"ladder {ladder} not monotone")
        return {"ratios": ratios}, failures


class Heat2D(Workload):
    """Manufactured 2D heat case at twice the explicit step limit h^2/6."""

    name = "heat2d"

    def setup(self, seed: int) -> None:
        c = self.config
        self.grid = make_grid_2d(c["N"])
        self.dt = c["dt_over_h2"] * self.grid.hx**2
        x, y = self.grid.nodes_x, self.grid.nodes_y
        self.x, self.y = x[:, np.newaxis], y[np.newaxis, :]
        kappa = kappa_critical_2d(self.dt, self.grid.hx)
        rng = np.random.default_rng(seed)
        kx, amps = filtered_noise(rng, c["N"], kappa, NOISE_MODES)
        ky, _ = filtered_noise(rng, c["N"], kappa, NOISE_MODES)
        noise = np.einsum("im,jm,m->ij", np.sin(np.outer(x, kx)), np.sin(np.outer(y, ky)), amps)
        exact = bench.manufactured_heat_case_2d()["exact"]
        self.u0 = Field2D(self.grid, exact(self.x, self.y, 0.0) + noise)
        self._integrate(WARMUP_STEPS)

    def _integrate(self, n_steps: int):
        case = bench.manufactured_heat_case_2d()
        return bench.integrate_2d(case["reaction"], self.grid, self.dt, n_steps,
                                  case["bc"], self.u0)

    def solve(self):
        return self._integrate(self.config["n_steps"])

    def verify(self, out):
        failures = []
        err = float("nan")
        if not out.stable:
            failures.append(f"unstable after {out.steps} steps: {out.failure}")
        else:
            exact = bench.manufactured_heat_case_2d()["exact"]
            ref = exact(self.x, self.y, out.steps * self.dt)
            err = float(np.max(np.abs(out.field.values[..., 0] - ref)))
            _err_check(err, self.expected["err_linf"], failures)
        return {"err_linf": err, "steps": out.steps}, failures


WORKLOADS = {cls.name: cls for cls in (Heat1DLarge, PredPrey1D, DDLadder, Heat2D)}


def make(name: str, size: str = "full") -> Workload:
    return WORKLOADS[name](CONFIGS[name][size])
