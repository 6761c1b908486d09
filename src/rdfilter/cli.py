"""Command-line front end: experiment selection, flat key=value configuration,
CSV emission.  Subcommands: run, sweep, dd, selftest.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a blow-up
in a ``run`` invocation; sweeps record failures instead of failing).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import bench
from .core import Field, make_grid_1d, make_grid_2d
from .ddm import make_layout

CSV_HEADER = "N,dt,ratio,shift_order,kappa,n_subdomains,overlap,err_l2,err_linf,stable,steps,wall_ms"

DEFAULT_RATIOS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT_OVERLAPS = (4, 8, 16)
PROBLEMS = ("heat1d", "predprey1d", "heat2d")
SIGN_VARIANTS = ("printed", "classical")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: str = "heat1d"
    N: int = 64
    N_y: int | None = None
    ratio: float | None = None
    dt: float | None = None
    T: float = 1.0
    shift_order: int = 1
    filter: str = "on"
    kappa_fraction: float = 1.0
    kappa_adapt: bool = False
    n_subdomains: int = 1
    overlap: int = 8
    output: str = "results.csv"
    ratios: tuple = DEFAULT_RATIOS
    grid_sizes: tuple = ()
    overlaps: tuple = DEFAULT_OVERLAPS
    timing: bool = True
    sign_variant: str = "classical"
    base_level: float = 1.0
    excited: bool = True

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem: unknown value {self.problem!r}")
        if self.ratio is not None and self.dt is not None:
            raise ConfigError("ratio/dt: exactly one of ratio and dt may be given")
        if self.ratio is None and self.dt is None:
            self.ratio = 1.0
        for key in ("ratio", "dt", "T", "kappa_fraction", "base_level"):
            _require_positive(key, getattr(self, key))
        for value in self.ratios:
            _require_positive("ratios", value)
        if self.shift_order not in (1, 3):
            raise ConfigError("shift_order: must be 1 or 3")
        if self.problem == "heat2d" and self.shift_order == 3:
            raise ConfigError("shift_order: third-order shifts are 1D-only")
        if self.filter not in ("on", "off"):
            raise ConfigError("filter: must be 'on' or 'off'")
        if self.sign_variant not in SIGN_VARIANTS:
            raise ConfigError("sign_variant: must be 'printed' or 'classical'")
        if self.N < 4:
            raise ConfigError("N: must be >= 4")
        if self.N_y is not None and self.N_y < 4:
            raise ConfigError("N_y: must be >= 4")
        if self.n_subdomains < 1:
            raise ConfigError("n_subdomains: must be >= 1")
        # Reject what no driver would read rather than run without it.
        if self.kappa_adapt and (self.n_subdomains > 1 or self.problem == "heat2d"):
            raise ConfigError("kappa_adapt: only single-domain 1D runs adapt kappa")
        if not self.grid_sizes:
            self.grid_sizes = (self.N,)

    @property
    def filter_on(self) -> bool:
        return self.filter == "on"

    def resolve_dt(self, h: float) -> float:
        if self.dt is not None:
            return self.dt
        return bench.ratio_to_dt(self.ratio, h)


def _require_positive(key: str, value: float | None) -> None:
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key}: must be finite and positive, got {value!r}")


_BOOL_KEYS = {"kappa_adapt", "timing", "excited"}
_INT_KEYS = {"N", "N_y", "shift_order", "n_subdomains", "overlap"}
_FLOAT_KEYS = {"ratio", "dt", "T", "kappa_fraction", "base_level"}
_LIST_KEYS = {"ratios", "grid_sizes", "overlaps"}

# The keys each subcommand reads, ``run`` per problem.  Any other key must keep
# its default: the command would run without it and write the same output.
_OUTPUT = {"output", "timing"}
_RUN = _OUTPUT | {"problem", "N", "ratio", "dt", "T", "shift_order", "filter",
                  "kappa_fraction"}
_RUN_1D = _RUN | {"kappa_adapt", "n_subdomains", "overlap"}
_READS = {
    "run --problem heat1d": _RUN_1D,
    "run --problem predprey1d": _RUN_1D | {"sign_variant", "base_level", "excited"},
    "run --problem heat2d": _RUN | {"N_y"},
    "sweep": _OUTPUT | {"N", "grid_sizes", "ratios", "T", "shift_order", "filter",
                        "kappa_fraction"},
    "dd": _OUTPUT | {"N", "n_subdomains", "overlaps"},
    "selftest": set(),
}


def _coerce(key: str, raw: str):
    try:
        if key in _BOOL_KEYS:
            if raw.lower() in ("1", "true", "on", "yes"):
                return True
            if raw.lower() in ("0", "false", "off", "no"):
                return False
            raise ValueError(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _LIST_KEYS:
            parts = [p for p in raw.replace(",", " ").split() if p]
            return tuple(int(p) if key != "ratios" else float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc


def parse_config(text: str | None = None, overrides: dict | None = None,
                 command: str | None = None) -> RunConfig:
    """Build a RunConfig from flat ``key=value`` lines plus flag overrides.

    Flags override file values.  Unknown keys are rejected by name, and so,
    given the subcommand, is a non-default value for a key it does not read
    (compared as given, before ``RunConfig`` fills in ``ratio`` and
    ``grid_sizes``).  A key read only under a condition (``overlap`` needs
    ``n_subdomains`` > 1, ``N`` in ``sweep`` needs no ``grid_sizes``) is
    rejected whenever it is given and the condition does not hold.
    """
    known = {f.name for f in dc_fields(RunConfig)}
    values: dict = {}
    if text:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{key}: unknown configuration key")
            values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration key")
        values[key] = _coerce(key, val) if isinstance(val, str) else val
    cfg = RunConfig(**values)
    if command is not None:
        name = f"run --problem {cfg.problem}" if command == "run" else command
        defaults = {f.name: f.default for f in dc_fields(RunConfig)}
        unread = {}  # keys the subcommand reads only under a condition
        if cfg.n_subdomains == 1 and "overlap" in _READS[name]:
            unread["overlap"] = " with n_subdomains 1"
        if command == "sweep" and values.get("grid_sizes"):
            unread["N"] = " when grid_sizes is given"
        for key, value in values.items():
            if key in unread or (key not in _READS[name] and value != defaults[key]):
                raise ConfigError(f"{key}: rdfilter {name} does not read it"
                                  + unread.get(key, ""))
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(rows, path, timing: bool = True) -> None:
    """Write sweep rows with the fixed header; 17-significant-digit decimals,
    newline-terminated, deterministic ordering.  With ``timing`` off the
    wall_ms column is zeroed so identical configs give identical bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        wall = r.wall_ms if timing else 0.0
        lines.append(",".join([
            _fmt(r.N), _fmt(float(r.dt)), _fmt(float(r.ratio)), _fmt(r.shift_order),
            _fmt(float(r.kappa)), _fmt(r.n_subdomains), _fmt(r.overlap),
            _fmt(float(r.err_l2)), _fmt(float(r.err_linf)), _fmt(bool(r.stable)),
            _fmt(r.steps), _fmt(float(wall)),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path) -> list[bench.SweepRow]:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header in {path}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append(bench.SweepRow(
            N=int(f[0]), dt=float(f[1]), ratio=float(f[2]), shift_order=int(f[3]),
            kappa=float(f[4]), n_subdomains=int(f[5]), overlap=int(f[6]),
            err_l2=float(f[7]), err_linf=float(f[8]), stable=f[9] == "true",
            steps=int(f[10]), wall_ms=float(f[11]),
        ))
    return rows


# ---------------------------------------------------------------------------
# Subcommand implementations

def _cmd_run(cfg: RunConfig) -> int:
    if cfg.problem in ("heat1d", "predprey1d"):
        grid = make_grid_1d(cfg.N)
        dt = cfg.resolve_dt(grid.h)
        n_steps = max(2, round(cfg.T / dt))
        layout = make_layout(grid, cfg.n_subdomains, cfg.overlap) if cfg.n_subdomains > 1 else None
        if cfg.problem == "heat1d":
            case = bench.manufactured_heat_case()
        else:
            case = bench.PredatorPreyCase(
                u_left=cfg.base_level, u_right=cfg.base_level,
                v_left=cfg.base_level, v_right=cfg.base_level,
                excited=cfg.excited, sign_variant=cfg.sign_variant)
        out = bench.integrate_1d(case.reaction(), grid, dt, n_steps,
                                 case.boundary, case.initial(grid),
                                 shift_order=cfg.shift_order,
                                 filter_on=cfg.filter_on,
                                 kappa_fraction=cfg.kappa_fraction,
                                 kappa_adapt=cfg.kappa_adapt, layout=layout)
        err_l2 = err_linf = float("nan")
        if out.stable and cfg.problem == "heat1d":
            ref = case.exact_field(grid, n_steps * dt)
            err_l2, err_linf = bench.error_norms(out.field, ref)
        row = bench.SweepRow(cfg.N, dt, 3.0 * dt / grid.h**2, cfg.shift_order,
                             out.kappa, cfg.n_subdomains,
                             cfg.overlap if cfg.n_subdomains > 1 else 0,
                             err_l2, err_linf, out.stable, out.steps, out.wall_ms)
    else:
        ny = cfg.N_y or cfg.N
        grid = make_grid_2d(cfg.N, ny)
        dt = cfg.resolve_dt(grid.hx)
        n_steps = max(2, round(cfg.T / dt))
        case = bench.manufactured_heat_case_2d()
        x, y = grid.nodes_x, grid.nodes_y
        u0 = Field(grid, case["exact"](x[:, np.newaxis], y[np.newaxis, :], 0.0))
        out = bench.integrate_2d(case["reaction"], grid, dt, n_steps, case["bc"],
                                 u0, filter_on=cfg.filter_on,
                                 kappa_fraction=cfg.kappa_fraction)
        if out.stable:
            exact = case["exact"](x[:, np.newaxis], y[np.newaxis, :], n_steps * dt)
            err_l2, err_linf = bench.error_norms(out.field, Field(grid, exact))
        else:
            err_l2 = err_linf = float("nan")
        row = bench.SweepRow(cfg.N, dt, 3.0 * dt / grid.hx**2, cfg.shift_order,
                             out.kappa, 1, 0, err_l2, err_linf, out.stable,
                             out.steps, out.wall_ms)

    emit_csv([row], cfg.output, timing=cfg.timing)
    status = "stable" if row.stable else "BLOW-UP"
    print(f"{cfg.problem}: N={row.N} ratio={row.ratio:.4g} steps={row.steps} "
          f"{status} err_linf={row.err_linf:.4g} -> {cfg.output}")
    return 0 if row.stable else 2


def _cmd_sweep(cfg: RunConfig) -> int:
    case = bench.manufactured_heat_case()
    rows = bench.run_accuracy_sweep(case, cfg.grid_sizes, cfg.ratios,
                                    [cfg.shift_order], T=cfg.T,
                                    filter_on=cfg.filter_on,
                                    kappa_fraction=cfg.kappa_fraction)
    emit_csv(rows, cfg.output, timing=cfg.timing)
    n_stable = sum(r.stable for r in rows)
    print(f"sweep: {len(rows)} runs, {n_stable} stable -> {cfg.output}")
    return 0


def _cmd_dd(cfg: RunConfig) -> int:
    rows = bench.run_dd_study(cfg.N, cfg.n_subdomains, cfg.overlaps)
    emit_csv(rows, cfg.output, timing=cfg.timing)
    for r in rows:
        tag = f"N_d={r.n_subdomains} overlap={r.overlap}"
        print(f"dd: {tag:24s} max stable ratio = {r.ratio:.2f} {r.note}")
    return 0


def _cmd_selftest(cfg: RunConfig) -> int:
    from .selftest import run_selftest

    return run_selftest()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfilter",
        description="Stabilized explicit reaction-diffusion solver benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "run": "single integration (exit 2 on blow-up)",
        "sweep": "accuracy study over step ratios",
        "dd": "overlapping-subdomain stability study",
        "selftest": "quick invariant suite",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value configuration file")
        p.add_argument("--problem", choices=PROBLEMS,
                       default=None, help="test problem (default heat1d)")
        p.add_argument("--N", default=None, help="grid intervals (default 64)")
        p.add_argument("--N-y", dest="N_y", default=None,
                       help="grid intervals in y for 2D (default N)")
        p.add_argument("--ratio", default=None,
                       help="normalized step 3*dt/h^2 (default 1; exclusive with --dt)")
        p.add_argument("--dt", default=None, help="time step (exclusive with --ratio)")
        p.add_argument("--T", default=None, help="final time (default 1)")
        p.add_argument("--shift-order", dest="shift_order", default=None,
                       help="1 or 3 (default 1; 3 is 1D-only)")
        p.add_argument("--filter", choices=["on", "off"], default=None,
                       help="postprocess filter (default on)")
        p.add_argument("--kappa-fraction", dest="kappa_fraction", default=None,
                       help="kappa = fraction * kappa_c (default 1.0)")
        p.add_argument("--kappa-adapt", dest="kappa_adapt", default=None,
                       help="adapt kappa from high-mode growth; single-domain 1D "
                            "runs only (default false)")
        p.add_argument("--n-subdomains", dest="n_subdomains", default=None,
                       help="overlapping strips for the postprocess (default 1)")
        p.add_argument("--overlap", default=None,
                       help="overlap width in intervals, even (default 8)")
        p.add_argument("--output", default=None, help="CSV path (default results.csv)")
        p.add_argument("--ratios", default=None,
                       help="comma list of ratios for sweep (default 0.25..8)")
        p.add_argument("--grid-sizes", dest="grid_sizes", default=None,
                       help="comma list of N values for sweep (default N)")
        p.add_argument("--overlaps", default=None,
                       help="comma list of overlaps for dd (default 4,8,16)")
        p.add_argument("--no-timing", dest="timing", action="store_const", const=False,
                       default=None, help="zero the wall_ms column (byte-reproducible CSV)")
        p.add_argument("--sign-variant", dest="sign_variant",
                       choices=SIGN_VARIANTS, default=None,
                       help="predator-prey v-equation signs (default classical)")
        p.add_argument("--base-level", dest="base_level", default=None,
                       help="predator-prey boundary base level (default 1.0)")
        p.add_argument("--excited", default=None,
                       help="periodic boundary excitation (default true)")
    return parser


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "dd": _cmd_dd,
             "selftest": _cmd_selftest}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.config.read_text() if args.config else None
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = parse_config(text, overrides, args.command)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
