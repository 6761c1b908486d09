"""Command-line front end: experiment selection, flat key=value configuration,
CSV emission.  Subcommands: run, sweep, dd, selftest.

``RunConfig``'s fields are the one schema of the configuration.  Each field
gives a config key, a flag (the key with ``_`` -> ``-``, except ``timing``,
whose flag is ``--no-timing``), its help text and choices (the field's
metadata) and how a value is parsed (the field's type).  ``_READS`` lists the
keys each subcommand reads.  The CSV columns are ``SweepRow``'s fields but
``note``.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (a blow-up
in a ``run`` invocation; sweeps record failures instead of failing).
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

from . import bench
from .core import ConfigError, make_grid_1d, make_grid_2d, require_positive
from .ddm import make_layout
from .selftest import run_selftest

DEFAULT_RATIOS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT_OVERLAPS = (4, 8, 16)
PROBLEMS = ("heat1d", "predprey1d", "heat2d")
SIGN_VARIANTS = ("printed", "classical")


def _key(default, help_text: str, **flag):
    """A configuration key: its default, and its flag's help text plus any
    other ``add_argument`` keywords (``flag`` replaces the flag's name)."""
    return field(default=default, metadata={"help": help_text, **flag})


@dataclass
class RunConfig:
    problem: str = _key("heat1d", "test problem (default heat1d)", choices=PROBLEMS)
    N: int = _key(64, "grid intervals (default 64)")
    ratio: float | None = _key(
        None, "normalized step 3*dt/h^2 (default 1; exclusive with --dt)")
    dt: float | None = _key(None, "time step (exclusive with --ratio)")
    T: float = _key(1.0, "final time (default 1)")
    shift_order: int = _key(1, "1 or 3 (default 1; 3 is 1D-only)")
    filter: str = _key("on", "postprocess filter (default on)", choices=("on", "off"))
    kappa_fraction: float = _key(1.0, "kappa = fraction * kappa_c (default 1.0)")
    n_subdomains: int = _key(1, "overlapping strips for the postprocess (default 1)")
    overlap: int = _key(8, "overlap width in intervals, even (default 8)")
    output: str = _key("results.csv", "CSV path (default results.csv)")
    ratios: tuple[float, ...] = _key(DEFAULT_RATIOS,
                                     "comma list of ratios for sweep (default 0.25..8)")
    grid_sizes: tuple[int, ...] = _key((), "comma list of N values for sweep (default N)")
    overlaps: tuple[int, ...] = _key(DEFAULT_OVERLAPS,
                                     "comma list of overlaps for dd (default 4,8,16)")
    timing: bool = _key(True, "zero the wall_ms column (byte-reproducible CSV)",
                        flag="--no-timing", action="store_const", const=False)
    sign_variant: str = _key("classical", "predator-prey v-equation signs (default classical)",
                             choices=SIGN_VARIANTS)
    base_level: float = _key(1.0, "predator-prey boundary base level (default 1.0)")
    excited: bool = _key(True, "periodic boundary excitation (default true)")

    def __post_init__(self):
        for f in dc_fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{f.name}: unknown value {value!r}, expected one of "
                                  + ", ".join(choices))
        if self.ratio is not None and self.dt is not None:
            raise ConfigError("ratio/dt: exactly one of ratio and dt may be given")
        if self.ratio is None and self.dt is None:
            self.ratio = 1.0
        scalars = ("ratio", "dt", "T", "kappa_fraction", "base_level")
        positive = [(k, getattr(self, k)) for k in scalars] + [("ratios", v) for v in self.ratios]
        for key, value in positive:
            if value is not None:
                require_positive(key, value, ConfigError)
        for key in ("ratios", "overlaps"):
            if not getattr(self, key):
                raise ConfigError(f"{key}: must list at least one value")
        if self.shift_order not in (1, 3):
            raise ConfigError("shift_order: must be 1 or 3")
        for key, sizes in (("N", (self.N,)), ("grid_sizes", self.grid_sizes)):
            if any(n < 4 for n in sizes):
                raise ConfigError(f"{key}: must be >= 4")
        if self.n_subdomains < 1:
            raise ConfigError("n_subdomains: must be >= 1")
        if not self.grid_sizes:
            self.grid_sizes = (self.N,)

    @property
    def filter_on(self) -> bool:
        return self.filter == "on"

    def resolve_dt(self, h: float) -> float:
        return self.dt if self.dt is not None else bench.ratio_to_dt(self.ratio, h)


_TYPES = typing.get_type_hints(RunConfig)
_BOOLS = {"1": True, "true": True, "on": True, "yes": True,
          "0": False, "false": False, "off": False, "no": False}

# The keys each subcommand reads, ``run`` per problem.  Any other key must keep
# its default: the command would run without it and write the same output.
_OUTPUT = {"output", "timing"}
_RUN = _OUTPUT | {"problem", "N", "ratio", "dt", "T", "filter", "kappa_fraction"}
_RUN_1D = _RUN | {"shift_order", "n_subdomains", "overlap"}
_READS = {
    "run --problem heat1d": _RUN_1D,
    "run --problem predprey1d": _RUN_1D | {"sign_variant", "base_level", "excited"},
    "run --problem heat2d": _RUN,
    "sweep": _OUTPUT | {"N", "grid_sizes", "ratios", "T", "shift_order", "filter",
                        "kappa_fraction"},
    "dd": _OUTPUT | {"N", "n_subdomains", "overlaps"},
    "selftest": set(),
}
# The keys only the postprocess reads: ``filter`` off leaves them unread.
_FILTER_KEYS = {"shift_order", "kappa_fraction", "n_subdomains", "overlap"}


def _coerce(key: str, raw: str):
    """Parse ``raw`` as the type of ``RunConfig.<key>``: a bool, a number or a
    string (``X | None`` parses as ``X``), or a tuple of numbers separated by
    commas or spaces."""
    kind = _TYPES[key]
    args = typing.get_args(kind)
    try:
        if typing.get_origin(kind) is tuple:
            return tuple(args[0](p) for p in raw.replace(",", " ").split())
        kind = args[0] if args else kind
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc


def parse_config(text: str | None = None, overrides: dict | None = None,
                 command: str | None = None) -> RunConfig:
    """Build a RunConfig from flat ``key=value`` lines plus flag overrides.

    Flags override file values.  Unknown keys are rejected by name, and so,
    given the subcommand, is a non-default value for a key it does not read
    (compared as given, before ``RunConfig`` fills in ``ratio`` and
    ``grid_sizes``).  A key read only under a condition (``overlap`` needs
    ``n_subdomains`` > 1, ``N`` in ``sweep`` needs no ``grid_sizes``) is
    rejected whenever it is given and the condition does not hold, and so is
    every key of the postprocess with ``filter`` off, and ``n_subdomains`` 1 in
    ``dd``.  Each command's own build checks its strip layouts before it runs.
    """
    pairs = []
    for lineno, line in enumerate((text or "").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        pairs.append([part.strip() for part in line.split("=", 1)])
    pairs += [(key, val) for key, val in (overrides or {}).items() if val is not None]
    values: dict = {}
    for key, val in pairs:
        if key not in _TYPES:
            raise ConfigError(f"{key}: unknown configuration key")
        values[key] = _coerce(key, val) if isinstance(val, str) else val
    cfg = RunConfig(**values)
    if command is not None:
        name = f"run --problem {cfg.problem}" if command == "run" else command
        defaults = {f.name: f.default for f in dc_fields(RunConfig)}
        unread = {}  # keys the subcommand reads only under a condition
        if cfg.n_subdomains == 1 and "overlap" in _READS[name]:
            unread["overlap"] = " with n_subdomains 1"
        if not cfg.filter_on:
            unread.update(dict.fromkeys(_FILTER_KEYS & _READS[name], " with filter off"))
        if command == "sweep" and values.get("grid_sizes"):
            unread["N"] = " when grid_sizes is given"
        for key, value in values.items():
            if key in unread or (key not in _READS[name] and value != defaults[key]):
                raise ConfigError(f"{key}: rdfilter {name} does not read it"
                                  + unread.get(key, ""))
        if command == "dd" and cfg.n_subdomains == 1:
            raise ConfigError("n_subdomains: rdfilter dd needs n_subdomains >= 2")
    return cfg


# The CSV columns: SweepRow's fields but ``note``, each cast to its field's type.
_ROW_TYPES = typing.get_type_hints(bench.SweepRow)
_COLUMNS = {f.name: _ROW_TYPES[f.name] for f in dc_fields(bench.SweepRow) if f.name != "note"}
CSV_HEADER = ",".join(_COLUMNS)
_FORMATS = {bool: lambda v: "true" if v else "false", float: lambda v: format(v, ".17g")}


def emit_csv(rows, path, timing: bool = True) -> None:
    """Write sweep rows with the fixed header; 17-significant-digit decimals,
    newline-terminated, deterministic ordering.  With ``timing`` off the
    wall_ms column is zeroed so identical configs give identical bytes."""
    lines = [CSV_HEADER]
    for r in rows:
        if not timing:
            r = replace(r, wall_ms=0.0)
        lines.append(",".join(_FORMATS.get(kind, str)(kind(getattr(r, name)))
                              for name, kind in _COLUMNS.items()))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations

def _cmd_run(cfg: RunConfig) -> int:
    grid = (make_grid_2d if cfg.problem == "heat2d" else make_grid_1d)(cfg.N)
    if cfg.problem == "predprey1d":
        case = bench.PredatorPreyCase(cfg.base_level, cfg.excited, cfg.sign_variant)
    elif cfg.problem == "heat1d":
        case = bench.manufactured_heat_case()
    else:
        case = bench.manufactured_heat_case_square()
    dt = cfg.resolve_dt(math.pi / cfg.N)
    layout = make_layout(grid, cfg.n_subdomains, cfg.overlap) if cfg.n_subdomains > 1 else None
    row, _ = bench.run_case(case, grid, dt, bench.steps_to(cfg.T, dt),
                            shift_order=cfg.shift_order, filter_on=cfg.filter_on,
                            kappa_fraction=cfg.kappa_fraction, layout=layout)
    emit_csv([row], cfg.output, timing=cfg.timing)
    status = "stable" if row.stable else "BLOW-UP"
    print(f"{cfg.problem}: N={row.N} ratio={row.ratio:.4g} steps={row.steps} "
          f"{status} err_linf={row.err_linf:.4g} -> {cfg.output}")
    return 0 if row.stable else 2


def _cmd_sweep(cfg: RunConfig) -> int:
    rows = bench.run_accuracy_sweep(bench.manufactured_heat_case(), cfg.grid_sizes, cfg.ratios,
                                    [cfg.shift_order], T=cfg.T, filter_on=cfg.filter_on,
                                    kappa_fraction=cfg.kappa_fraction)
    emit_csv(rows, cfg.output, timing=cfg.timing)
    print(f"sweep: {len(rows)} runs, {sum(r.stable for r in rows)} stable -> {cfg.output}")
    return 0


def _cmd_dd(cfg: RunConfig) -> int:
    rows = bench.run_dd_study(cfg.N, cfg.n_subdomains, cfg.overlaps)
    emit_csv(rows, cfg.output, timing=cfg.timing)
    for r in rows:
        tag = f"N_d={r.n_subdomains} overlap={r.overlap}"
        print(f"dd: {tag:24s} max stable ratio = {r.ratio:.2f} {r.note}")
    return 0


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
        for f in dc_fields(RunConfig):
            flag = dict(f.metadata)
            p.add_argument(flag.pop("flag", "--" + f.name.replace("_", "-")),
                           dest=f.name, default=None, **flag)
    return parser


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "dd": _cmd_dd,
             "selftest": lambda cfg: run_selftest()}


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
