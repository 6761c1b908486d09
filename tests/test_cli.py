"""Configuration parsing, CSV emission and the command-line entry points."""

import dataclasses
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from rdfilter import bench, cli
from rdfilter.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    build_parser,
    emit_csv,
    main,
    parse_config,
)
from rdfilter.core import make_grid_1d
from rdfilter.ddm import make_layout


def load_csv(path) -> list[bench.SweepRow]:
    """Read back an ``emit_csv`` file: one SweepRow per line, each column
    parsed as the type of its SweepRow field."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == CSV_HEADER
    types = typing.get_type_hints(bench.SweepRow)
    parse = {name: (lambda s: s == "true") if types[name] is bool else types[name]
             for name in CSV_HEADER.split(",")}
    return [bench.SweepRow(**{name: parse[name](value)
                              for name, value in zip(parse, line.split(","))})
            for line in lines[1:]]


def test_parse_config_ratio_to_dt():
    cfg = parse_config("problem=heat1d\nN=64\nratio=2\nshift_order=3\n")
    assert cfg.problem == "heat1d" and cfg.N == 64 and cfg.shift_order == 3
    h = np.pi / 64
    assert abs(cfg.resolve_dt(h) - 2.0 * h**2 / 3.0) < 1e-18


def test_parse_config_rejects_2d_third_order():
    with pytest.raises(ConfigError, match="^shift_order: rdfilter run --problem heat2d "
                                          "does not read it$"):
        parse_config("problem=heat2d\nshift_order=3\n", command="run")


def test_n_y_is_neither_a_flag_nor_a_config_key(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["run", "--problem", "heat2d", "--N-y", "64", "--output", str(out)]) == 1
    assert not out.exists()
    with pytest.raises(ConfigError, match="^N_y: unknown configuration key$"):
        parse_config("N_y=64\n")


def test_parse_config_ratio_dt_mutual_exclusion():
    with pytest.raises(ConfigError):
        parse_config("ratio=2\ndt=0.01\n")


def test_parse_config_unknown_key_named():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config("frobnicate=1\n")


def test_parse_config_defaults_and_overrides():
    cfg = parse_config(None)
    assert cfg.ratio == 1.0 and cfg.filter == "on" and cfg.n_subdomains == 1
    cfg = parse_config("N=32\n", overrides={"N": "128", "filter": "off"})
    assert cfg.N == 128 and cfg.filter == "off"


def test_parse_config_comments_and_lists():
    cfg = parse_config("# a comment\nratios=0.5,1,2\noverlaps=4 8\n")
    assert cfg.ratios == (0.5, 1.0, 2.0)
    assert cfg.overlaps == (4, 8)


def test_parse_config_bad_value_message_names_key():
    with pytest.raises(ConfigError, match="N:"):
        parse_config("N=sixty-four\n")


@pytest.mark.parametrize("key, raw", [
    ("ratio", "nan"), ("ratio", "-1"), ("ratio", "0"), ("dt", "inf"), ("dt", "-0.01"),
    ("T", "nan"), ("T", "0"), ("N", "0"), ("N", "-64"),
    ("ratios", "1,nan"), ("n_subdomains", "0"), ("ratios", ""), ("overlaps", ""),
    ("grid_sizes", "16,2"),
    ("kappa_fraction", "nan"), ("kappa_fraction", "0"), ("kappa_fraction", "-0.5"),
    ("base_level", "inf"), ("base_level", "0"), ("base_level", "-1"),
])
def test_parse_config_rejects_non_positive_or_non_finite(key, raw):
    with pytest.raises(ConfigError, match=f"^{key}:"):
        parse_config(f"{key}={raw}\n")


@pytest.mark.parametrize("text, key", [
    ("kappa_adapt=true\nn_subdomains=2\n", "kappa_adapt"),
    ("kappa_adapt=true\nproblem=heat2d\n", "kappa_adapt"),
    ("overlap_adapt=true\n", "overlap_adapt"),
])
def test_parse_config_rejects_flags_no_driver_reads(text, key):
    with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key$"):
        parse_config(text, command="run")


def test_parse_config_rejects_custom_problem():
    with pytest.raises(ConfigError, match="^problem: unknown value 'custom'"):
        parse_config("problem=custom\n")
    assert main(["run", "--problem", "custom"]) == 1


def test_filter_off_rejects_a_postprocess_key_even_at_its_default():
    with pytest.raises(ConfigError, match="^shift_order: rdfilter sweep does not read it "
                                          "with filter off$"):
        parse_config("filter=off\nshift_order=1\n", command="sweep")
    assert not parse_config("filter=off\n", command="run").filter_on


@pytest.mark.parametrize("command, args, key", [
    ("sweep", ["--config", "{default}"], "kappa_adapt"),
    ("sweep", ["--config", "{cfg}"], "kappa_adapt"),
    ("dd", ["--ratios", "1,2"], "ratios"),
    ("dd", ["--shift-order", "3"], "shift_order"),
    ("dd", ["--filter", "off"], "filter"),
    ("dd", ["--kappa-fraction", "0.5"], "kappa_fraction"),
    ("run", ["--kappa-fraction", "nan"], "kappa_fraction"),
    ("sweep", ["--problem", "heat2d"], "problem"),
    ("sweep", ["--n-subdomains", "2"], "n_subdomains"),
    ("sweep", ["--overlap", "4"], "overlap"),
    ("run", ["--problem", "heat2d", "--n-subdomains", "2"], "n_subdomains"),
    ("run", ["--problem", "heat2d", "--overlap", "4"], "overlap"),
    ("run", ["--ratio", "4", "--overlap", "4"], "overlap"),
    ("sweep", ["--grid-sizes", "16"], "N"),
    ("run", ["--problem", "predprey1d", "--config", "{variant}"], "sign_variant"),
    ("dd", [], "n_subdomains"),
    ("dd", ["--overlaps", "3"], "n_subdomains"),
    ("dd", ["--n-subdomains", "4", "--overlaps", "4,3"], "overlaps"),
    ("dd", ["--n-subdomains", "40"], "n_subdomains"),
    ("dd", ["--n-subdomains", "2", "--overlaps="], "overlaps"),
    ("run", ["--n-subdomains", "2", "--overlap", "3"], "overlap"),
    ("run", ["--n-subdomains", "2", "--overlap", "34"], "overlap"),
    ("run", ["--n-subdomains", "40"], "n_subdomains"),
    ("sweep", ["--grid-sizes", "2"], "grid_sizes"),
    ("sweep", ["--ratios="], "ratios"),
    ("dd", ["--n-subdomains", "2", "--overlaps", "8,32"], "overlaps"),
    ("run", ["--ratio", "4", "--T", "0.0001"], "T"),
    ("run", ["--problem", "heat2d", "--dt", "0.01", "--T", "0.01"], "T"),
    ("sweep", ["--ratios", "1,8", "--T", "0.03"], "T"),
    ("run", ["--config", "{cfg}"], "kappa_adapt"),
    ("run", ["--filter", "off", "--shift-order", "3"], "shift_order"),
    ("run", ["--filter", "off", "--kappa-fraction", "0.5"], "kappa_fraction"),
    ("run", ["--filter", "off", "--n-subdomains", "2"], "n_subdomains"),
    ("run", ["--problem", "heat2d", "--filter", "off", "--kappa-fraction", "0.5"],
     "kappa_fraction"),
    ("sweep", ["--filter", "off", "--shift-order", "3"], "shift_order"),
    ("sweep", ["--filter", "off", "--kappa-fraction", "0.5"], "kappa_fraction"),
    ("run", ["--T", "1e300", "--dt", "1e-10"], "T"),  # round(T / dt) overflowed
    ("sweep", ["--ratios", "1e-300", "--T", "1e300"], "T"),
    ("run", ["--T", "1e20", "--dt", "1e-10"], "T"),  # 1e30 steps ran for ever
])
def test_main_rejects_keys_a_subcommand_does_not_read(tmp_path, capsys, command, args, key):
    # kappa_adapt is no key: it is rejected as unknown at true and at false
    files = {"cfg": "kappa_adapt=true\n", "default": "kappa_adapt=false\n",
             "variant": "sign_variant=bogus\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "x.csv"
    args = [a.format(**{name: tmp_path / name for name in files}) for a in args]
    assert main([command, *args, "--N", "32", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    # the key once: a library message that leads with its own key used to follow it
    assert not re.match(r"\w+: ", err.removeprefix(f"error: {key}: ")), err
    assert not out.exists()


# One value per RunConfig key, as a config file spells it, with the value it
# parses to; each bool spelling, both tuple element types and integer spellings
# of float keys appear.
_SPELLINGS = [
    ("problem", "predprey1d", "predprey1d"), ("N", "32", 32), ("T", "3", 3.0),
    ("ratio", "2.5", 2.5), ("dt", "1e-3", 1e-3), ("T", "0.5", 0.5),
    ("shift_order", "3", 3), ("filter", "off", "off"), ("kappa_fraction", "0.5", 0.5),
    ("n_subdomains", "2", 2), ("overlap", "4", 4), ("output", "x.csv", "x.csv"),
    ("ratios", "0.5,2", (0.5, 2.0)), ("ratios", "1 4", (1.0, 4.0)),
    ("grid_sizes", "16,32", (16, 32)), ("overlaps", "4 8", (4, 8)),
    ("timing", "false", False), ("sign_variant", "printed", "printed"),
    ("base_level", "2", 2.0),
    *[("excited", raw, want)
      for raws, want in ((("1", "true", "on", "yes", "TRUE", "Yes"), True),
                         (("0", "false", "off", "no", "FALSE", "No"), False))
      for raw in raws],
]


def test_spellings_cover_every_key():
    assert {key for key, _, _ in _SPELLINGS} == {f.name for f in dataclasses.fields(RunConfig)}


def test_key_tables_name_exactly_the_config_fields():
    # a deleted key cannot leave a stale entry behind, nor a field go unread
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert set().union(*cli._READS.values()) == keys
    assert cli._FILTER_KEYS <= keys


@pytest.mark.parametrize("key, raw, want", _SPELLINGS)
def test_flag_and_config_file_build_equal_configs(key, raw, want):
    flag = "--no-timing" if key == "timing" else "--" + key.replace("_", "-")
    argv = ["run", flag] if key == "timing" else ["run", flag, raw]
    args = vars(build_parser().parse_args(argv))
    overrides = {k: v for k, v in args.items() if k not in ("command", "config")}
    from_flag = parse_config(None, overrides)
    from_file = parse_config(f"{key}={raw}\n")
    assert from_flag == from_file
    assert getattr(from_file, key) == want and type(getattr(from_file, key)) is type(want)
    if isinstance(want, tuple):
        assert all(type(v) is type(want[0]) for v in getattr(from_file, key))


def test_main_bad_ratio_exit_1_names_key(tmp_path, capsys):
    assert main(["run", "--ratio", "nan", "--output", str(tmp_path / "x.csv")]) == 1
    assert "ratio:" in capsys.readouterr().err


def _row(**kw):
    base = dict(N=64, dt=0.001, ratio=2.0, shift_order=1, kappa=1.5,
                n_subdomains=1, overlap=0, err_l2=1e-3, err_linf=2e-3,
                stable=True, steps=100, wall_ms=12.5, note="")
    base.update(kw)
    return bench.SweepRow(**base)


def test_emit_csv_empty_and_single(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"
    emit_csv([_row()], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == CSV_HEADER


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "out.csv"
    rows = [_row(dt=math.pi / 12345.0, err_l2=1.2345678901234567e-7),
            _row(stable=False, err_l2=float("nan"), err_linf=float("nan"))]
    emit_csv(rows, path)
    back = load_csv(path)
    for orig, rec in zip(rows, back):
        for f in ("N", "dt", "ratio", "shift_order", "kappa", "n_subdomains",
                  "overlap", "stable", "steps", "wall_ms"):
            assert getattr(orig, f) == getattr(rec, f), f
        for f in ("err_l2", "err_linf"):
            a, b = getattr(orig, f), getattr(rec, f)
            assert (math.isnan(a) and math.isnan(b)) or a == b


def test_csv_bytes_deterministic_without_timing(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([_row(wall_ms=3.7)], p1, timing=False)
    emit_csv([_row(wall_ms=99.9)], p2, timing=False)
    assert p1.read_bytes() == p2.read_bytes()


def test_help_lists_every_config_key():
    from rdfilter.cli import RunConfig

    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices["run"]
    help_text = sub.format_help()
    for f in dataclasses.fields(RunConfig):
        stem = f.name.replace("_", "-")
        # boolean keys may surface as their negated flag (e.g. --no-timing)
        assert f"--{stem}" in help_text or f"--no-{stem}" in help_text, stem


def test_main_run_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["run", "--problem", "heat1d", "--N", "32", "--ratio", "0.5",
                 "--T", "0.2", "--output", str(out), "--no-timing"])
    assert code == 0
    rows = load_csv(out)
    assert len(rows) == 1 and rows[0].stable and rows[0].wall_ms == 0.0


def test_main_run_heat2d_writes_its_row_bit_for_bit(tmp_path):
    # the row of the README's heat2d command, as the 2D driver wrote it before
    # the 1D and 2D drivers merged
    out = tmp_path / "heat2d.csv"
    code = main(["run", "--problem", "heat2d", "--N", "32", "--dt", "0.002",
                 "--output", str(out), "--no-timing"])
    assert code == 0
    assert out.read_text() == CSV_HEADER + "\n" + (
        "32,0.002,0.62251735229852334,1,1.4136686928048934,1,0,0.0029524052983791833,"
        "0.0047955129228888227,true,500,0\n")


def test_main_dd_writes_the_readme_rows_bit_for_bit(tmp_path):
    # the rows of the README's dd command, as the trials wrote them when every
    # step ran through ``bench.integrate``
    out = tmp_path / "dd.csv"
    code = main(["dd", "--N", "128", "--n-subdomains", "4", "--overlaps", "4,8,16",
                 "--output", str(out), "--no-timing"])
    assert code == 0
    assert out.read_text() == CSV_HEADER + "\n" + (
        "128,0.012851047397251769,64,1,nan,1,0,nan,nan,true,500,0\n"
        "128,0.0033508102100256077,16.6875,1,nan,4,4,nan,nan,true,500,0\n"
        "128,0.0073040132667973913,36.375,1,nan,4,8,nan,nan,true,500,0\n"
        "128,0.012851047397251769,64,1,nan,4,16,nan,nan,true,500,0\n")


def test_main_run_blowup_exit_2(tmp_path):
    out = tmp_path / "boom.csv"
    code = main(["run", "--problem", "heat1d", "--N", "64", "--ratio", "1.2",
                 "--filter", "off", "--T", "0.2", "--output", str(out)])
    assert code == 2
    row = load_csv(out)[0]
    assert not row.stable and math.isnan(row.kappa)  # no filter, no kappa


@pytest.mark.parametrize("overlap, strip", [("8", "12..36"), ("16", "8..40")])
def test_main_run_names_a_strip_the_third_order_shift_cannot_take(tmp_path, capsys,
                                                                  overlap, strip):
    # these runs used to print BLOW-UP at step 2
    out = tmp_path / "x.csv"
    code = main(["run", "--problem", "heat1d", "--N", "48", "--ratio", "4", "--n-subdomains",
                 "3", "--overlap", overlap, "--shift-order", "3", "--output", str(out)])
    printed = capsys.readouterr()
    assert code == 1 and "BLOW-UP" not in printed.out and not out.exists()
    assert printed.err.startswith(f"error: shift_order: 3 cannot shift strip {strip}: ")


def _stub_run_case(monkeypatch) -> list:
    """Replace ``bench.run_case`` by a stable row; returns the layouts it is given."""
    layouts = []

    def run_case(case, grid, dt, n_steps, layout=None, **options):
        layouts.append(layout)
        return _row(), None

    monkeypatch.setattr(bench, "run_case", run_case)
    return layouts


@pytest.mark.parametrize("n, n_subdomains, overlap", [(20, 3, 4), (32, 5, 6), (44, 6, 4)])
def test_main_runs_a_layout_make_layout_accepts(tmp_path, monkeypatch, n, n_subdomains,
                                                overlap):
    # too many strips for N at overlap 2, not at this overlap: run used to
    # refuse it, naming n_subdomains
    layouts = _stub_run_case(monkeypatch)
    code = main(["run", "--N", str(n), "--n-subdomains", str(n_subdomains), "--overlap",
                 str(overlap), "--output", str(tmp_path / "x.csv")])
    assert code == 0
    assert layouts == [make_layout(make_grid_1d(n), n_subdomains, overlap)]


def _refuses(call) -> bool:
    try:
        call()
    except ValueError:  # a ConfigError is one
        return True
    return False


def test_run_refuses_a_layout_exactly_when_make_layout_does(tmp_path, monkeypatch, capsys):
    # run used to refuse 22 of these at N <= 56, by a probe of its own at overlap 2
    layouts = _stub_run_case(monkeypatch)
    out = str(tmp_path / "x.csv")
    verdicts = {}
    for n in range(16, 129, 4):
        for n_subdomains in range(2, 9):
            for overlap in range(2, 17, 2):
                options = {"N": n, "n_subdomains": n_subdomains, "overlap": overlap, "output": out}
                verdicts[n, n_subdomains, overlap] = (
                    _refuses(lambda: cli._cmd_run(parse_config(None, options, "run"))),
                    _refuses(lambda: make_layout(make_grid_1d(n), n_subdomains, overlap)))
    capsys.readouterr()
    assert [key for key, (cli_no, library_no) in verdicts.items() if cli_no != library_no] == []
    refused = sum(library_no for _, library_no in verdicts.values())
    assert 0 < refused < len(verdicts)
    assert len(layouts) == len(verdicts) - refused  # every accepted layout ran


def test_main_config_error_exit_1(tmp_path):
    code = main(["run", "--ratio", "2", "--dt", "0.01",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 1


def test_main_bad_flag_exit_1():
    assert main(["run", "--no-such-flag"]) == 1
    assert main(["run", "--kappa-adapt", "true"]) == 1  # kappa is fixed for a run


def test_main_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("problem=heat1d\nN=32\nratio=0.5\nT=0.2\n")
    out = tmp_path / "r.csv"
    code = main(["run", "--config", str(cfgfile), "--ratio", "0.4",
                 "--output", str(out), "--no-timing"])
    assert code == 0
    assert abs(load_csv(out)[0].ratio - 0.4) < 1e-12


def test_main_sweep_and_identical_bytes(tmp_path):
    args = ["sweep", "--N", "32", "--ratios", "0.5,2", "--T", "0.2", "--no-timing"]
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--output", str(p1)]) == 0
    assert main(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert len(load_csv(p1)) == 2


def test_main_selftest():
    assert main(["selftest"]) == 0
