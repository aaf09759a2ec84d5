"""Config parsing and CLI contract tests: exit codes, outputs, determinism."""

import contextlib
import gc
import inspect
import io
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dnpde import cli, config as cfgmod
from dnpde import convex as cx
from dnpde import noise as nz
from dnpde import solver as sv
from dnpde import verify as vf
from dnpde.grid import DirichletGrid

BASIC = """\
[grid]
dimension = 1
extent = 1.0
nodes = 16

[potentials]
gamma_kind = power
gamma_p = 2.0

[noise]
mode_count = 1
amplitudes = 0.5
gain = additive
master_seed = 20260809

[solver]
lambda_yosida = 0.5
dt = 0.03125
horizon = 0.25
u0_kind = eigenmode
u0_mode = 1
u0_amplitude = 1.0

[output]
prefix = demo
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_parse_roundtrip():
    rc = cfgmod.parse_config(BASIC)
    assert rc.get("grid", "dimension") == 1
    assert rc.get("noise", "amplitudes") == (0.5,)
    assert rc.get("solver", "scheme", "implicit_opt") == "implicit_opt"
    cfg, u0 = cfgmod.build_problem(rc)
    assert cfg.n_steps == 8
    assert u0.values.shape == (16,)
    assert cfg.noise.bound == 0.5   # default HS bound filled in


def test_parse_rejects_unknown_section():
    with pytest.raises(cfgmod.ConfigError) as err:
        cfgmod.parse_config("[mystery]\nx = 1\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_unknown_key_with_line():
    text = BASIC.replace("gamma_p = 2.0", "gamma_p = 2.0\ngamma_typo = 3")
    with pytest.raises(cfgmod.ConfigError) as err:
        cfgmod.parse_config(text)
    assert "gamma_typo" in str(err.value) and "line" in str(err.value)


def test_parse_rejects_duplicates_and_bad_values():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config("[grid]\ndimension = 1\ndimension = 2\n")
    with pytest.raises(cfgmod.ConfigError) as err:
        cfgmod.parse_config("[grid]\ndimension = one\n")
    assert "line 2" in str(err.value)
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.parse_config("key_without_section = 1\n")


def test_missing_section_and_key_errors():
    rc = cfgmod.parse_config("[grid]\ndimension = 1\nextent = 1.0\nnodes = 16\n")
    with pytest.raises(cfgmod.ConfigError) as err:
        rc.require("solver", "dt")
    assert "[solver]" in str(err.value)


def test_build_problem_refuses_unknown_override():
    rc = cfgmod.parse_config(BASIC)
    for overrides in ({"solvers": {"dt": 0.1}}, {"solver": {"lambda": 0.1}}, {"grid": {"h": 0.1}}):
        with pytest.raises(cfgmod.ConfigError, match="unknown"):
            cfgmod.build_problem(rc, **overrides)


def test_build_problem_leaves_config_unmutated():
    # one parsed config is shared by every build that overrides it
    rc = cfgmod.parse_config(BASIC)
    sections = {k: dict(v) for k, v in rc.sections.items()}
    lines = {k: dict(v) for k, v in rc.lines.items()}
    cfg, _ = cfgmod.build_problem(
        rc, grid={"nodes": (8,)}, solver={"lambda_yosida": 0.25}, verify={"families": ("all",)}
    )
    assert cfg.grid.nodes == (8,) and cfg.lambda_yosida == 0.25
    assert rc.sections == sections and rc.lines == lines
    assert not rc.has("verify")


def test_override_equal_to_file_value_builds_equal_problem():
    rc = cfgmod.parse_config(BASIC)
    cfg, u0 = cfgmod.build_problem(rc)
    cfg2, u02 = cfgmod.build_problem(
        rc, grid={"nodes": (16,)}, noise={"amplitudes": (0.5,)},
        solver={"lambda_yosida": 0.5, "dt": 0.03125, "u0_amplitude": 1.0},
    )
    assert cfg2 == cfg
    assert u02.grid == u0.grid and u02.values.tobytes() == u0.values.tobytes()


# the [solver] keys: SolverConfig's parameters less those built from other
# sections, then u0_ and initial_datum's; each default is its constructor's
SOLVER_BUILT = ("grid", "gamma", "beta", "noise")
SOLVER_PARAMS = [
    *((name, p) for name, p in inspect.signature(sv.SolverConfig).parameters.items()
      if name not in SOLVER_BUILT),
    *((f"u0_{name}", p) for name, p in inspect.signature(sv.initial_datum).parameters.items()
      if name != "grid"),
]


def test_solver_keys_and_defaults_come_from_the_constructors(tmp_path, capsys):
    assert {key for key, _ in SOLVER_PARAMS} == set(cfgmod.SCHEMA["solver"])
    assert cfgmod.SCHEMA["solver"] == {
        "lambda_yosida": float, "lambda_visc": float, "dt": float, "horizon": float,
        "scheme": str, "eps_inner": float, "max_inner": int,
        "u0_kind": str, "u0_mode": int, "u0_amplitude": float, "u0_path": str,
    }
    text = BASIC.replace("u0_kind = eigenmode\nu0_mode = 1\nu0_amplitude = 1.0\n", "")
    assert set(cfgmod.parse_config(text).sections["solver"]) == {"lambda_yosida", "dt", "horizon"}
    cfg, u0 = cfgmod.build_problem(cfgmod.parse_config(text))
    grid = cfg.grid
    assert cfg == sv.SolverConfig(grid, cfg.gamma, cfg.beta, cfg.noise, 0.5, 0.03125, 0.25)
    default = sv.initial_datum(grid)
    assert u0.grid == default.grid and u0.values.tobytes() == default.values.tobytes()
    # a file datum without its path is still refused
    cfg_path = write_cfg(tmp_path, text.replace("horizon = 0.25", "horizon = 0.25\nu0_kind = file"))
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: u0_path is required" in capsys.readouterr().err


def test_readme_solver_table_matches_the_constructors():
    # the README's [solver] table lists every key, in order, with its
    # constructor's default; a required key has none, lambda_visc follows lambda_yosida
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.partition("| key | default | meaning |")[2].partition("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.M)
    expected = []
    for key, p in SOLVER_PARAMS:
        if p.default is inspect.Parameter.empty:
            expected.append((key, "required"))
        elif p.default is None:
            expected.append((key, "`lambda_yosida`" if key == "lambda_visc" else "none"))
        else:
            expected.append((key, f"`{p.default}`"))
    assert rows == expected


# the [noise] keys: spectral_noise's parameters less the grid, the gain kinds'
# parameters after gain_, and master_seed
NOISE_PARAMS = [
    *((name, p) for name, p in inspect.signature(nz.spectral_noise).parameters.items()
      if name != "grid"),
    *((f"gain_{name}", p) for ctor in cfgmod.GAIN_KINDS.values()
      for name, p in inspect.signature(ctor).parameters.items()),
]


def test_noise_keys_come_from_the_constructor():
    assert list(cfgmod.SCHEMA["noise"]) == [key for key, _ in NOISE_PARAMS] + ["master_seed"]
    assert cfgmod.SCHEMA["noise"] == {
        "mode_count": int, "amplitudes": cfgmod._parse_floats, "amp_c": float, "amp_q": float,
        "n_b": float, "gain_limit": float, "gain": str, "master_seed": int,
    }
    power = BASIC.replace("nodes = 16", "nodes = 64").replace("mode_count = 1", "mode_count = 4")
    power = power.replace("amplitudes = 0.5", "amp_c = 0.5\namp_q = 1.0")
    tanh = power.replace("gain = additive", "gain = tanh\nn_b = 0.75")
    amps = (0.5, 0.25, 0.5 / 3, 0.125)   # 0.5 / k; the default bound is their l2 norm
    for text, model in [
        (BASIC, nz.NoiseModel((0.5,), nz.AdditiveGain(), 0.5)),
        (power, nz.NoiseModel(amps, nz.AdditiveGain(), math.sqrt(sum(b * b for b in amps)))),
        (tanh, nz.NoiseModel(amps, nz.TanhGain(), 0.75)),
    ]:
        rc = cfgmod.parse_config(text)
        grid = cfgmod.build_grid(rc)
        keys = {k: v for k, v in rc.sections["noise"].items() if k not in ("gain", "master_seed")}
        assert cfgmod.build_noise(rc, grid) == model
        assert nz.spectral_noise(grid, gain=model.gain, **keys) == model


def test_readme_noise_table_matches_the_constructors():
    # the README's [noise] table lists every key, in order, with its default:
    # the constructors' own, the gain kind additive and master seed 0 from config
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.partition("The `[noise]` keys")[2].partition("\n\n| key")[2].partition("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.M)
    expected = []
    for key, p in NOISE_PARAMS:
        if key == "gain":
            expected.append((key, "`additive`"))
        elif p.default is inspect.Parameter.empty:
            expected.append((key, "required"))
        elif p.default is None:
            expected.append((key, "`default_bound`" if key == "n_b" else "none"))
        else:
            expected.append((key, f"`{p.default}`"))
    assert rows == expected + [("master_seed", "`0`")]


# ---------------------------------------------------------------------------
# cmd_run
# ---------------------------------------------------------------------------

def test_run_writes_two_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["demo_summary.json", "demo_trajectory.csv"]
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["master_seed"] == 20260809
    assert summary["n_steps"] == 8
    lines = (out / "demo_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_checksum=")
    assert lines[1] == "# master_seed=20260809"
    assert len(lines) == 3 + 9   # comments + header + 9 records


def test_run_state_dumps(tmp_path):
    text = BASIC.replace("prefix = demo", "prefix = demo\ndump_every = 4")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    dumps = sorted(p.name for p in out.iterdir() if "state" in p.name)
    assert dumps == ["demo_state_000000.txt", "demo_state_000004.txt", "demo_state_000008.txt"]


def test_run_missing_grid_exits_2(tmp_path, capsys):
    text = BASIC.split("[potentials]", 1)[1]
    cfg = write_cfg(tmp_path, "[potentials]" + text)
    assert cli.main(["run", cfg]) == 2
    assert "[grid]" in capsys.readouterr().err


def test_run_unreadable_config_exits_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_underflowing_amplitudes_run_with_a_declared_bound(tmp_path):
    text = BASIC.replace("amplitudes = 0.5", "amp_c = 1e-300\namp_q = 1.0\nn_b = 1.0")
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 0


def test_run_rejects_jobs_flag(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    with pytest.raises(SystemExit) as info:
        cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert info.value.code == 2


# mode_count = 0, n_b = -1, an empty u0_path file and a nan or zero noise
# amplitude used to end in a traceback, an infinite amplitude failed at step 1,
# n_b = inf made the declared bound vacuous, u0_mode = 0 and 99 used to run on a
# zero and an aliased datum, a non-finite u0_amplitude must be named, not the
# mode it scales, an amplitude whose square overflows failed at step 0, a dt
# giving more steps than an array holds ended in a traceback, an infinite
# lambda_visc failed at step 1, an infinite eps_inner ran without a single
# inner iteration, every step returning its incoming state, an infinite or
# nan extent ended in a traceback about the declared noise bound, an
# amplitude overflowing the eigenmode warned and named the u0_mode line, a
# refused dimension or node count did not lead with its key, and a negative
# dimension or three node counts in 1-d named the extent line, and amplitudes
# whose squares underflow left a zero default n_b that named neither key nor line;
# an amplitudes list of the wrong length or of zeros is refused at its line too
@pytest.mark.parametrize("line", [
    "max_inner = 0", "eps_inner = 0.0", "eps_inner = -1e-10", "scheme = explicit",
    "mode_count = 0", "n_b = -1.0", "u0_path = empty.txt", "u0_mode = 0", "u0_mode = 99",
    "u0_amplitude = nan", "amp_q = nan", "amp_c = nan", "amplitudes = nan", "amp_c = 0",
    "amp_c = inf", "amplitudes = inf", "n_b = inf", "amplitudes = 1e200", "amp_c = 1e200",
    "dt = 1e-320", "dt = 1e-300", "lambda_visc = inf", "eps_inner = inf",
    "extent = inf", "extent = nan", "u0_amplitude = 1.7e308", "dimension = 3", "nodes = 2",
    "u0_kind = mystery", "dimension = -1", "nodes = 8,8,8", "amp_c = 1e-300",
    "amplitudes = 1e-300", "amplitudes = 0.5,0.2,0.1", "amplitudes = 0",
])
def test_run_invalid_inner_limits_exit_2(tmp_path, monkeypatch, capsys, line):
    # the line goes into its key's section, in place of the key where BASIC sets it
    key = line.split()[0]
    section = next(name for name, keys in cfgmod.SCHEMA.items() if key in keys)
    text = BASIC.replace("amplitudes = 0.5", "amp_c = 0.5\namp_q = 1.0")
    if key == "u0_path":
        text = text.replace("u0_kind = eigenmode", "u0_kind = file")
    text = "".join(l for l in text.splitlines(True) if not l.startswith(f"{key} = "))
    text = text.replace(f"[{section}]", f"[{section}]\n{line}")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.txt").write_text("")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    lineno = text.splitlines().index(line) + 1
    assert f"line {lineno}: {line.split()[0]}" in capsys.readouterr().err


# an infinite p or scale used to build a potential and fail the run (exit 3),
# a non-finite breakpoint, slope or value sample failed its graph certificate
# (exit 3), and a missing samples file named no line; each refusal names the
# line of the key it refuses
@pytest.mark.parametrize("line", [
    pytest.param("gamma_p = inf", id="gamma_p"),
    pytest.param("gamma_scale = inf", id="gamma_scale"),
    pytest.param("beta_scale = inf", id="beta_scale"),
    pytest.param("beta_xs = -1,0,nan", id="beta_xs"),
    pytest.param("beta_slopes = -1,0,inf", id="beta_slopes"),
    pytest.param("beta_path = samples.txt", id="beta_path"),
    pytest.param("beta_path = nothere.txt", id="beta_path_missing"),
])
def test_run_non_finite_potential_exits_2(tmp_path, monkeypatch, capsys, line):
    key = line.split()[0]
    role, param = key.split("_")
    beta = {
        "xs": "beta_kind = piecewise\nbeta_slopes = -1,0,1",
        "slopes": "beta_kind = piecewise\nbeta_xs = -1,0,1",
        "path": "beta_kind = sampled",
    }.get(param, "beta_kind = expcosh")
    text = BASIC.replace("gamma_p = 2.0", f"gamma_p = 2.0\n{beta}")
    if key == "gamma_p":
        text = text.replace("gamma_p = 2.0", line)
    else:
        text = text.replace("[potentials]", f"[potentials]\n{line}")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "samples.txt").write_text("-1 1\n0 0\n1 inf\n")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    lineno = text.splitlines().index(line) + 1
    assert f"line {lineno}: invalid {role} potential: {param} " in capsys.readouterr().err


# the last line is the refused one; p = 1, delta = 0 and limit = 0 used to be
# reported at the line of their kind
@pytest.mark.parametrize("lines, message", [
    (("gamma_kind = power", "gamma_p = 1.0"), "invalid gamma potential: p must be"),
    (("beta_kind = huber", "beta_delta = 0"), "invalid beta potential: delta must be"),
    (("gain = clipped", "gain_limit = 0"), "limit must be positive"),
    (("gain = bogus",), "unknown gain kind 'bogus'"),
    (   # a graph of one breakpoint concerns no single key: its kind's line
        ("beta_xs = 0", "beta_slopes = 1", "beta_kind = piecewise"),
        "invalid beta potential: need matching 1-d breakpoint arrays with >= 2 points",
    ),
], ids=["gamma_p", "beta_delta", "gain_limit", "gain", "piecewise_one_point"])
def test_refused_catalog_value_names_its_line(tmp_path, capsys, lines, message):
    section = "noise" if lines[0].startswith("gain") else "potentials"
    text = BASIC.replace("gamma_kind = power\ngamma_p = 2.0\n", "").replace("gain = additive\n", "")
    text = text.replace(f"[{section}]", "\n".join((f"[{section}]", *lines)))
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    lineno = text.splitlines().index(lines[-1]) + 1
    assert f"line {lineno}: {message}" in capsys.readouterr().err


# refusals that no other input reaches, each with its whole stderr line: the
# command after the config path, then the message after "config error: "
@pytest.mark.parametrize("text, args, message", [
    pytest.param(
        BASIC.replace("amplitudes = 0.5\n", ""), ["run"],
        "noise needs either 'amplitudes' or the power law 'amp_c'/'amp_q'", id="no_amplitudes",
    ),
    pytest.param(BASIC + "[grid]\n", ["run"], "line 26: duplicate section [grid]", id="duplicate"),
    pytest.param(
        BASIC.replace("prefix = demo", "prefix"), ["run"],
        "line 25: expected 'key = value', got 'prefix'", id="no_equals",
    ),
    pytest.param(BASIC, ["verify", "--select", ","], "empty criterion selection", id="select"),
    pytest.param(
        BASIC.replace("nodes = 16\n", ""), ["run"],
        "missing required key 'nodes' in section [grid]", id="grid_without_nodes",
    ),
    pytest.param(
        re.sub(r"\[noise\].*?\n\n", "", BASIC, flags=re.S),
        ["sweep", "--param", "mode_count", "--values", "1"],
        "mode_count sweep needs a [noise] section", id="mode_count_no_noise",
    ),
])
def test_refusal_exits_2_with_its_message(tmp_path, capsys, text, args, message):
    cfg = write_cfg(tmp_path, text)
    assert cli.main([args[0], cfg, *args[1:], "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_run_mode_count_beyond_grid_exits_2(tmp_path, capsys):
    # 17 modes on 16 nodes used to end in a traceback at the first noise step
    text = BASIC.replace(
        "mode_count = 1\namplitudes = 0.5", "mode_count = 17\namp_c = 0.5\namp_q = 1.0"
    )
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    lineno = text.splitlines().index("mode_count = 17") + 1
    assert f"line {lineno}: mode_count 17 exceeds the 16 sine modes" in capsys.readouterr().err


def test_run_unstable_semi_implicit_exits_3(tmp_path, capsys):
    text = BASIC.replace("[solver]", "[solver]\nscheme = semi_implicit")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "stability" in err and ">" in err   # message shows the bound


def test_run_negative_dump_every_exits_2(tmp_path, capsys):
    text = BASIC.replace("prefix = demo", "prefix = demo\ndump_every = -3")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    lineno = text.splitlines().index("dump_every = -3") + 1
    assert f"config error: line {lineno}: dump_every must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# the benchmark's 2-d semi-implicit run at 8x8: p=4 gamma, exp-cosh beta, 32
# tanh-gain modes, dt = 2**-14
SEMI_2D = """\
[grid]
dimension = 2
extent = 1.0
nodes = 8

[potentials]
gamma_kind = power
gamma_p = 4.0
beta_kind = expcosh

[noise]
mode_count = 32
amp_c = 0.5
amp_q = 1.0
gain = tanh

[solver]
lambda_yosida = 0.5
dt = 0.00006103515625
u0_kind = bump
"""


@pytest.mark.parametrize("scheme", ["semi_implicit", "implicit_opt"])
def test_run_failed_graph_certificate_exits_3(tmp_path, capsys, scheme):
    # at amplitude 1e200 the exp-cosh Yosida value leaves dom P*: the record
    # of step 0 cannot be certified, and the run fails closed
    text = SEMI_2D + f"horizon = 0.0625\nu0_amplitude = 1e200\nscheme = {scheme}\n"
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no overflow warning escapes
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure at step 0: graph certificate failed: ")
    assert "infinite conjugate" in err


def test_run_without_dumps_certifies_every_record(tmp_path):
    text = BASIC.replace("prefix = demo", "prefix = demo\ndump_every = 0")
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["demo_summary.json", "demo_trajectory.csv"]
    summary = json.loads((out / "demo_summary.json").read_text())
    assert summary["max_fenchel_gap"] is not None
    rows = (out / "demo_trajectory.csv").read_text().splitlines()[3:]
    assert [r.split(",")[0] for r in rows] == [str(n) for n in range(summary["n_steps"] + 1)]


def _run_peak(tmp_path, horizon, dump_every=64):
    """Traced peak of one 2-d ``dnpde run`` dumping every ``dump_every``-th
    state, above the memory traced before it."""
    text = SEMI_2D + f"horizon = {horizon}\nscheme = semi_implicit\n[output]\ndump_every = {dump_every}\n"
    cfg = write_cfg(tmp_path, text)
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    return tracemalloc.get_traced_memory()[1] - before


def test_run_memory_is_flat_in_the_step_count(tmp_path):
    # the ledger grows with the step count (40 B a step here), the states and
    # the noise do not: holding every state would add a whole state (2,176 B
    # of arrays on 8x8, 3.3 kB traced) per step
    tracemalloc.start()
    try:
        _run_peak(tmp_path, 1 / 128)   # warm the eigenpair and HS-weight caches
        one = _run_peak(tmp_path, 1 / 128)    # 128 steps
        four = _run_peak(tmp_path, 1 / 32)    # 512 steps
    finally:
        tracemalloc.stop()
    g = DirichletGrid((1.0, 1.0), (8, 8))
    state_bytes = 8 * (2 * math.prod(g.shape) + sum(math.prod(s) for s in g.face_shapes()))
    assert (four - one) / (512 - 128) <= 0.25 * state_bytes


@pytest.mark.parametrize("dump_every", [0, 1, 64])
def test_run_grows_by_its_ledger_alone(tmp_path, dump_every):
    # a seeded run draws its noise a certification block at a time and writes
    # each dump once its block is certified, so whatever the dump stride only
    # the ledger's five float columns (40 B a step) grow with the step count;
    # drawing the whole (n_steps, 32) table first added 256 B a step, and
    # holding every dump until the run ended a whole state per dump
    def peak(horizon):
        gc.collect()   # earlier garbage freed during the run would lower its peak
        return _run_peak(tmp_path, horizon, dump_every=dump_every)

    tracemalloc.start()
    try:
        for horizon in (1 / 128, 1 / 32):   # warm every cache either run fills
            peak(horizon)
        one, four = peak(1 / 128), peak(1 / 32)    # 128 and 512 steps
    finally:
        tracemalloc.stop()
    assert (four - one) / (512 - 128) <= 8 * len(sv.LEDGER_COLUMNS) + 16


def test_failed_run_leaves_no_dump(tmp_path, monkeypatch, capsys):
    # with blocks of one record the run writes the dumps of records 0-4
    # before the certificate refuses the step-5 record; it exits 3 and leaves
    # no dump, CSV or summary, and the outputs of an earlier run stand
    text = BASIC.replace("prefix = demo", "prefix = demo\ndump_every = 1")
    path, out = write_cfg(tmp_path, text), tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", path, "--out", str(tmp_path / "earlier")]) == 0
    earlier = {p.name: p.read_bytes() for p in (tmp_path / "earlier").iterdir()}
    rc = cfgmod.load_config(path)
    cfg, u0 = cfgmod.build_problem(rc)
    eta = sv.integrate(cfg, u0, nz.PathSeed(cfgmod.master_seed(rc), 0)).records[5].eta[0]
    inner = cx.fenchel_residual

    def refuse(pot, j, y):
        if any(np.array_equal(row, eta) for row in y):
            raise ValueError("refused")
        return inner(pot, j, y)

    monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", 1)
    monkeypatch.setattr(cx, "fenchel_residual", refuse)
    written = []
    write_field = cli.gridmod.write_field
    monkeypatch.setattr(cli.gridmod, "write_field", lambda f, p: written.append(p) or write_field(f, p))
    for where in (out, tmp_path / "earlier"):
        written.clear()
        assert cli.main(["run", path, "--out", str(where)]) == 3
        assert len(written) == 5
    assert capsys.readouterr().err.startswith("solver failure at step 5: graph certificate failed")
    assert list(out.iterdir()) == []
    assert {p.name: p.read_bytes() for p in (tmp_path / "earlier").iterdir()} == earlier


def _cell_by_cell(path, dt, ledgers, comments):
    """The trajectory CSV as ``cmd_run`` wrote it one cell at a time."""
    rows = zip(*(ledgers[c].tolist() for c in sv.LEDGER_COLUMNS))
    header = ["step", "t", *sv.LEDGER_COLUMNS]
    vf.write_report_csv(path, header, ([n, n * dt, *row] for n, row in enumerate(rows)), comments)


@pytest.mark.parametrize("size", [1, 2**12, sv.RECORD_BLOCK_BYTES, 2**40])
def test_trajectory_csv_blocks_match_cell_by_cell(tmp_path, monkeypatch, size):
    # one format per block of rows writes the bytes of one f-string per cell,
    # at the extremes of a double and on the integer step column
    cells = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1, 2.0]
    ledgers = {c: np.roll(np.resize(cells, 1500), i) for i, c in enumerate(sv.LEDGER_COLUMNS)}
    monkeypatch.setattr(sv, "RECORD_BLOCK_BYTES", size)
    cli._write_trajectory(tmp_path / "blocks.csv", 1 / 3, ledgers, ["note"])
    _cell_by_cell(tmp_path / "cells.csv", 1 / 3, ledgers, ["note"])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_trajectory_csv_peak_is_flat_in_its_rows(tmp_path):
    # rows are stacked and formatted a block at a time, so a ledger eight
    # times longer adds less than one block to the traced peak; stacking the
    # whole ledger first added its 40 B a row
    def peak(rows):
        ledgers = {c: np.full(rows, 1 / 3) for c in sv.LEDGER_COLUMNS}
        gc.collect()
        tracemalloc.start()
        try:
            cli._write_trajectory(tmp_path / "t.csv", 1 / 3, ledgers, [])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(32768) - peak(4096)) < sv.RECORD_BLOCK_BYTES


def test_run_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert cli.main(["run", cfg, "--out", str(b), "--seed", "2"]) == 0
    ta = (a / "demo_trajectory.csv").read_text()
    tb = (b / "demo_trajectory.csv").read_text()
    assert ta != tb


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------

def test_sweep_single_value_row(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    assert cli.main([
        "sweep", cfg, "--param", "lambda_yosida", "--values", "0.5", "--out", str(out)
    ]) == 0
    lines = (out / "demo_sweep.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 1 and rows[0].endswith(",ok")


def test_sweep_dt_coupling_checksums(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    assert cli.main([
        "sweep", cfg, "--param", "dt", "--values", "0.03125,0.015625", "--out", str(out)
    ]) == 0
    lines = (out / "demo_sweep.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    checksums = {row[-2] for row in rows}
    assert len(checksums) == 1          # one shared Brownian path
    assert all(row[-1] == "ok" for row in rows)
    # coarser level sees a nonempty Cauchy distance against the finer one
    assert rows[1][2] != "nan"


def test_sweep_h_and_mode_count(tmp_path):
    cfg = write_cfg(tmp_path, BASIC.replace("amplitudes = 0.5", "amp_c = 0.5\namp_q = 1.0"))
    out = tmp_path / "out"
    assert cli.main([
        "sweep", cfg, "--param", "h", "--values", "0.0625,0.03125", "--out", str(out)
    ]) == 0
    assert cli.main([
        "sweep", cfg, "--param", "mode_count", "--values", "1,2,4", "--out", str(out)
    ]) == 0


def test_sweep_invalid_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    assert cli.main(["sweep", cfg, "--param", "bogus", "--values", "1"]) == 2


def test_sweep_bad_values_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASIC)
    out = str(tmp_path / "o")
    assert cli.main(["sweep", cfg, "--param", "dt", "--values", "abc", "--out", out]) == 2
    assert "abc" in capsys.readouterr().err


# 1.5,2.7 used to run K = 1, 2; 0 and 17 are refused by the noise constructor
# as the same key in a config file is
@pytest.mark.parametrize("values, message", [
    pytest.param(
        "1.5,2.7", "mode_count sweep values must be integers, got [1.5, 2.7]", id="1.5,2.7",
    ),
    pytest.param("0", "mode_count sweep value 0.0: mode_count must be >= 1", id="0"),
    pytest.param(
        "17", "mode_count sweep value 17.0: mode_count 17 exceeds the 16 sine modes of the grid",
        id="17",
    ),
    pytest.param(",", "empty sweep value list", id="empty"),
])
def test_sweep_bad_mode_counts_exit_2(tmp_path, capsys, values, message):
    cfg = write_cfg(tmp_path, BASIC)
    out = str(tmp_path / "o")
    assert cli.main(["sweep", cfg, "--param", "mode_count", "--values", values, "--out", out]) == 2
    assert f"config error: {message}\n" == capsys.readouterr().err


# h = -0.1, 5 and 0.3 used to run a 3-node grid labelled with that h, and h = 0.07 a
# 13-node grid of spacing 1/14; the rest crashed
@pytest.mark.parametrize("param, value", [
    ("h", "-0.1"), ("h", "5"), ("h", "0"), ("h", "0.3"), ("h", "nan"), ("h", "0.07"),
    ("dt", "0"), ("dt", "0.1"), ("dt", "nan"), ("dt", "1e-320"),
    ("lambda_yosida", "-0.5"), ("lambda_yosida", "nan"), ("lambda_yosida", "inf"),
])
def test_sweep_out_of_range_values_exit_2(tmp_path, capsys, param, value):
    cfg = write_cfg(tmp_path, BASIC)
    out = str(tmp_path / "o")
    assert cli.main(["sweep", cfg, "--param", param, "--values", value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{param} sweep value {float(value)!r}: " in err
    if param == "lambda_yosida":   # the swept key has no line, and no other key's line stands in
        assert "line" not in err.partition(f"{float(value)!r}: ")[2]


@pytest.mark.parametrize("param, values", [
    ("lambda_yosida", "0.5,0.25"), ("dt", "0.03125,0.015625"), ("h", "0.0625,0.03125"),
    ("mode_count", "1"),
])
def test_sweep_seed_override(tmp_path, param, values):
    # --seed replaces the config's master seed: passing the config's own seed
    # changes no byte, another seed draws another path
    cfg = write_cfg(tmp_path, BASIC)
    args = ["sweep", cfg, "--param", param, "--values", values, "--out"]
    assert cli.main(args + [str(tmp_path / "a")]) == 0
    assert cli.main(args + [str(tmp_path / "b"), "--seed", "20260809"]) == 0
    assert cli.main(args + [str(tmp_path / "c"), "--seed", "1"]) == 0
    a, b, c = ((tmp_path / d / "demo_sweep.csv").read_text() for d in "abc")
    assert a == b
    checksums = [
        {line.split(",")[-2] for line in text.splitlines()[3:]} for text in (a, c)
    ]
    assert len(checksums[0]) == len(checksums[1]) == 1
    assert checksums[0] != checksums[1]
    assert "# master_seed=1\n" in c


def test_sweep_rows_match_lambda_sweep(tmp_path):
    # `dnpde sweep` rows are verify.sweep's entries on the build_problem config, bit for bit
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    lams = [0.5, 0.25, 0.125]
    assert cli.main([
        "sweep", cfg, "--param", "lambda_yosida", "--values", "0.5,0.25,0.125", "--out", str(out)
    ]) == 0
    lines = (out / "demo_sweep.csv").read_text().splitlines()
    header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert header == cli.SWEEP_HEADER
    base, u0 = cfgmod.build_problem(cfgmod.load_config(cfg))
    runs = [(replace(base, lambda_yosida=lam), u0) for lam in lams]
    checksum, entries = vf.sweep(runs, nz.PathSeed(20260809, 0))
    entries = list(entries)
    assert len(rows) == len(entries) == len(lams)
    for row, entry in zip(rows, entries):
        assert [float(c).hex() for c in row[2:-2]] == [float(v).hex() for v in entry.row()]
        assert row[-2:] == [checksum, "ok"]


def test_sweep_inner_failure_flushes_partial(tmp_path, capsys):
    # second dt value violates the semi-implicit stability bound
    text = BASIC.replace("[solver]", "[solver]\nscheme = semi_implicit")
    text = text.replace("dt = 0.03125", "dt = 0.0001")
    text = text.replace("horizon = 0.25", "horizon = 0.01")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main([
        "sweep", cfg, "--param", "dt", "--values", "0.0001,0.005", "--out", str(out)
    ])
    assert code == 3
    lines = (out / "demo_sweep.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert rows[0][-1] == "ok"
    assert rows[1][-1].startswith("failed_step")


# ---------------------------------------------------------------------------
# cmd_verify
# ---------------------------------------------------------------------------

def test_verify_selection_and_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASIC)
    out = tmp_path / "out"
    assert cli.main(["verify", cfg, "--select", "duality", "--out", str(out)]) == 0
    header, *rows = [l for l in (out / "demo_verify.csv").read_text().splitlines() if l[0] != "#"]
    assert header.endswith(",status,relation")
    assert [r.split(",")[2] for r in rows] == ["summation_by_parts_rel", "div_grad_is_stencil_rel"]
    assert all(r.endswith(",PASS,<=") for r in rows)
    *lines, _ = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(l.endswith(" (<=)") for l in lines)
    assert cli.main(["verify", cfg, "--select", "nonsense", "--out", str(out)]) == 2


def test_verify_bad_noise_bound_fails(tmp_path):
    text = BASIC.replace("master_seed = 20260809", "master_seed = 20260809\nn_b = 0.1")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["verify", cfg, "--select", "model", "--out", str(out)]) == 1


def test_verify_family_from_config(tmp_path):
    text = BASIC + "\n[verify]\nfamilies = duality\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["verify", cfg, "--out", str(tmp_path / "o")]) == 0


def test_piecewise_potential_from_config(tmp_path):
    text = BASIC.replace(
        "gamma_kind = power\ngamma_p = 2.0",
        "gamma_kind = power\ngamma_p = 2.0\n"
        "beta_kind = piecewise\nbeta_xs = -1.0,0.0,1.0\nbeta_slopes = -2.0,0.0,2.0",
    )
    rc = cfgmod.parse_config(text)
    beta = cfgmod.build_potential(rc, "beta")
    assert beta.minimal_slope(0.5) == pytest.approx(1.0)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    # the sampled graph has an exact conjugate, so its Fenchel gaps are reported
    gap = json.loads((out / "demo_summary.json").read_text())["max_fenchel_gap"]
    assert math.isfinite(gap) and gap <= 1e-8
    assert cli.main([
        "sweep", cfg, "--param", "lambda_yosida", "--values", "0.5,0.25", "--out", str(out)
    ]) == 0
    lines = (out / "demo_sweep.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    col = cli.SWEEP_HEADER.index("fenchel_gap_beta")
    assert len(rows) == 2 and all(math.isfinite(float(row[col])) for row in rows)


def test_kind_tables_cover_the_catalog():
    # every catalog class is reachable from a kind table (from_file is bound to its class)
    def subclasses(module, base):
        return {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base) and obj is not base
        }

    def reachable(kinds):
        return {getattr(ctor, "__self__", ctor) for ctor in kinds.values()}

    assert subclasses(cx, cx.Potential) == reachable(cfgmod.POTENTIAL_KINDS)
    assert subclasses(nz, nz.Gain) == reachable(cfgmod.GAIN_KINDS)
    params = {
        name for ctor in cfgmod.POTENTIAL_KINDS.values()
        for name in inspect.signature(ctor).parameters
    }
    assert set(cfgmod.SCHEMA["potentials"]) == {
        f"{role}_{name}" for role in ("gamma", "beta") for name in params | {"kind"}
    }


def test_kind_from_config_equals_direct_build(tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("-1 1\n0 0\n2 4\n")
    potentials = [
        ("power\ngamma_p = 3.0\ngamma_scale = 2.0", cx.PowerPotential(3.0, 2.0)),
        ("abs\ngamma_scale = 0.5", cx.AbsPotential(0.5)),
        ("huber\ngamma_delta = 0.25\ngamma_scale = 2.0", cx.HuberPotential(0.25, 2.0)),
        ("expcosh\ngamma_scale = 3.0", cx.ExpCoshPotential(3.0)),
        (f"sampled\ngamma_path = {samples}", cx.SampledSlopePotential.from_file(samples)),
        (
            "piecewise\ngamma_xs = -1,0,2\ngamma_slopes = -1,0,3",
            cx.SampledSlopePotential([-1.0, 0.0, 2.0], [-1.0, 0.0, 3.0]),
        ),
    ]
    for keys, direct in potentials:
        rc = cfgmod.parse_config(f"[potentials]\ngamma_kind = {keys}\n")
        built = cfgmod.build_potential(rc, "gamma")
        assert built == direct and hash(built) == hash(direct)
    assert cx.PowerPotential(3.0) != cx.PowerPotential(3.0, 2.0)
    gains = [
        ("additive", nz.AdditiveGain()),
        ("clipped\ngain_limit = 0.5", nz.ClippedLinearGain(0.5)),
        ("tanh", nz.TanhGain()),
    ]
    grid = DirichletGrid((1.0,), (8,))
    for keys, direct in gains:
        rc = cfgmod.parse_config(f"[noise]\nmode_count = 1\namplitudes = 0.5\ngain = {keys}\n")
        assert cfgmod.build_noise(rc, grid).gain == direct


def test_run_2d_config(tmp_path):
    text = BASIC.replace("dimension = 1", "dimension = 2").replace(
        "nodes = 16", "nodes = 10,12"
    ).replace("extent = 1.0", "extent = 1.0,2.0")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "demo_trajectory.csv").exists()


def test_outputs_byte_identical_across_reruns(tmp_path):
    cfg = write_cfg(tmp_path, BASIC)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert (a / "demo_trajectory.csv").read_bytes() == (b / "demo_trajectory.csv").read_bytes()
    assert (a / "demo_summary.json").read_bytes() == (b / "demo_summary.json").read_bytes()
