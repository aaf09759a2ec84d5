"""Fail-closed key=value config files with bracketed sections.

Unknown sections or keys are rejected with line-numbered messages, as are
type errors: a silent typo in a regularization parameter would invalidate an
entire experiment.  Values are plain scalars or comma-separated lists;
full-line comments start with '#'.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from dnpde import convex, grid as gridmod, noise as noisemod, solver as solvermod

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(Exception):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _parse_floats(s):
    return tuple(float(tok) for tok in s.split(","))


def _parse_ints(s):
    return tuple(int(tok) for tok in s.split(","))


def _parse_strs(s):
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


# section -> key -> parser
SCHEMA = {
    "grid": {
        "dimension": int,
        "extent": _parse_floats,
        "nodes": _parse_ints,
    },
    "potentials": {
        "gamma_kind": str,
        "gamma_p": float,
        "gamma_scale": float,
        "gamma_delta": float,
        "gamma_path": str,
        "gamma_xs": _parse_floats,
        "gamma_slopes": _parse_floats,
        "beta_kind": str,
        "beta_p": float,
        "beta_scale": float,
        "beta_delta": float,
        "beta_path": str,
        "beta_xs": _parse_floats,
        "beta_slopes": _parse_floats,
    },
    "noise": {
        "mode_count": int,
        "amplitudes": _parse_floats,
        "amp_c": float,
        "amp_q": float,
        "gain": str,
        "gain_limit": float,
        "n_b": float,
        "master_seed": int,
    },
    "solver": {
        "lambda_yosida": float,
        "lambda_visc": float,
        "dt": float,
        "horizon": float,
        "scheme": str,
        "eps_inner": float,
        "max_inner": int,
        "u0_kind": str,
        "u0_mode": int,
        "u0_amplitude": float,
        "u0_path": str,
    },
    "verify": {
        "families": _parse_strs,
    },
    "output": {
        "dir": str,
        "prefix": str,
        "dump_every": int,
    },
}


@dataclass
class RunConfig:
    """Parsed config: per-section typed values plus source lines and checksum."""

    sections: dict          # section -> key -> value
    lines: dict             # section -> key -> source line number
    checksum: str

    def has(self, section, key=None):
        if key is None:
            return section in self.sections
        return section in self.sections and key in self.sections[section]

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section, key=None):
        if section not in self.sections:
            raise ConfigError(f"missing required section [{section}]")
        if key is None:
            return self.sections[section]
        if key not in self.sections[section]:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return self.sections[section][key]


def parse_config(text):
    sections: dict = {}
    lines: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            lines[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        try:
            parsed = SCHEMA[current][key](value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {err}", lineno) from None
        sections[current][key] = parsed
        lines[current][key] = lineno
    checksum = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(sections, lines, checksum)


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

def build_grid(rc: RunConfig) -> gridmod.DirichletGrid:
    rc.require("grid")
    d = rc.require("grid", "dimension")
    extent = rc.require("grid", "extent")
    nodes = rc.require("grid", "nodes")
    if len(extent) == 1:
        extent = extent * d
    if len(nodes) == 1:
        nodes = nodes * d
    if len(extent) != d or len(nodes) != d:
        raise ConfigError(
            "extent/nodes arity does not match dimension",
            rc.lines["grid"].get("extent"),
        )
    try:
        return gridmod.DirichletGrid(tuple(extent), tuple(nodes))
    except ValueError as err:   # name the key the message is about
        key = next((k for k in ("extent", "dimension") if k in str(err)), "nodes")
        raise ConfigError(str(err), rc.lines["grid"].get(key)) from None


def build_potential(rc: RunConfig, role) -> convex.Potential | None:
    kind = rc.get("potentials", f"{role}_kind", "none")
    if kind == "none":
        return None
    params = {}
    if rc.has("potentials", f"{role}_scale"):
        params["scale"] = rc.get("potentials", f"{role}_scale")
    try:
        if kind == "power":
            return convex.PowerPotential(rc.require("potentials", f"{role}_p"), **params)
        if kind == "abs":
            return convex.AbsPotential(**params)
        if kind == "huber":
            return convex.HuberPotential(
                rc.get("potentials", f"{role}_delta", 1.0), **params
            )
        if kind == "expcosh":
            return convex.ExpCoshPotential(**params)
        if kind == "sampled":
            return convex.SampledSlopePotential.from_file(
                rc.require("potentials", f"{role}_path")
            )
        if kind == "piecewise":
            return convex.SampledSlopePotential(
                rc.require("potentials", f"{role}_xs"),
                rc.require("potentials", f"{role}_slopes"),
            )
    except ValueError as err:
        raise ConfigError(
            f"invalid {role} potential: {err}",
            rc.lines.get("potentials", {}).get(f"{role}_kind"),
        ) from None
    raise ConfigError(
        f"unknown potential kind {kind!r}",
        rc.lines.get("potentials", {}).get(f"{role}_kind"),
    )


def _finite_square_sum(amps):
    """Whether sum b_k**2, the noise's Hilbert-Schmidt scale, is finite."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.sum(np.square(amps))))


def build_noise(rc: RunConfig, grid) -> noisemod.NoiseModel | None:
    if not rc.has("noise"):
        return None
    line = rc.lines["noise"].get
    K = rc.require("noise", "mode_count")
    if K < 1:
        raise ConfigError("mode_count must be >= 1", line("mode_count"))
    if K > math.prod(grid.nodes):
        raise ConfigError(
            f"mode_count {K} exceeds the {math.prod(grid.nodes)} sine modes of the grid",
            line("mode_count"),
        )
    if rc.has("noise", "amplitudes"):
        amps = rc.get("noise", "amplitudes")
        if len(amps) != K:
            raise ConfigError(
                f"amplitudes list has {len(amps)} entries, mode_count is {K}",
                line("amplitudes"),
            )
        if not all(map(math.isfinite, amps)) or not any(amps):
            raise ConfigError("amplitudes must be finite and not all zero", line("amplitudes"))
        if not _finite_square_sum(amps):
            raise ConfigError("amplitudes must have a finite sum of squares", line("amplitudes"))
    else:
        c = rc.get("noise", "amp_c")
        q = rc.get("noise", "amp_q")
        if c is None or q is None:
            raise ConfigError(
                "noise needs either 'amplitudes' or the power law 'amp_c'/'amp_q'"
            )
        if not 0 < c < math.inf:
            raise ConfigError("amp_c must be positive and finite", line("amp_c"))
        with np.errstate(over="ignore"):
            amps = noisemod.amplitudes_power_law(K, c, q)
        if not (math.isfinite(q) and all(map(math.isfinite, amps))):
            raise ConfigError("amp_q must be finite and give finite amplitudes", line("amp_q"))
        if not _finite_square_sum(amps):
            key = "amp_c" if not _finite_square_sum((c,)) else "amp_q"
            raise ConfigError(f"{key} must give amplitudes with a finite sum of squares", line(key))
    gain_kind = rc.get("noise", "gain", "additive")
    gain_params = {}
    if gain_kind == "clipped" and rc.has("noise", "gain_limit"):
        gain_params["limit"] = rc.get("noise", "gain_limit")
    try:
        gain = noisemod.make_gain(gain_kind, **gain_params)
    except ValueError as err:
        raise ConfigError(str(err), line("gain")) from None
    n_b = rc.get("noise", "n_b")
    if n_b is None:
        n_b = noisemod.default_bound(noisemod.NoiseModel(amps, gain), grid)
    elif not 0 < n_b < math.inf:
        raise ConfigError("n_b must be positive and finite", line("n_b"))
    return noisemod.NoiseModel(amps, gain, n_b)


def build_u0(rc: RunConfig, grid) -> gridmod.GridField:
    kind = rc.get("solver", "u0_kind", "zero")
    amplitude = rc.get("solver", "u0_amplitude", 1.0)
    if not math.isfinite(amplitude):
        raise ConfigError("u0_amplitude must be finite", rc.lines["solver"].get("u0_amplitude"))
    key = {"eigenmode": "u0_mode", "file": "u0_path"}.get(kind, "u0_kind")   # what a refusal names
    try:
        return solvermod.initial_datum(
            grid,
            kind,
            mode=rc.get("solver", "u0_mode", 1),
            amplitude=amplitude,
            path=rc.require("solver", "u0_path") if kind == "file" else None,
        )
    except (ValueError, OSError) as err:
        raise ConfigError(f"{key}: {err}", rc.lines["solver"].get(key)) from None


def build_solver(rc: RunConfig, grid, gamma, beta, noise) -> solvermod.SolverConfig:
    try:
        return solvermod.SolverConfig(
            grid=grid,
            gamma=gamma,
            beta=beta,
            noise=noise,
            lambda_yosida=rc.require("solver", "lambda_yosida"),
            dt=rc.require("solver", "dt"),
            horizon=rc.require("solver", "horizon"),
            lambda_visc=rc.get("solver", "lambda_visc"),
            scheme=rc.get("solver", "scheme", "implicit_opt"),
            eps_inner=rc.get("solver", "eps_inner", 1e-10),
            max_inner=rc.get("solver", "max_inner", 100),
        )
    except ValueError as err:   # the message leads with the key it refuses
        key = next((k for k in SCHEMA["solver"] if str(err).startswith(k)), None)
        raise ConfigError(str(err), rc.lines["solver"].get(key)) from None


def master_seed(rc: RunConfig, override=None):
    if override is not None:
        return int(override)
    return rc.get("noise", "master_seed", 0)


def build_problem(rc: RunConfig, **overrides):
    """Grid, potentials, noise, solver config and initial datum in one call.

    Each keyword names a section and maps keys to parsed values that replace
    the file's, e.g. ``solver={"lambda_visc": 0.01}``; their source lines are
    dropped, so a refusal of such a value names no line.  An unknown section
    or key raises ``ConfigError``; ``rc`` itself is not changed.
    """
    sections, lines = dict(rc.sections), dict(rc.lines)
    for section, values in overrides.items():
        if section not in SCHEMA or not set(values) <= set(SCHEMA[section]):
            raise ConfigError(f"unknown section or key in override {section}={values!r}")
        sections[section] = {**sections.get(section, {}), **values}
        lines[section] = {k: n for k, n in lines.get(section, {}).items() if k not in values}
    rc = replace(rc, sections=sections, lines=lines)
    grid = build_grid(rc)
    gamma = build_potential(rc, "gamma")
    beta = build_potential(rc, "beta")
    noise = build_noise(rc, grid)
    cfg = build_solver(rc, grid, gamma, beta, noise)
    u0 = build_u0(rc, grid)
    return cfg, u0
