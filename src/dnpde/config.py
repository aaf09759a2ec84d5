"""Fail-closed key=value config files with bracketed sections.

Unknown sections or keys are rejected with line-numbered messages, as are
type errors: a silent typo in a regularization parameter would invalidate an
entire experiment.  Values are plain scalars or comma-separated lists;
full-line comments start with '#'.

Potentials, gains, the solver config and the initial datum are built by
``_build`` from keys named after their constructors' parameters (``gamma_p``
is ``PowerPotential.p``, ``u0_mode`` is the ``mode`` of ``solver.initial_datum``),
so each default lives in its constructor alone.  Potentials and gains take
their constructor from the kind tables ``POTENTIAL_KINDS`` and ``GAIN_KINDS``;
a kind ignores keys it does not take.  A refused value is reported at the
line of the key its message leads with.
"""

from __future__ import annotations

import hashlib
import inspect
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


# kind -> constructor; the constructor's parameter names are the key suffixes
POTENTIAL_KINDS = {
    "power": convex.PowerPotential,
    "abs": convex.AbsPotential,
    "huber": convex.HuberPotential,
    "expcosh": convex.ExpCoshPotential,
    "sampled": convex.SampledSlopePotential.from_file,
    "piecewise": convex.SampledSlopePotential,
}
GAIN_KINDS = {
    "additive": noisemod.AdditiveGain,
    "clipped": noisemod.ClippedLinearGain,
    "tanh": noisemod.TanhGain,
}
_PARAM_PARSERS = {"path": str, "kind": str, "scheme": str, "mode": int, "max_inner": int,
                  "xs": _parse_floats, "slopes": _parse_floats}   # else float


def _param_keys(ctors, stem, built=()):
    """``<stem><parameter>`` -> parser for every parameter of ``ctors`` not in ``built``."""
    params = dict.fromkeys(p for ctor in ctors for p in inspect.signature(ctor).parameters)
    return {stem + name: _PARAM_PARSERS.get(name, float) for name in params if name not in built}


# section -> key -> parser
SCHEMA = {
    "grid": {
        "dimension": int,
        "extent": _parse_floats,
        "nodes": _parse_ints,
    },
    "potentials": {
        key: parser for role in ("gamma", "beta") for key, parser in
        {f"{role}_kind": str, **_param_keys(POTENTIAL_KINDS.values(), f"{role}_")}.items()
    },
    "noise": {
        "mode_count": int,
        "amplitudes": _parse_floats,
        "amp_c": float,
        "amp_q": float,
        "gain": str,
        **_param_keys(GAIN_KINDS.values(), "gain_"),
        "n_b": float,
        "master_seed": int,
    },
    "solver": {
        **_param_keys([solvermod.SolverConfig], "", ("grid", "gamma", "beta", "noise")),
        **_param_keys([solvermod.initial_datum], "u0_", ("grid",)),
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
    except ValueError as err:
        keys = {"dimension": "dimension", "extents": "extent", "nodes": "nodes"}
        raise _refusal(rc, "grid", err, keys) from None


def _refusal(rc, section, err, keys, default=None, prefix=""):
    """``ConfigError`` for a builder's ``ValueError``, at the line of the key
    that its message leads with (``keys``: first word -> key), else of
    ``default``."""
    message = str(err)
    key = keys.get(message.split(" ", 1)[0], default)
    return ConfigError(prefix + message, rc.lines.get(section, {}).get(key))


def _build(rc, section, ctor, stem, default=None, prefix="", **built):
    """``ctor(**built, ...)`` with each other parameter from the key
    ``<stem><parameter>`` when the config sets it or ``ctor`` requires it, so
    every default is ``ctor``'s own; a refusal goes through ``_refusal``."""
    params = inspect.signature(ctor).parameters
    keys = {name: stem + name for name in params if name not in built}
    args = {
        name: rc.require(section, key) for name, key in keys.items()
        if rc.has(section, key) or params[name].default is inspect.Parameter.empty
    }
    try:
        return ctor(**built, **args)
    except ValueError as err:
        raise _refusal(rc, section, err, keys, default, prefix) from None


def _build_kind(rc, section, kind_key, kind, kinds, noun, prefix=""):
    """``kinds[kind]`` built from the keys ``<stem>_<parameter>`` (``<stem>``:
    ``kind_key`` less ``_kind``); a refusal that names no parameter is
    reported at ``kind_key``."""
    if kind not in kinds:
        raise ConfigError(f"unknown {noun} kind {kind!r}", rc.lines.get(section, {}).get(kind_key))
    return _build(rc, section, kinds[kind], kind_key.removesuffix("_kind") + "_", kind_key, prefix)


def build_potential(rc: RunConfig, role) -> convex.Potential | None:
    kind = rc.get("potentials", f"{role}_kind", "none")
    if kind == "none":
        return None
    return _build_kind(
        rc, "potentials", f"{role}_kind", kind, POTENTIAL_KINDS, "potential",
        f"invalid {role} potential: ",
    )


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
        if not any(amps):
            raise ConfigError("amplitudes must not be all zero", line("amplitudes"))
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
            squares = np.square(amps)
            square_sum = squares.sum()   # the noise's Hilbert-Schmidt scale
        if not (math.isfinite(q) and all(map(math.isfinite, amps))):
            raise ConfigError("amp_q must be finite and give finite amplitudes", line("amp_q"))
        if not np.isfinite(square_sum):
            key = "amp_c" if np.isinf(squares[0]) else "amp_q"   # b_1 = c
            raise ConfigError(f"{key} must give amplitudes with a finite sum of squares", line(key))
    gain = _build_kind(rc, "noise", "gain", rc.get("noise", "gain", "additive"), GAIN_KINDS, "gain")
    n_b = rc.get("noise", "n_b")
    if n_b is not None and not 0 < n_b < math.inf:
        raise ConfigError("n_b must be positive and finite", line("n_b"))
    try:   # the model refuses non-finite amplitudes and sums of squares
        model = noisemod.NoiseModel(amps, gain)
        return replace(model, bound=noisemod.default_bound(model, grid) if n_b is None else n_b)
    except ValueError as err:
        raise _refusal(rc, "noise", err, {"amplitudes": "amplitudes"}) from None


def build_u0(rc: RunConfig, grid) -> gridmod.GridField:
    return _build(rc, "solver", solvermod.initial_datum, "u0_", prefix="u0_", grid=grid)


def build_solver(rc: RunConfig, grid, gamma, beta, noise) -> solvermod.SolverConfig:
    return _build(
        rc, "solver", solvermod.SolverConfig, "", grid=grid, gamma=gamma, beta=beta, noise=noise,
    )


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
