"""Fail-closed key=value config files with bracketed sections.

Unknown sections or keys are rejected with line-numbered messages, as are
type errors: a silent typo in a regularization parameter would invalidate an
entire experiment.  Values are plain scalars or comma-separated lists;
full-line comments start with '#'.

Potentials, gains, the noise, the solver config and the initial datum are
built by ``_build`` from keys named after their constructors' parameters
(``gamma_p`` is ``PowerPotential.p``, ``n_b`` that of ``noise.spectral_noise``,
``u0_mode`` the ``mode`` of ``solver.initial_datum``), so each default and each
rule lives in its constructor alone.  Potentials and gains take their
constructor from the kind tables ``POTENTIAL_KINDS`` and ``GAIN_KINDS``; a kind
ignores keys it does not take.  A refused value is reported at the line of the
key its message leads with.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass, replace

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
_PARAM_PARSERS = {"path": str, "kind": str, "scheme": str, "gain": str, "mode": int,
                  "max_inner": int, "mode_count": int, "xs": _parse_floats,
                  "slopes": _parse_floats, "amplitudes": _parse_floats}   # else float


@functools.cache
def _params(ctor):
    """``ctor``'s parameters, read once per constructor."""
    return inspect.signature(ctor).parameters


def _param_keys(ctors, stem, built=()):
    """``<stem><parameter>`` -> parser for every parameter of ``ctors`` not in ``built``."""
    params = dict.fromkeys(p for ctor in ctors for p in _params(ctor))
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
        **_param_keys([noisemod.spectral_noise], "", ("grid",)),
        **_param_keys(GAIN_KINDS.values(), "gain_"),
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

    def require(self, section, key):
        if section not in self.sections:
            raise ConfigError(f"missing required section [{section}]")
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
    """The grid of ``[grid]``; ``extent`` and ``nodes`` give one value per axis,
    or one for every axis."""
    d = rc.require("grid", "dimension")
    if d not in (1, 2):
        raise ConfigError("dimension must be 1 or 2", rc.lines["grid"].get("dimension"))
    axes = {}
    for key in ("extent", "nodes"):
        values = rc.require("grid", key)
        if len(values) not in (1, d):
            raise ConfigError(f"{key} has {len(values)} entries for dimension {d}",
                              rc.lines["grid"].get(key))
        axes[key] = values * d if len(values) == 1 else values
    try:
        return gridmod.DirichletGrid(axes["extent"], axes["nodes"])
    except ValueError as err:
        raise _refusal(rc, "grid", err, {"extents": "extent", "nodes": "nodes"}) from None


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
    params = _params(ctor)
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
    gain = _build_kind(rc, "noise", "gain", rc.get("noise", "gain", "additive"), GAIN_KINDS, "gain")
    return _build(rc, "noise", noisemod.spectral_noise, "", grid=grid, gain=gain)


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
