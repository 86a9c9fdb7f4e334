"""Plain-text key/value run configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .evolve_axi import AxiRunConfig
from .evolve_sym import SymRunConfig
from .params import FluidParams, validate_params

__all__ = [
    "Config",
    "ConfigError",
    "ParseError",
    "UnknownKey",
    "ConstraintViolation",
    "parse_config",
    "check_config",
    "run_config",
    "config_text",
]


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    def __init__(self, line_no: int, line: str, why: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {why} ({line!r})")


class UnknownKey(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown configuration key {name!r}")


class ConstraintViolation(ConfigError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"parameter constraint violated: {detail}")


@dataclass
class Config:
    """Full run configuration; every field has a documented default, and a
    run setting's is that of its run configuration (see `run_config`)."""

    params: FluidParams = field(default_factory=FluidParams)
    r_max: float = 100.0
    nodes_r: int = 512
    nodes_theta: int = 32
    grid_kind: str = "uniform"  # uniform | geometric
    dt: float | None = SymRunConfig.dt
    t_end: float = SymRunConfig.t_end
    steady_tol: float = 1e-8
    slope_tol: float = 0.2
    cfl_safety: float = SymRunConfig.cfl_safety
    amplitude: float = SymRunConfig.amplitude
    support_lo: float = SymRunConfig.support[0]
    support_hi: float = SymRunConfig.support[1]
    mode_ell: int = AxiRunConfig.mode_ell
    output_every: int = SymRunConfig.output_every
    decay_target: float | None = None  # unset: each geometry's own
    seed: int = 0


_PARAM_KEYS = {
    "gamma": ("gamma", float),
    "k_pressure": ("k_pressure", float),
    "mu": ("mu", float),
    "lambda": ("lam", float),
    "rho_plus": ("rho_plus", float),
    "u_b": ("u_b", float),
    "dim_n": ("dim_n", int),
}

# every other field of Config is a key, read by the type it is declared with
_PARSERS = {"float": float, "float | None": float, "int": int, "str": str}
_CONF_KEYS = {f.name: _PARSERS[f.type] for f in fields(Config) if f.name != "params"}


def parse_config(path: str) -> Config:
    """Read `key = value` lines; '#' starts a comment; unknown keys reject.

    A file that cannot be read as UTF-8 text is a ConfigError too.
    """
    param_kw: dict = {}
    conf_kw: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(ln, raw.rstrip("\n"), "expected 'key = value'")
        key, _, value = (piece.strip() for piece in line.partition("="))
        if key in _PARAM_KEYS:
            target, (attr, typ) = param_kw, _PARAM_KEYS[key]
        elif key in _CONF_KEYS:
            target, attr, typ = conf_kw, key, _CONF_KEYS[key]
        else:
            raise UnknownKey(key)
        try:
            target[attr] = typ(value)
        except ValueError:
            raise ParseError(ln, raw.rstrip("\n"),
                             f"cannot parse {key} as {typ.__name__}")
    params = FluidParams(**param_kw)
    report = validate_params(params)
    if not report.ok:
        raise ConstraintViolation("; ".join(report.violations))
    cfg = Config(params=params, **conf_kw)
    check_config(cfg)
    return cfg


def check_config(cfg: Config) -> None:
    """Run-level constraints; every configuration, read from a file or
    changed on the command line, passes through here before it is used."""
    if cfg.grid_kind not in ("uniform", "geometric"):
        raise ConstraintViolation("grid_kind must be 'uniform' or 'geometric'")
    if not (1.0 < cfg.support_lo < cfg.support_hi < cfg.r_max):
        raise ConstraintViolation("support must satisfy 1 < lo < hi < r_max")
    if cfg.seed < 0:
        raise ConstraintViolation(f"seed must be >= 0, got {cfg.seed}")
    for name in ("steady_tol", "slope_tol"):
        value = getattr(cfg, name)
        if not (value > 0.0 and math.isfinite(value)):  # NaN fails too
            raise ConstraintViolation(f"{name} must be positive and finite, got {value}")
    # the run configuration's own rules, whichever subcommand runs: the
    # axisymmetric one checks every rule of the spherical one, and mode_ell
    run_config(cfg, "axi")


def run_config(cfg: Config, geometry: str) -> SymRunConfig:
    """The run configuration of `evolve-<geometry>` ("sym" or "axi") under
    cfg; an unset decay target keeps the geometry's own.  A value the run
    cannot use is a ConstraintViolation."""
    settings = dict(t_end=cfg.t_end, dt=cfg.dt, cfl_safety=cfg.cfl_safety,
                    amplitude=cfg.amplitude, support=(cfg.support_lo, cfg.support_hi),
                    output_every=cfg.output_every)
    if cfg.decay_target is not None:
        settings["decay_target"] = cfg.decay_target
    try:
        if geometry == "sym":
            return SymRunConfig(**settings)
        return AxiRunConfig(mode_ell=cfg.mode_ell, **settings)
    except ValueError as exc:
        raise ConstraintViolation(str(exc)) from exc


def config_text(cfg: Config) -> str:
    """Canonical serialization used for hashing and the manifest."""
    lines = []
    for key, (attr, _) in _PARAM_KEYS.items():
        lines.append(f"{key} = {getattr(cfg.params, attr)!r}")
    for f in fields(Config):
        if f.name == "params":
            continue
        lines.append(f"{f.name} = {getattr(cfg, f.name)!r}")
    return "\n".join(lines) + "\n"
