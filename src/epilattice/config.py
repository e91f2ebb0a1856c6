"""Flat key = value run configuration.

The on-disk format is one ``key = value`` per line, ``#`` to end-of-line
comments, blank lines ignored, lists comma-separated. No nesting — every
run is fully described by a flat dictionary, so configs diff cleanly and a
manifest can echo them back verbatim (prefixed ``config.``), making any
manifest directly loadable as a config.

Profile values (``rho0``/``rho1``) are short spec strings evaluated on a
grid: a bare number means a uniform profile, ``uniform:v`` the same, and
``bump:height,halfwidth[,c0,c1,...]`` a raised-cosine bump centered at the
given macroscopic coordinates (default: torus center).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidSpecError, IoError
from .grid import TorusGrid, parse_kernel_spec
from .pde import MAX_PDE_DT, cosine_bump

_MANIFEST_PREFIX = "config."


# ---------------------------------------------------------------------------
# key = value text
# ---------------------------------------------------------------------------

def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a dict.

    Raises:
        ConfigError: malformed line or duplicate key (with line number).
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {text!r}")
    return value


def _parse_list(key: str, text: str, item) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: empty list")
    return tuple(item(key, p) for p in parts)


#: Value parsers keyed by a field's annotation (a string, as annotations
#: are postponed in this module).
_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": lambda key, text: text,
    "tuple[int, ...]": lambda key, text: _parse_list(key, text, _parse_int),
    "tuple[float, ...]": lambda key, text: _parse_list(key, text, _parse_float),
}

#: Config keys that name a list field by its single-value accessor.
_ALIASES = {"L": "L_values", "beta": "betas"}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# the configuration record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs beyond its subcommand.

    ``L_values`` and ``betas`` are lists; single-run commands require
    exactly one entry (enforced by the accessors), sweep commands iterate.
    """

    d: int = 1
    L_values: tuple[int, ...] = (100,)
    kernel: str = "meanfield"
    betas: tuple[float, ...] = (2.0,)
    rho0: str = "0.99"
    rho1: str = "0.01"
    alpha: float = 0.25
    replicas: int = 1
    seed: int = 0
    t_end: float = 10.0
    samples: int = 64
    dt: float = 1e-3
    tol: float = 1e-10
    init: str = "random"
    test_functions: str = "one,cos:1,sin:1,cos:2"
    input: str = ""
    mode: str = "both"
    out_dir: str = "."

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d: must be a positive integer, got {self.d}")
        if any(L < 2 for L in self.L_values):
            raise ConfigError(f"L: every value must be >= 2, got {self.L_values}")
        if any(b <= a for a, b in zip(self.L_values, self.L_values[1:])):
            raise ConfigError(f"L: values must be strictly increasing, got {self.L_values}")
        if any(not b > 0 for b in self.betas):
            raise ConfigError(f"beta: must be positive, got {self.betas}")
        if self.replicas < 1:
            raise ConfigError(f"replicas: must be >= 1, got {self.replicas}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {self.seed}")
        if not self.t_end > 0:
            raise ConfigError(f"t_end: must be positive, got {self.t_end}")
        if self.samples < 1:
            raise ConfigError(f"samples: must be >= 1, got {self.samples}")
        if not 0 < self.dt <= MAX_PDE_DT:
            raise ConfigError(f"dt: must be in (0, {MAX_PDE_DT}], got {self.dt}")
        if not self.tol > 0:
            raise ConfigError(f"tol: must be positive, got {self.tol}")
        if self.mode not in ("beta", "initial", "both"):
            raise ConfigError(f"mode: expected beta | initial | both, got {self.mode!r}")
        try:
            parse_kernel_spec(self.kernel)  # fail fast on typos
        except InvalidSpecError as exc:
            raise ConfigError(f"kernel: {exc}") from None

    # -- single-value accessors (commands that take one L / one beta) -------

    @property
    def L(self) -> int:
        if len(self.L_values) != 1:
            raise ConfigError(
                f"this command needs a single L, got {len(self.L_values)} values")
        return self.L_values[0]

    @property
    def beta(self) -> float:
        if len(self.betas) != 1:
            raise ConfigError(
                f"this command needs a single beta, got {len(self.betas)} values")
        return self.betas[0]

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "ExperimentConfig":
        """Build from parsed key/value strings; unknown keys are errors.

        A manifest (keys prefixed ``config.``) is accepted transparently:
        the prefixed subset is extracted and everything else ignored. Each
        value is parsed by its field's annotation; setting one field twice,
        by its key and its alias (``L`` and ``L_values``), is an error.
        """
        if any(k.startswith(_MANIFEST_PREFIX) for k in items):
            items = {k[len(_MANIFEST_PREFIX):]: v for k, v in items.items()
                     if k.startswith(_MANIFEST_PREFIX)}
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, text in items.items():
            name = _ALIASES.get(key, key)
            if name not in types:
                raise ConfigError(f"unknown config key {key!r}")
            if name in kwargs:
                raise ConfigError(f"duplicate key {key!r}: {name!r} is already set")
            kwargs[name] = _PARSERS[types[name]](key, text)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise IoError(f"cannot read config {path}: {exc}") from None
        return cls.from_items(parse_kv_text(text))

    def as_items(self) -> dict[str, str]:
        """Round-trippable flat representation (config keys, not manifest)."""
        keys = {name: key for key, name in _ALIASES.items()}
        return {keys.get(f.name, f.name): _format(getattr(self, f.name))
                for f in fields(self)}


# ---------------------------------------------------------------------------
# profile specs
# ---------------------------------------------------------------------------

def parse_uniform(spec: str, key: str, forms: str = "<v> | uniform:<v>") -> float:
    """The value of a uniform profile spec, ``0.3`` or ``uniform:0.3``; any
    other form is an error whose message lists ``forms``."""
    head, colon, rest = spec.strip().partition(":")
    if colon and head.strip().lower() != "uniform":
        raise ConfigError(f"{key}: expected {forms}, got {spec.strip()!r}")
    return _parse_float(key, rest if colon else head)


def parse_profile(grid: TorusGrid, spec: str, key: str = "profile") -> np.ndarray:
    """Evaluate a profile spec string on a grid.

    Forms: ``0.3`` | ``uniform:0.3`` | ``bump:height,halfwidth[,c0,c1,...]``.
    Bounds (values in [0, 1]) are left to the consumers, which also see the
    combined rho0 + rho1 <= 1 constraint. The extra form ``complement``
    (everything not initially susceptible starts infected, rho1 = 1 - rho0)
    is resolved by :func:`parse_profile_pair`, not here.
    """
    spec = spec.strip()
    head, colon, rest = spec.partition(":")
    if not colon or head.strip().lower() != "bump":
        forms = "<v> | uniform:<v> | bump:height,halfwidth[,c0,c1,...]"
        return np.full(grid.shape, parse_uniform(spec, key, forms))
    parts = _parse_list(key, rest, _parse_float)
    if len(parts) < 2:
        raise ConfigError(f"{key}: bump needs height,halfwidth; got {spec!r}")
    height, halfwidth = parts[0], parts[1]
    center = parts[2:] if len(parts) > 2 else (0.5,) * grid.d
    if len(center) != grid.d:
        raise ConfigError(
            f"{key}: bump center has {len(center)} coordinates, grid is {grid.d}-dimensional")
    return cosine_bump(grid, center, halfwidth, height)


def parse_profile_pair(grid: TorusGrid, rho0_spec: str,
                       rho1_spec: str) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the (rho0, rho1) pair, resolving ``rho1 = complement``.

    ``complement`` makes the initial condition fully seeded: every site not
    susceptible starts infected, the regime in which the final profile
    determines the model parameters (see the inverse problems).
    """
    rho0 = parse_profile(grid, rho0_spec, "rho0")
    if rho1_spec.strip().lower() == "complement":
        return rho0, 1.0 - rho0
    return rho0, parse_profile(grid, rho1_spec, "rho1")
