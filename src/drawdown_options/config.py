"""Flat key/value run configuration.

Grammar: one ``key = value`` pair per line, dotted keys for sections, full
lines starting with ``#`` are comments, blank lines ignored.  Keys are fixed
(no schema file); an unknown or malformed key fails loudly with the key named
so a typo never silently falls back to a default.

Required keys::

    r, strike, payoff, delta.family, delta.params, sigma.family, sigma.params

Optional keys (with defaults)::

    domain.s_max (20 strike), domain.y_max (20 strike),
    grid.s_min (0.05 strike), grid.s_max (domain.s_max), grid.y_max
    (domain.y_max), grid.n_s (64), grid.n_y (64),
    sim.n_paths (20000), sim.dt (0.005), sim.horizon (120), sim.seed (0),
    sim.block_size (32768), output_dir (out)

``*.params`` values are comma-separated floats, one per family parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientField, ModelSpec
from .errors import ConfigError
from .montecarlo import SimConfig

_MODEL_KEYS = {
    "r",
    "strike",
    "payoff",
    "delta.family",
    "delta.params",
    "sigma.family",
    "sigma.params",
    "domain.s_max",
    "domain.y_max",
}
_GRID_KEYS = {"grid.s_min", "grid.s_max", "grid.y_max", "grid.n_s", "grid.n_y"}
_SIM_KEYS = {
    "sim.n_paths",
    "sim.dt",
    "sim.horizon",
    "sim.seed",
    "sim.block_size",
}
_OTHER_KEYS = {"output_dir"}
KNOWN_KEYS = _MODEL_KEYS | _GRID_KEYS | _SIM_KEYS | _OTHER_KEYS

_REQUIRED_KEYS = (
    "r",
    "strike",
    "payoff",
    "delta.family",
    "delta.params",
    "sigma.family",
    "sigma.params",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, export grid, simulation, output."""

    spec: ModelSpec
    s_min: float
    s_max: float
    y_max: float
    n_s: int
    n_y: int
    sim: SimConfig
    output_dir: str

    def __post_init__(self):
        if not self.s_min > 0:
            raise ConfigError(f"grid.s_min must be positive, got {self.s_min}")
        if not self.s_max > self.s_min:
            raise ConfigError(
                f"grid.s_max must exceed grid.s_min, got [{self.s_min}, {self.s_max}]"
            )
        if not self.y_max > 0:
            raise ConfigError(f"grid.y_max must be positive, got {self.y_max}")
        if self.n_s < 16 or self.n_y < 16:
            raise ConfigError(
                f"grid counts must be at least 16, got n_s={self.n_s}, n_y={self.n_y}"
            )


def parse_flat(text: str) -> dict[str, str]:
    """Parse the flat grammar into a key -> raw string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _get(pairs: dict[str, str], key: str, convert, default=None):
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return convert(pairs[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {pairs[key]!r}") from exc


def _params(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(","))


def _payoff(raw: str) -> str:
    if raw not in ("call", "put"):
        raise ValueError(raw)
    return raw


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Assemble a RunConfig from parsed pairs, rejecting unknown keys."""
    for key in pairs:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in pairs:
            raise ConfigError(f"missing required config key {key!r}")

    strike = _get(pairs, "strike", float)
    dom_s = _get(pairs, "domain.s_max", float, default=20.0 * strike)
    dom_y = _get(pairs, "domain.y_max", float, default=20.0 * strike)
    try:
        spec = ModelSpec(
            r=_get(pairs, "r", float),
            strike=strike,
            payoff_kind=_get(pairs, "payoff", _payoff),
            delta_field=CoefficientField(
                family=pairs["delta.family"],
                params=_get(pairs, "delta.params", _params),
            ),
            sigma_field=CoefficientField(
                family=pairs["sigma.family"],
                params=_get(pairs, "sigma.params", _params),
            ),
            domain_s_max=dom_s,
            domain_y_max=dom_y,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid model configuration: {exc}") from exc

    sim = SimConfig(
        n_paths=_get(pairs, "sim.n_paths", int, default=20000),
        dt=_get(pairs, "sim.dt", float, default=0.005),
        horizon=_get(pairs, "sim.horizon", float, default=120.0),
        seed=_get(pairs, "sim.seed", int, default=0),
        block_size=_get(pairs, "sim.block_size", int, default=SimConfig.block_size),
    )
    return RunConfig(
        spec=spec,
        s_min=_get(pairs, "grid.s_min", float, default=0.05 * strike),
        s_max=_get(pairs, "grid.s_max", float, default=dom_s),
        y_max=_get(pairs, "grid.y_max", float, default=dom_y),
        n_s=_get(pairs, "grid.n_s", int, default=64),
        n_y=_get(pairs, "grid.n_y", int, default=64),
        sim=sim,
        output_dir=pairs.get("output_dir", "out"),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return build_config(parse_flat(text))
