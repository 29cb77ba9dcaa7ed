"""Run configuration: a single UTF-8 JSON file shared by every CLI scenario.

Layout:

    {
      "scenario": "derive-coeffs" | "fiber-sweep" | "allocate"
                  | "simulate" | "verify",
      "model": { exactly one of "rotor_geometry" | "dual_rotor" | "vsa" },
      "params": { scenario-specific keys }
    }

Model sections:
  rotor_geometry: blade_count, radius, chord, pitch_angle, lift_slope,
                  air_density
  dual_rotor:     either {"k_thrust", "k_inflow"} for identical rotors or
                  {"fwd": {...}, "bwd": {...}}; optional "speed_box"
                  [[lo, hi], [lo, hi]] (null upper bound = unbounded)
  vsa:            law {"kind": "quadratic"|"exponential"|"cubic", "k",
                  ["alpha"]}, pulley_radius, state [x1, x2]

simulate params.schedule: speeds [[v1, v2], ...], forces [f, ...], optional
breakpoints [t, ...] (strictly increasing, positive), one fewer than speeds;
every entry a JSON number. verify params.seed is an integer of at least 0
(default 0; the CLI's --seed replaces it) and params.inject_constant_damping
a JSON boolean (default false).

Every JSON object the run reads (the top level, "model", each model section,
"fwd"/"bwd", "law", params and params.schedule) refuses a key that the run
does not read, such as a misspelled one: "<where>: unknown keys [...]".
fiber-sweep reads params.nu_bar only for a dual rotor, and verify reads no
model section.

Every number must be finite: NaN, Infinity and literals that overflow a
float are rejected when the file is read. Numeric fields must be JSON
numbers, not strings or booleans. A pair (vsa.state, a speed_box or speeds
entry, params.start) is a list of exactly two. fiber-sweep params.start
defaults to the VSA state; params.steps is an integer of at least 2 (default 50).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .aero import AffineThrustModel, RotorGeometry, derive_coefficients
from .dual_rotor import DualRotor
from .dynamics import InputSchedule
from .vsa import TendonLaw, VsaConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "build_rotor_geometry",
    "build_dual_rotor",
    "build_schedule",
    "build_vsa",
]

SCENARIOS = ("derive-coeffs", "fiber-sweep", "allocate", "simulate", "verify")

_MODEL_SECTIONS = ("rotor_geometry", "dual_rotor", "vsa")

# the params keys each scenario reads (fiber-sweep reads nu_bar only for a dual rotor)
_PARAMS = {
    "derive-coeffs": ("sample_speed", "sample_inflow"),
    "fiber-sweep": ("start", "steps", "u1_end", "nu_bar"),
    "allocate": ("nu_bar", "force_level", "sigma_des"),
    "simulate": ("mass", "nu0", "t_end", "dt", "schedule"),
    "verify": ("seed", "inject_constant_damping"),
}


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@contextmanager
def _config_fault(key: str):
    """A ValueError raised on the configured value `key` as the ConfigError
    "key: reason" (an OverflowError as a float-range fault of `key`); a
    ConfigError, which names its own key, as it is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    except OverflowError as exc:
        reason = exc.args[-1] if exc.args else exc  # Python's own has args (errno, text)
        raise ConfigError(f"{key}: the configured values leave the float range ({reason})") from exc


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        sections = () if self.scenario == "verify" else _MODEL_SECTIONS  # verify reads no model
        _known(self.model, sections, "model")
        present = [k for k in sections if k in self.model]
        if sections and len(present) != 1:
            raise ConfigError(
                f"exactly one model section of {_MODEL_SECTIONS} required, found {present}"
            )
        read = _PARAMS[self.scenario]
        if self.scenario == "fiber-sweep" and "vsa" in self.model:
            read = tuple(k for k in read if k != "nu_bar")
        _known(self.params, read, "params")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"the config must be a JSON object, got {data!r}")
        if "scenario" not in data:
            raise ConfigError("missing required key 'scenario'")
        _known(data, ("scenario", "model", "params"), "config")
        model, params = data.get("model", {}), data.get("params", {})
        if not (isinstance(model, dict) and isinstance(params, dict)
                and all(isinstance(model[k], dict) for k in _MODEL_SECTIONS if k in model)):
            raise ConfigError("'model', 'params' and each model section must be JSON objects")
        return cls(scenario=data["scenario"], model=model, params=params)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(
                    fh,
                    parse_constant=_reject_constant,
                    parse_float=_finite_float,
                    parse_int=_finite_int,
                )
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(data)


def _reject_constant(literal: str):
    raise ConfigError(f"non-finite number {literal} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"number {literal} overflows a float")
    return value


def _finite_int(literal: str) -> int:
    _finite_float(literal)
    return int(literal)


def _known(section, keys, where: str) -> None:
    """Refuse the keys of a JSON object that the run does not read, so that a
    misspelled key is not silently ignored; a value that is not an object is
    left to the field readers."""
    unknown = set(section) - set(keys) if isinstance(section, dict) else ()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _require(section: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {missing}")


def _number(section, key, where: str, default=None) -> float:
    """section[key] as a float if it is a JSON number (not a boolean), else
    ConfigError. A missing key gives `default` when one is set.

    An integer literal is read as a float too: the formulas take floats, and
    an int beyond 64 bits that reaches numpy raises TypeError (np.exp of it).
    """
    value = _json_number(section, key, where, default)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}.{key} overflows a float, got {value!r}") from None


def _json_number(section, key, where: str, default=None):
    """section[key] as parsed (an int or a float) if it is a JSON number and
    not a boolean, else ConfigError; a missing key gives `default`."""
    if default is not None and key not in section:
        return default
    try:
        value = section[key]
    except (KeyError, IndexError, TypeError):
        raise ConfigError(f"{where}: missing field {key!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return value


def _integer(params: dict, key: str, default: int, least: int) -> int:
    """params[key] (or default) as an int, if it is a whole number >= least."""
    value = _json_number(params, key, "params", default)
    if value < least or value != int(value):
        raise ConfigError(f"params.{key} must be an integer of at least {least}, got {value!r}")
    return int(value)


def build_rotor_geometry(model: dict) -> RotorGeometry:
    section = model.get("rotor_geometry")
    if section is None:
        raise ConfigError("model section 'rotor_geometry' required for this scenario")
    keys = ("blade_count", "radius", "chord", "pitch_angle", "lift_slope", "air_density")
    _known(section, keys, "rotor_geometry")
    with _config_fault("rotor_geometry"):
        return RotorGeometry(**{k: _number(section, k, "rotor_geometry") for k in keys})


def _thrust_model(section: dict, where: str, also: tuple = ()) -> AffineThrustModel:
    """The thrust model of `section`, which may hold the keys `also` besides."""
    _known(section, ("k_thrust", "k_inflow", *also), where)
    with _config_fault(where):
        return AffineThrustModel(**{k: _number(section, k, where) for k in ("k_thrust", "k_inflow")})


def build_dual_rotor(model: dict) -> DualRotor:
    section = model.get("dual_rotor")
    if section is None:
        if "rotor_geometry" in model:
            # identical rotors derived from blade geometry
            geom = build_rotor_geometry(model)
            with _config_fault("rotor_geometry"):
                return DualRotor.identical(derive_coefficients(geom))
        raise ConfigError("model section 'dual_rotor' (or 'rotor_geometry') required")
    if "fwd" in section or "bwd" in section:
        _require(section, ("fwd", "bwd"), "dual_rotor")
        _known(section, ("fwd", "bwd", "speed_box"), "dual_rotor")
        fwd = _thrust_model(section["fwd"], "dual_rotor.fwd")
        bwd = _thrust_model(section["bwd"], "dual_rotor.bwd")
    else:
        fwd = bwd = _thrust_model(section, "dual_rotor", also=("speed_box",))
    box = section.get("speed_box")
    if box is None:
        return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd)
    if not (isinstance(box, list) and len(box) == 2):
        raise ConfigError(f"dual_rotor.speed_box must be [[lo, hi], [lo, hi]], got {box!r}")
    speed_box = tuple(
        _pair(lo_hi, f"dual_rotor.speed_box.{i}", open_above=True) for i, lo_hi in enumerate(box)
    )
    with _config_fault("dual_rotor"):
        return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, speed_box=speed_box)


def _numbers(values, where: str) -> list:
    """A JSON list of numbers, each read as `_number` reads one."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    return [_number(values, i, where) for i in range(len(values))]


def _pair(value, where: str, open_above: bool = False) -> tuple[float, float]:
    """A JSON list of exactly two numbers, each read as `_number` reads one, as
    floats, else ConfigError; with open_above, a null second entry reads as inf."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where}: expected a pair [a, b] of numbers, got {value!r}")
    first = _number(value, 0, where)
    return first, (math.inf if open_above and value[1] is None else _number(value, 1, where))


def build_schedule(section: dict) -> InputSchedule:
    if not isinstance(section, dict):
        raise ConfigError(f"params.schedule must be a JSON object, got {section!r}")
    _require(section, ("speeds", "forces"), "params.schedule")
    _known(section, ("speeds", "forces", "breakpoints"), "params.schedule")
    speeds = section["speeds"]
    if not isinstance(speeds, list):
        raise ConfigError(f"params.schedule.speeds must be a list of pairs, got {speeds!r}")
    pairs = [_pair(v, f"params.schedule.speeds.{i}") for i, v in enumerate(speeds)]
    with _config_fault("params.schedule"):
        return InputSchedule(
            speeds=pairs,
            forces=_numbers(section["forces"], "params.schedule.forces"),
            breakpoints=_numbers(section.get("breakpoints", []), "params.schedule.breakpoints"),
        )


# kind -> (constructor, its parameters in call order)
_LAWS = {
    "quadratic": (TendonLaw.quadratic, ("k",)),
    "exponential": (TendonLaw.exponential, ("k", "alpha")),
    "cubic": (TendonLaw.cubic, ("k",)),
}


def build_vsa(model: dict) -> VsaConfig:
    section = model.get("vsa")
    if section is None:
        raise ConfigError("model section 'vsa' required for this scenario")
    _require(section, ("law", "pulley_radius", "state"), "vsa")
    _known(section, ("law", "pulley_radius", "state"), "vsa")
    law = section["law"]
    kind = law.get("kind") if isinstance(law, dict) else None
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ConfigError(f"vsa.law.kind must be one of {sorted(_LAWS)}, got {kind!r}")
    make_law, keys = _LAWS[kind]
    _known(law, ("kind", *keys), "vsa.law")
    law_params = [_number(law, key, "vsa.law") for key in keys]
    pulley_radius = _number(section, "pulley_radius", "vsa")
    state = _pair(section["state"], "vsa.state")
    with _config_fault("vsa"):
        return VsaConfig(law=make_law(*law_params), pulley_radius=pulley_radius, state=state)
