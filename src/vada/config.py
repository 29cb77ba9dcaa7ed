"""Run configuration: a single JSON file shared by every CLI scenario.

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
breakpoints [t, ...] (strictly increasing, positive), one fewer than speeds.

Every number must be finite: NaN, Infinity and literals that overflow a
float are rejected when the file is read.
"""

from __future__ import annotations

import json
import math
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


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        present = [k for k in _MODEL_SECTIONS if k in self.model]
        if self.scenario != "verify" and len(present) != 1:
            raise ConfigError(
                f"exactly one model section of {_MODEL_SECTIONS} required, found {present}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if "scenario" not in data:
            raise ConfigError("missing required key 'scenario'")
        unknown = set(data) - {"scenario", "model", "params"}
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        return cls(
            scenario=data["scenario"],
            model=data.get("model", {}),
            params=data.get("params", {}),
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(
                    fh,
                    parse_constant=_reject_constant,
                    parse_float=_finite_float,
                    parse_int=_finite_int,
                )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "model": self.model, "params": self.params}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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


def _require(section: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing field(s) {missing}")


def build_rotor_geometry(model: dict) -> RotorGeometry:
    section = model.get("rotor_geometry")
    if section is None:
        raise ConfigError("model section 'rotor_geometry' required for this scenario")
    keys = ("blade_count", "radius", "chord", "pitch_angle", "lift_slope", "air_density")
    _require(section, keys, "rotor_geometry")
    try:
        return RotorGeometry(**{k: section[k] for k in keys})
    except ValueError as exc:
        raise ConfigError(f"rotor_geometry: {exc}") from exc


def _thrust_model(section: dict, where: str) -> AffineThrustModel:
    _require(section, ("k_thrust", "k_inflow"), where)
    try:
        return AffineThrustModel(k_thrust=section["k_thrust"], k_inflow=section["k_inflow"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_dual_rotor(model: dict) -> DualRotor:
    section = model.get("dual_rotor")
    if section is None:
        if "rotor_geometry" in model:
            # identical rotors derived from blade geometry
            coeffs = derive_coefficients(build_rotor_geometry(model))
            return DualRotor.identical(coeffs)
        raise ConfigError("model section 'dual_rotor' (or 'rotor_geometry') required")
    if "fwd" in section or "bwd" in section:
        _require(section, ("fwd", "bwd"), "dual_rotor")
        fwd = _thrust_model(section["fwd"], "dual_rotor.fwd")
        bwd = _thrust_model(section["bwd"], "dual_rotor.bwd")
    else:
        fwd = bwd = _thrust_model(section, "dual_rotor")
    box = section.get("speed_box")
    if box is None:
        return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd)
    speed_box = tuple(
        (float(lo), math.inf if hi is None else float(hi)) for lo, hi in box
    )
    return DualRotor(rotor_fwd=fwd, rotor_bwd=bwd, speed_box=speed_box)


def build_schedule(section: dict) -> InputSchedule:
    _require(section, ("speeds", "forces"), "params.schedule")
    try:
        speeds = [tuple(float(x) for x in v) for v in section["speeds"]]
        if any(len(v) != 2 for v in speeds):
            raise ValueError(f"each speeds entry must be a pair [v1, v2], got {section['speeds']}")
        return InputSchedule(
            speeds=speeds,
            forces=[float(f) for f in section["forces"]],
            breakpoints=[float(b) for b in section.get("breakpoints", [])],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params.schedule: {exc}") from exc


_LAW_BUILDERS = {
    "quadratic": lambda law: TendonLaw.quadratic(law["k"]),
    "exponential": lambda law: TendonLaw.exponential(law["k"], law["alpha"]),
    "cubic": lambda law: TendonLaw.cubic(law["k"]),
}


def build_vsa(model: dict) -> VsaConfig:
    section = model.get("vsa")
    if section is None:
        raise ConfigError("model section 'vsa' required for this scenario")
    _require(section, ("law", "pulley_radius", "state"), "vsa")
    law = section["law"]
    kind = law.get("kind")
    if kind not in _LAW_BUILDERS:
        raise ConfigError(f"vsa.law.kind must be one of {sorted(_LAW_BUILDERS)}, got {kind!r}")
    if "k" not in law or (kind == "exponential" and "alpha" not in law):
        raise ConfigError(f"vsa.law: missing parameter(s) for kind {kind!r}")
    try:
        return VsaConfig(
            law=_LAW_BUILDERS[kind](law),
            pulley_radius=section["pulley_radius"],
            state=tuple(section["state"]),
        )
    except ValueError as exc:
        raise ConfigError(f"vsa: {exc}") from exc
