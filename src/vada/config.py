"""Run configuration: a single UTF-8 JSON file shared by every CLI scenario.

Layout:

    {
      "scenario": "derive-coeffs" | "fiber-sweep" | "allocate"
                  | "simulate" | "verify",
      "model": { exactly one of "rotor_geometry" | "dual_rotor" | "vsa" },
      "params": { scenario-specific keys }
    }

Model sections (each key required unless optional):
  rotor_geometry: "blade_count", "radius", "chord", "pitch_angle",
                  "lift_slope", "air_density"
  dual_rotor:     either {"k_thrust", "k_inflow"} for identical rotors or
                  {"fwd": {...}, "bwd": {...}}; optional "speed_box"
                  [[lo, hi], [lo, hi]] (null upper bound = unbounded)
  vsa:            "law" {"kind": "quadratic"|"exponential"|"cubic", "k",
                  "alpha" (exponential only)}, "pulley_radius", "state" [x1, x2]

Params, per scenario: each key with its default (or "required") and bound.
  derive-coeffs: sample_speed 100, positive; sample_inflow 1
  fiber-sweep:   start [u1, u2], the VSA state (required for a dual rotor);
                 steps 50, an integer from 2 to MAX_SAMPLES (1,000,000);
                 u1_end start u1 + 1; nu_bar 0, read only for a dual rotor
  allocate:      nu_bar 0; force_level required; sigma_des required
  simulate:      mass, nu0, t_end required; dt required, t_end / dt at most
                 MAX_SAMPLES; schedule required: speeds [[v1, v2], ...],
                 forces [f, ...], optional breakpoints [t, ...] (strictly
                 increasing, positive), one fewer than speeds
  verify:        seed 0, an integer of at least 0 (the CLI's --seed replaces
                 it); inject_constant_damping false, a JSON boolean

Every JSON object the run reads (the top level, "model", each model section,
"fwd"/"bwd", "law", params and params.schedule) refuses a key that the run
does not read, such as a misspelled one: "<where>: unknown keys [...]". One
reader reads each of them but "model": it refuses first a value that is not
an object, then such a key, then the first missing key. "model" holds exactly
one section, one that the scenario reads; verify reads no model section.

Every number must be finite: NaN, Infinity and literals that overflow a
float are rejected when the file is read. Numeric fields must be JSON
numbers, not strings or booleans. A pair (vsa.state, a speed_box or speeds
entry, params.start) is a list of exactly two.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .aero import AffineThrustModel, RotorGeometry, derive_coefficients
from .dual_rotor import DualRotor
from .dynamics import InputSchedule
from .vsa import TendonLaw, VsaConfig

__all__ = [
    "ConfigError",
    "MAX_SAMPLES",
    "RunConfig",
    "config_fault",
]

_MODEL_SECTIONS = ("rotor_geometry", "dual_rotor", "vsa")

# The most samples one run may ask for (fiber-sweep steps, simulate t_end / dt),
# so that a config cannot demand more memory than a sweep or a trajectory needs.
MAX_SAMPLES = 1_000_000


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@contextmanager
def config_fault(key: str):
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
    misspelled key is not silently ignored."""
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _json_number(value, where: str):
    """value as parsed (an int or a float) if it is a JSON number and not a
    boolean, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def _float(value, where: str) -> float:
    """A JSON number as a float, else ConfigError.

    An integer literal is read as a float too: the formulas take floats, and
    an int beyond 64 bits that reaches numpy raises TypeError (np.exp of it).
    """
    try:
        return float(_json_number(value, where))
    except OverflowError:
        raise ConfigError(f"{where} overflows a float, got {value!r}") from None


def _integer(least: int, most: float = math.inf):
    """A reader of a whole JSON number from least to most, as an int; its
    faults report the value as configured."""
    def read(value, where: str) -> int:
        number = _json_number(value, where)
        if number < least or number != int(number):
            raise ConfigError(f"{where} must be an integer of at least {least}, got {number!r}")
        if number > most:
            raise ConfigError(f"{where} must be at most {most}, got {number!r}")
        return int(number)
    return read


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


class _Missing(str):
    """The line that refuses a missing key ("{where}": its object, "{key!r}": the key)."""


REQUIRED = _Missing("{where}: missing field {key!r}")


def _read(section, table: dict, where: str, system=None) -> dict:
    """{key: typed value} of each key of `table` in the JSON object `section`, in
    table order (`_PARAMS` describes the entries). It refuses a section that is
    not an object, then a key not in the table, then a missing required key."""
    _known(_object(section, where), table, where)
    values = {}
    for key, (read, default, *bound) in table.items():
        name = f"{where}.{key}"
        if key in section:
            values[key] = read(section[key], name)
        elif isinstance(default, _Missing):
            raise ConfigError(default.format(where=where, key=key))
        else:
            values[key] = default(system, values) if callable(default) else default
        for check in bound:
            check(values[key], name, values)
    return values


class _Object(NamedTuple):
    """The reader of a JSON object: `table`, read by `_read`, gives `make` its
    keyword arguments, and `make` runs under config_fault of the object's name."""

    table: dict
    make: Callable

    def __call__(self, section, where: str):
        values = _read(section, self.table, where)
        with config_fault(where):
            return self.make(**values)


def _list(read, what: str):
    """A reader of a JSON list of `what`, each entry read by `read`."""
    def read_list(values, where: str) -> list:
        if not isinstance(values, list):
            raise ConfigError(f"{where} must be a list of {what}, got {values!r}")
        return [read(v, f"{where}.{i}") for i, v in enumerate(values)]
    return read_list


def _pair(value, where: str, open_above: bool = False) -> tuple[float, float]:
    """A JSON list of exactly two numbers, each read by `_float`, else
    ConfigError; with open_above, a null second entry reads as inf."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where}: expected a pair [a, b] of numbers, got {value!r}")
    first = _float(value[0], f"{where}.0")
    return first, (math.inf if open_above and value[1] is None else _float(value[1], f"{where}.1"))


def _speed_box(box, where: str):
    """[[lo, hi], [lo, hi]], a null hi as inf."""
    if not (isinstance(box, list) and len(box) == 2):
        raise ConfigError(f"{where} must be [[lo, hi], [lo, hi]], got {box!r}")
    return tuple(_pair(lo_hi, f"{where}.{i}", open_above=True) for i, lo_hi in enumerate(box))


_NUMBER = (_float, REQUIRED)
_ROTOR_GEOMETRY = _Object(dict.fromkeys(
    ("blade_count", "radius", "chord", "pitch_angle", "lift_slope", "air_density"), _NUMBER), RotorGeometry)
_THRUST_MODEL = _Object(dict.fromkeys(("k_thrust", "k_inflow"), _NUMBER), AffineThrustModel)
_SPEED_BOX = {"speed_box": (_speed_box, DualRotor.speed_box)}
# dual_rotor's two forms: identical rotors, or one thrust model per rotor
_DUAL_ROTOR = _Object({**_THRUST_MODEL.table, **_SPEED_BOX},
                      lambda speed_box, **model: DualRotor.identical(AffineThrustModel(**model), speed_box))
_DUAL_ROTOR_PAIR = _Object({"fwd": (_THRUST_MODEL, REQUIRED), "bwd": (_THRUST_MODEL, REQUIRED), **_SPEED_BOX},
                           lambda fwd, bwd, speed_box: DualRotor(fwd, bwd, speed_box))
# identical rotors derived from blade geometry
_DERIVED_PAIR = _Object(_ROTOR_GEOMETRY.table,
                        lambda **geom: DualRotor.identical(derive_coefficients(RotorGeometry(**geom))))


def _dual_rotor(section, where: str) -> DualRotor:
    """dual_rotor in the form its keys name: "fwd"/"bwd", else identical rotors."""
    pair = isinstance(section, dict) and ("fwd" in section or "bwd" in section)
    return (_DUAL_ROTOR_PAIR if pair else _DUAL_ROTOR)(section, where)


# kind -> (its TendonLaw constructor, the table of the constructor's parameters)
_LAWS = {"quadratic": (TendonLaw.quadratic, {"k": _NUMBER}), "cubic": (TendonLaw.cubic, {"k": _NUMBER}),
         "exponential": (TendonLaw.exponential, {"k": _NUMBER, "alpha": _NUMBER})}


def _tendon_law(law, where: str):
    """The TendonLaw constructor that the law's "kind" names, given its read
    parameters; the vsa reader calls it, so that its faults are the vsa's."""
    kind = _object(law, where).get("kind")
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ConfigError(f"{where}.kind must be one of {sorted(_LAWS)}, got {kind!r}")
    make, table = _LAWS[kind]
    return partial(make, **_read({k: v for k, v in law.items() if k != "kind"}, table, where))


_VSA = _Object({"law": (_tendon_law, REQUIRED), "pulley_radius": _NUMBER, "state": (_pair, REQUIRED)},
               lambda law, **vsa: VsaConfig(law=law(), **vsa))
_SCHEDULE = _Object({"speeds": (_list(_pair, "pairs"), REQUIRED), "forces": (_list(_float, "numbers"), REQUIRED),
                     "breakpoints": (_list(_float, "numbers"), lambda system, values: [])}, InputSchedule)


def _positive(value: float, where: str, values: dict) -> None:
    if not value > 0.0:
        raise ConfigError(f"{where} must be positive, got {value}")


def _sample_cap(dt: float, where: str, values: dict) -> None:
    # a dt of 0 or less is simulate's to refuse
    if dt > 0.0 and values["t_end"] / dt > MAX_SAMPLES:
        raise ConfigError(f"params: t_end / dt must be at most {MAX_SAMPLES}, got {values['t_end'] / dt}")


# fiber-sweep's keys after start, the same for every model (start's are not)
_SWEEP = {"steps": (_integer(2, MAX_SAMPLES), 50),
          "u1_end": (_float, lambda system, values: values["start"][0] + 1.0)}


def _dual_rotor_sections(table: dict) -> dict:
    """{model section: (its reader, table)} for each section that reads as a
    DualRotor, "dual_rotor" first."""
    return {"dual_rotor": (_dual_rotor, table), "rotor_geometry": (_DERIVED_PAIR, table)}


# scenario -> each model section it reads (None: verify, which reads none) ->
# (the reader of that section's object, which gives the system the run works
# on; {params key: (reader, default[, bound])}, read by `_read` in this order).
# A reader turns a configured value, named "params.<key>", into its typed
# value, else ConfigError. A missing key takes its default: a value, a
# function of (the system, the values read before) or a _Missing line that
# refuses it. A bound checks the typed value, given its name and the values
# read before. The module docstring lists the same keys.
_PARAMS = {
    "derive-coeffs": {"rotor_geometry": (_ROTOR_GEOMETRY, {
        # the quadrature oracle needs a spinning rotor
        "sample_speed": (_float, 100.0, _positive),
        "sample_inflow": (_float, 1.0),
    })},
    "fiber-sweep": {
        **_dual_rotor_sections({
            "start": (_pair, _Missing("params.start required for a dual-rotor fiber sweep")),
            **_SWEEP,
            "nu_bar": (_float, 0.0),
        }),
        "vsa": (_VSA, {"start": (_pair, lambda vsa, values: vsa.state), **_SWEEP}),
    },
    "allocate": _dual_rotor_sections({
        "nu_bar": (_float, 0.0),
        "force_level": (_float, REQUIRED),
        "sigma_des": (_float, REQUIRED),
    }),
    "simulate": _dual_rotor_sections({
        "mass": (_float, REQUIRED),
        "nu0": (_float, REQUIRED),
        "t_end": (_float, REQUIRED),
        "dt": (_float, REQUIRED, _sample_cap),
        "schedule": (_SCHEDULE, _Missing("params.schedule required for simulate")),
    }),
    "verify": {None: (None, {
        "seed": (_integer(0), 0),
        "inject_constant_damping": (_boolean, False),
    })},
}
SCENARIOS = tuple(_PARAMS)


def _as_given(value, where: str):
    return value


# the top level, each value as given, for RunConfig to read
_CONFIG = {"scenario": (_as_given, REQUIRED),
           **dict.fromkeys(("model", "params"), (_as_given, lambda system, values: {}))}


@dataclass(frozen=True)
class RunConfig:
    """A run's configuration as given, and what the run reads of it: `system`,
    the scenario's system built from the model (a RotorGeometry, a VsaConfig
    or a DualRotor; None for verify), and `values`, each params key of the
    scenario's table as a typed value, its default filled in."""

    scenario: str
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    system: object = field(init=False, repr=False)
    values: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        tables = _PARAMS[self.scenario]
        sections = () if None in tables else _MODEL_SECTIONS
        _known(_object(self.model, "model"), sections, "model")
        present = [k for k in sections if k in self.model]
        if sections and len(present) != 1:
            raise ConfigError(
                f"exactly one model section of {_MODEL_SECTIONS} required, found {present}"
            )
        (section,) = present or [None]
        if section not in tables:
            raise ConfigError(f"model section {' or '.join(map(repr, tables))} required for this scenario")
        read, table = tables[section]
        system = None if read is None else read(self.model[section], section)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "values", _read(self.params, table, "params", system))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**_read(data, _CONFIG, "config"))

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
