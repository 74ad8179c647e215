"""JSON instrument-config loading, validation and serialization.

Configs are strict: every key must be known (a typo in a physics config
should fail loudly, not silently fall back to a default) and every value
must satisfy the invariants of the domain type it feeds.  The schema is
read from the field types of :class:`InstrumentConfig` and the dataclasses
it nests.  Parse failures (unreadable file, bad JSON) and validation
failures (bad schema or physics) raise distinct exception types so the
CLI can report distinct exit codes.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

from .dispersion import DispersionSpec, SpectralSpec
from .model import DetectionSpec, GyroGeometry, OpticalPath, SourceSpec, WindowMode, _require, _require_finite


class ConfigError(Exception):
    pass


class ConfigParseError(ConfigError):
    """The config file could not be read or is not valid JSON."""


class ConfigValidationError(ConfigError):
    """The config parsed but violates the schema or a physics invariant."""


@dataclass(frozen=True)
class InstrumentConfig:
    """Complete instrument description consumed by every CLI command."""

    geometry: GyroGeometry
    source: SourceSpec
    path: OpticalPath
    detection: DetectionSpec
    spectrum: SpectralSpec
    dispersion: DispersionSpec = DispersionSpec()
    base_coherence: float = 1.0
    bias_phase_rad: float = 0.0
    rotation_rad_per_s: float = 0.0

    def __post_init__(self) -> None:
        coherence = self.base_coherence
        object.__setattr__(self, "base_coherence", _require_finite(coherence, "base_coherence"))
        _require(0.0 < self.base_coherence <= 1.0, "base_coherence", f"must lie in (0, 1], got {coherence}")
        for name in ("bias_phase_rad", "rotation_rad_per_s"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))


TOP_LEVEL = "top level"


@functools.cache
def _field_types(cls) -> dict:
    """``{name: (type, required)}`` for the fields of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _build(cls, data, where: str):
    """Build the dataclass ``cls`` from a parsed JSON object, driven by its field types.

    A ``WindowMode`` field takes its string value; a field of any other
    dataclass type is a nested section built recursively; every other value,
    a number included, goes to ``cls`` as JSON parsed it, and ``cls``
    checks it.  Fields without a default are required.  ``where`` names the
    object in error messages: ``TOP_LEVEL``, or a section name that
    prefixes its errors as ``section: key: message``.
    """
    if not isinstance(data, dict):
        raise ConfigValidationError(f"{where}: expected an object, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = [name for name, (_, required) in types.items() if required and name not in data]
    if missing:
        noun = "section(s)" if all(is_dataclass(types[name][0]) for name in missing) else "key(s)"
        raise ConfigValidationError(f"{where}: missing required {noun} {missing}")
    try:
        return cls(**{name: _value(types[name][0], value, name) for name, value in data.items()})
    except ValueError as exc:
        raise ConfigValidationError(str(exc) if where == TOP_LEVEL else f"{where}: {exc}") from exc


def _value(kind, value, key: str):
    if kind is WindowMode:
        try:
            return WindowMode(value)
        except ValueError:
            raise ValueError(f"{key}: must be one of {[m.value for m in WindowMode]}, got {value!r}") from None
    return _build(kind, value, key) if is_dataclass(kind) else value


def config_from_dict(data: dict) -> InstrumentConfig:
    return _build(InstrumentConfig, data, TOP_LEVEL)


def config_to_dict(cfg: InstrumentConfig) -> dict:
    """Inverse of :func:`config_from_dict`; round-trips exactly."""
    return asdict(cfg, dict_factory=lambda items: {
        key: value.value if isinstance(value, WindowMode) else value for key, value in items})


def load_config(path) -> InstrumentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON's encoding, whatever the locale
    except OSError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path}: not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ConfigParseError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg: InstrumentConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"
