import dataclasses

import numpy as np
import pytest

from qfog import (DetectionSpec, DispersionSpec, GyroGeometry, OpticalPath, PhasePoint, SourceSpec, SpectralSpec,
                  WindowMode, sagnac_phase)
from qfog.model import _require_finite


def test_valid_types_construct():
    GyroGeometry(1000.0, 0.4, 1550e-9)
    SourceSpec(2, 4000.0, 0.95, 0.0)
    OpticalPath(0.35, 9.3)
    DetectionSpec(156e-12, 1800.0, WindowMode.BINNED)
    PhasePoint(1.0e-3, 0.5)


@pytest.mark.parametrize("kwargs, field", [
    (dict(fiber_length_m=0.0, coil_radius_m=0.4, wavelength_m=1550e-9), "fiber_length_m"),
    (dict(fiber_length_m=-1.0, coil_radius_m=0.4, wavelength_m=1550e-9), "fiber_length_m"),
    (dict(fiber_length_m=float("inf"), coil_radius_m=0.4, wavelength_m=1550e-9), "fiber_length_m"),
    (dict(fiber_length_m=1000.0, coil_radius_m=0.0, wavelength_m=1550e-9), "coil_radius_m"),
    (dict(fiber_length_m=1000.0, coil_radius_m=0.4, wavelength_m=float("nan")), "wavelength_m"),
    (dict(fiber_length_m=1000.0, coil_radius_m=0.4, wavelength_m=50e-9), "wavelength_m"),
    (dict(fiber_length_m=1000.0, coil_radius_m=0.4, wavelength_m=20e-6), "wavelength_m"),
])
def test_geometry_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        GyroGeometry(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    (dict(noon_order=1, pair_rate_hz=1.0, initial_noon_fraction=0.5), "noon_order"),
    (dict(noon_order=2.0, pair_rate_hz=1.0, initial_noon_fraction=0.5), "noon_order"),
    (dict(noon_order=2, pair_rate_hz=-1.0, initial_noon_fraction=0.5), "pair_rate_hz"),
    (dict(noon_order=2, pair_rate_hz=1.0, initial_noon_fraction=0.0), "initial_noon_fraction"),
    (dict(noon_order=2, pair_rate_hz=1.0, initial_noon_fraction=1.5), "initial_noon_fraction"),
    (dict(noon_order=2, pair_rate_hz=1.0, initial_noon_fraction=0.5, dark_rate_hz=-2.0), "dark_rate_hz"),
])
def test_source_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SourceSpec(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    (dict(fiber_loss_db_per_km=-0.1), "fiber_loss_db_per_km"),
    (dict(fiber_loss_db_per_km=0.2, lumped_loss_db=-1.0), "lumped_loss_db"),
])
def test_path_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        OpticalPath(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    (dict(jitter_s=0.0, measurement_time_s=1.0), "jitter_s"),
    (dict(jitter_s=-1e-12, measurement_time_s=1.0), "jitter_s"),
    (dict(jitter_s=1e-12, measurement_time_s=0.0), "measurement_time_s"),
    (dict(jitter_s=2.0, measurement_time_s=1.0), "jitter_s"),
    (dict(jitter_s=1e-12, measurement_time_s=1.0, window_mode="binned"), "window_mode"),
])
def test_detection_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        DetectionSpec(**kwargs)


def test_phase_point_total_and_validation():
    point = PhasePoint(1.5e-3, 0.25)
    assert point.total_rad == 1.5e-3 + 0.25
    with pytest.raises(ValueError, match="sagnac_phase_rad"):
        PhasePoint(float("nan"), 0.0)
    with pytest.raises(ValueError, match="bias_phase_rad"):
        PhasePoint(0.0, float("inf"))


def test_types_are_immutable():
    geom = GyroGeometry(1000.0, 0.4, 1550e-9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.fiber_length_m = 2.0


def test_window_mode_values():
    assert WindowMode("binned") is WindowMode.BINNED
    assert WindowMode("sliding") is WindowMode.SLIDING


@pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                          (float("-inf"), "-inf"), ("x", "'x'"), (None, "None")])
def test_require_finite_names_the_field_and_value(value, shown):
    with pytest.raises(ValueError) as err:
        _require_finite(value, "f")
    assert str(err.value) == f"f: must be a finite number, got {shown}"


@pytest.mark.parametrize("value", [True, 0, 1.5, np.int64(7200000), np.int32(-3), np.float32(0.25)])
def test_require_finite_accepts_numbers(value):
    _require_finite(value, "f")


_FLOAT_FIELDS = [
    (GyroGeometry, (2000.0, 0.1, 1.55e-6)),
    (SourceSpec, (2, 4000.0, 0.95, 3.0)),
    (OpticalPath, (0.35, 9.3)),
    (DetectionSpec, (156e-12, 1800.0)),
    (PhasePoint, (1.0e-3, 0.5)),
    (SpectralSpec, (1550e-9, 1e-9)),
    (DispersionSpec, (0.01, 0.1, 1e-15, 0.2, 0.01)),
]


@pytest.mark.parametrize("cls, values", _FLOAT_FIELDS, ids=[cls.__name__ for cls, _ in _FLOAT_FIELDS])
def test_value_types_store_python_floats(cls, values):
    # NumPy 2 keeps a float32 field's single precision against Python floats, so every
    # validated float field is stored as the float of its value; noon_order stays an int.
    spec = cls(*(v if isinstance(v, int) else np.float32(v) for v in values))
    for field, value in zip(dataclasses.fields(cls), values):
        stored = getattr(spec, field.name)
        assert type(stored) is type(value), field.name
        assert stored == float(np.float32(value)) if type(value) is float else stored == value


def test_float32_geometry_gives_a_float_phase():
    geometry = GyroGeometry(np.float32(2000.0), np.float32(0.1), 1.55e-6)
    phase = sagnac_phase(7.29e-5, geometry)
    assert type(phase) is float
    assert phase == sagnac_phase(7.29e-5, GyroGeometry(2000.0, float(np.float32(0.1)), 1.55e-6))
