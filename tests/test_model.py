import dataclasses

import numpy as np
import pytest

from qfog import DetectionSpec, GyroGeometry, OpticalPath, PhasePoint, SourceSpec, WindowMode
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
