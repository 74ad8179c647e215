import dataclasses
import importlib
import pkgutil
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qfog
from qfog import (DetectionSpec, DispersionSpec, GyroGeometry, OpticalPath, PhasePoint, PhotonPopulations, SourceSpec,
                  SpectralSpec, SpuriousCount, WindowMode, bias_zone_scan, sagnac_phase)
from qfog.cli import NoiseBudget, assemble_budget
from qfog.config import InstrumentConfig, load_config
from qfog.model import _require_finite
from qfog.montecarlo import McConfig, McResult, PhaseEstimateResult, simulate_experiment, simulate_uncorrelated
from qfog.spurious import BiasZoneReport


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


BENCH = load_config(Path(__file__).resolve().parents[1] / "configs" / "silvestri2024.json")
COUNT = SpuriousCount(101.3, 0.0563)

# One sample of every dataclass in qfog with a float field, built from its real
# inputs passed through the converter ``x``.
_FLOAT_SAMPLES = {
    GyroGeometry: lambda x: GyroGeometry(x(2000.0), x(0.1), x(1.55e-6)),
    SourceSpec: lambda x: SourceSpec(2, x(4000.0), x(0.95), x(3.0)),
    OpticalPath: lambda x: OpticalPath(x(0.35), x(9.3)),
    DetectionSpec: lambda x: DetectionSpec(x(156e-12), x(1800.0)),
    PhasePoint: lambda x: PhasePoint(x(1.0e-3), x(0.5)),
    SpectralSpec: lambda x: SpectralSpec(x(1550e-9), x(1e-9)),
    DispersionSpec: lambda x: DispersionSpec(x(0.01), x(0.1), x(1e-15), x(0.2), x(0.01)),
    PhotonPopulations: lambda x: PhotonPopulations(x(0.95), x(0.05)),
    SpuriousCount: lambda x: SpuriousCount(x(101.3), x(0.0563)),
    InstrumentConfig: lambda x: replace(BENCH, base_coherence=x(0.98), bias_phase_rad=x(0.3),
                                        rotation_rad_per_s=x(1e-4)),
    NoiseBudget: lambda x: assemble_budget(replace(BENCH, base_coherence=x(0.98), bias_phase_rad=x(0.3))),
    BiasZoneReport: lambda x: bias_zone_scan(x(7.2e6), 2, COUNT, x(3.7e-4), (x(0.1), x(3.0)), x(3.7e-5)),
    McResult: lambda x: simulate_uncorrelated([x(1.9e4), x(1.9e4)], DetectionSpec(x(156e-12), x(2.0)),
                                              McConfig(1, 3)),
    PhaseEstimateResult: lambda x: simulate_experiment(x(7.2e6), PhasePoint(x(0.3)), 2, x(0.9), COUNT,
                                                       McConfig(1, 50)),
}


def _float_dataclasses() -> set:
    """Every dataclass defined in qfog with a field hinted ``float``."""
    found = set()
    for module in pkgutil.iter_modules(qfog.__path__, "qfog."):
        for cls in vars(importlib.import_module(module.name)).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.name:
                hints = typing.get_type_hints(cls)
                if any(hints[field.name] is float for field in dataclasses.fields(cls)):
                    found.add(cls)
    return found


def test_float_samples_name_every_dataclass_with_a_float_field():
    # A new value or result type fails here until it has a sample below.
    assert _float_dataclasses() == set(_FLOAT_SAMPLES)


@pytest.mark.parametrize("cls", list(_FLOAT_SAMPLES), ids=[cls.__name__ for cls in _FLOAT_SAMPLES])
def test_value_types_store_python_floats(cls):
    # NumPy 2 keeps a float32 field's single precision against Python floats, so every
    # float field holds the float of its value; int fields such as noon_order stay ints.
    single = _FLOAT_SAMPLES[cls](np.float32)
    double = _FLOAT_SAMPLES[cls](lambda v: float(np.float32(v)))
    assert type(single) is cls
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        if kind is float or kind is int:
            stored = getattr(single, field.name)
            assert type(stored) is kind, field.name
            assert stored == getattr(double, field.name), field.name


def test_float32_geometry_gives_a_float_phase():
    geometry = GyroGeometry(np.float32(2000.0), np.float32(0.1), 1.55e-6)
    phase = sagnac_phase(7.29e-5, geometry)
    assert type(phase) is float
    assert phase == sagnac_phase(7.29e-5, GyroGeometry(2000.0, float(np.float32(0.1)), 1.55e-6))
