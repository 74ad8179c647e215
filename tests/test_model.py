import dataclasses
import importlib
import pkgutil
import typing
from dataclasses import replace
from fractions import Fraction
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
                                          (float("-inf"), "-inf"), ("x", "'x'"), (None, "None"), (True, "True"),
                                          pytest.param(10**400, "1" + "0" * 36 + "...", id="10**400"),
                                          pytest.param(10**5000, "an integer of 16610 bits", id="10**5000")])
def test_require_finite_names_the_field_and_value(value, shown):
    # A bool is refused as by _integer; a huge int shows at most 40 characters, even
    # one past the digit limit of str().
    with pytest.raises(ValueError) as err:
        _require_finite(value, "f")
    assert str(err.value) == f"f: must be a finite number, got {shown}"


@pytest.mark.parametrize("value", [0, 1.5, Fraction(1, 3), np.int64(7200000), np.int32(-3), np.float32(0.25)])
def test_require_finite_accepts_numbers(value):
    _require_finite(value, "f")


BENCH = load_config(Path(__file__).resolve().parents[1] / "configs" / "silvestri2024.json")
COUNT = SpuriousCount(101.3, 0.0563)


def _own(cls, *values):
    """``cls`` as its own builder, its fields taking ``values`` in order."""
    return cls, [(field.name, value) for field, value in zip(dataclasses.fields(cls), values)]


# One sample of every dataclass in qfog with a float or int field: a builder and
# its number inputs in order, each named as the builder's errors name it.
_SAMPLES = {
    GyroGeometry: _own(GyroGeometry, 2000.0, 0.1, 1.55e-6),
    SourceSpec: _own(SourceSpec, 2, 4000.0, 0.95, 3.0),
    OpticalPath: _own(OpticalPath, 0.35, 9.3),
    DetectionSpec: _own(DetectionSpec, 156e-12, 1800.0),
    PhasePoint: _own(PhasePoint, 1.0e-3, 0.5),
    SpectralSpec: _own(SpectralSpec, 1550e-9, 1e-9),
    DispersionSpec: _own(DispersionSpec, 0.01, 0.1, 1e-15, 0.2, 0.01),
    PhotonPopulations: _own(PhotonPopulations, 0.95, 0.05),
    SpuriousCount: _own(SpuriousCount, 101.3, 0.0563),
    McConfig: _own(McConfig, 1, 3),
    InstrumentConfig: (lambda c, b, w: replace(BENCH, base_coherence=c, bias_phase_rad=b, rotation_rad_per_s=w),
                       [("base_coherence", 0.98), ("bias_phase_rad", 0.3), ("rotation_rad_per_s", 1e-4)]),
    NoiseBudget: (lambda c, b: assemble_budget(replace(BENCH, base_coherence=c, bias_phase_rad=b)),
                  [("base_coherence", 0.98), ("bias_phase_rad", 0.3)]),
    BiasZoneReport: (lambda p, n, s, lo, hi, t: bias_zone_scan(p, n, COUNT, s, (lo, hi), t),
                     [("pairs", 7.2e6), ("order", 2), ("shot_noise_rad", 3.7e-4), ("phase_range", 0.1),
                      ("phase_range", 3.0), ("safe_threshold_rad", 3.7e-5)]),
    McResult: (lambda r0, r1, tau, t, seed, trials: simulate_uncorrelated(
        [r0, r1], DetectionSpec(tau, t), McConfig(seed, trials)),
               [("singles_rate_per_detector[0]", 1.9e4), ("singles_rate_per_detector[1]", 1.9e4),
                ("jitter_s", 156e-12), ("measurement_time_s", 2.0), ("seed", 1), ("trials", 3)]),
    PhaseEstimateResult: (lambda p, phi, n, c, seed, trials: simulate_experiment(
        p, PhasePoint(phi), n, c, COUNT, McConfig(seed, trials)),
                          [("pairs", 7.2e6), ("sagnac_phase_rad", 0.3), ("order", 2), ("coherence", 0.9),
                           ("seed", 1), ("trials", 50)]),
}


def _sample(cls, x):
    """The sample of ``cls``, its real inputs passed through the converter ``x``."""
    build, inputs = _SAMPLES[cls]
    return build(*(x(v) if isinstance(v, float) else v for _, v in inputs))


def _number_dataclasses() -> set:
    """Every dataclass defined in qfog with a field hinted ``float`` or ``int``."""
    found = set()
    for module in pkgutil.iter_modules(qfog.__path__, "qfog."):
        for cls in vars(importlib.import_module(module.name)).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.name:
                hints = typing.get_type_hints(cls)
                if any(hints[field.name] in (float, int) for field in dataclasses.fields(cls)):
                    found.add(cls)
    return found


def test_float_samples_name_every_dataclass_with_a_float_field():
    # A new value or result type with a float or int field fails here until it has a sample above.
    assert _number_dataclasses() == set(_SAMPLES)


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=[cls.__name__ for cls in _SAMPLES])
def test_value_types_store_python_floats(cls):
    # NumPy 2 keeps a float32 field's single precision against Python floats, so every
    # float field holds the float of its value; int fields such as noon_order stay ints.
    single = _sample(cls, np.float32)
    double = _sample(cls, lambda v: float(np.float32(v)))
    assert type(single) is cls
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        if kind is float or kind is int:
            stored = getattr(single, field.name)
            assert type(stored) is kind, field.name
            assert stored == getattr(double, field.name), field.name


@pytest.mark.parametrize("bad", [True, 10**400], ids=["True", "10**400"])
@pytest.mark.parametrize("cls", list(_SAMPLES), ids=[cls.__name__ for cls in _SAMPLES])
def test_samples_refuse_a_bool_or_an_int_past_the_float_range_by_name(cls, bad):
    # Each number input of each sample in turn: one rule for reals and integers alike.
    build, inputs = _SAMPLES[cls]
    for i, (name, _) in enumerate(inputs):
        with pytest.raises(ValueError) as err:
            build(*(bad if j == i else v for j, (_, v) in enumerate(inputs)))
        assert str(err.value).startswith(f"{name}: "), (name, str(err.value))
        assert len(str(err.value)) < 100, str(err.value)


def test_float32_geometry_gives_a_float_phase():
    geometry = GyroGeometry(np.float32(2000.0), np.float32(0.1), 1.55e-6)
    phase = sagnac_phase(7.29e-5, geometry)
    assert type(phase) is float
    assert phase == sagnac_phase(7.29e-5, GyroGeometry(2000.0, float(np.float32(0.1)), 1.55e-6))
