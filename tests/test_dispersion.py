import math

import numpy as np
import pytest

from qfog import (
    DispersionSpec,
    PhasePoint,
    SpectralSpec,
    chromatic_delay,
    coherence_factor,
    coherence_time,
    coincidence_probability,
    pmd_delay,
    pump_drift_phase_error,
)

SPECTRUM = SpectralSpec(center_wavelength_m=1550e-9, linewidth_m=1e-9)


def test_coherence_time_benchmark():
    tau = coherence_time(SPECTRUM)
    assert tau == pytest.approx(8e-12, rel=0.02)
    # Doubling the linewidth halves the coherence time.
    wide = SpectralSpec(1550e-9, 2e-9)
    assert coherence_time(wide) == pytest.approx(0.5 * tau, rel=1e-12)
    assert coherence_time(wide) == pytest.approx(4e-12, rel=0.02)


def test_coherence_factor_values():
    assert coherence_factor(0.0, 8e-12) == 1.0
    assert coherence_factor(8e-12, 8e-12) == pytest.approx(math.exp(-3.5), rel=1e-12)
    tau = coherence_time(SPECTRUM)
    assert coherence_factor(0.02e-12, tau) == pytest.approx(0.999978, abs=1e-6)


def test_coherence_factor_bounded_and_monotone():
    rng = np.random.default_rng(41)
    for _ in range(100):
        tau = float(rng.uniform(1e-13, 1e-10))
        dt = float(rng.uniform(-5.0, 5.0)) * tau
        c = coherence_factor(dt, tau)
        assert 0.0 < c <= 1.0
        assert coherence_factor(1.1 * abs(dt), tau) <= c
    with pytest.raises(ValueError, match="tau_s"):
        coherence_factor(1e-12, 0.0)


def test_chromatic_delay():
    disp = DispersionSpec(chromatic_coeff_ps_per_km_nm=0.01)
    assert chromatic_delay(disp, 0.0, SPECTRUM) == 0.0
    dt = chromatic_delay(disp, 2000.0, SPECTRUM)
    assert dt == pytest.approx(0.02e-12, rel=1e-12)
    # 2 km of fiber eats almost nothing of the fringe visibility.
    assert coherence_factor(dt, coherence_time(SPECTRUM)) >= 0.9999


def test_chromatic_reduction_leaves_measured_coherence_dominant():
    disp = DispersionSpec()
    penalty = coherence_factor(chromatic_delay(disp, 2000.0, SPECTRUM),
                               coherence_time(SPECTRUM))
    measured = 0.96
    assert measured * penalty == pytest.approx(measured, abs=3e-5)


def test_pmd_delay():
    disp = DispersionSpec(pmd_coeff_ps_per_sqrt_km=0.5)
    assert pmd_delay(disp, 0.0) == 0.0
    assert pmd_delay(disp, 4000.0) == pytest.approx(1e-12, rel=1e-12)
    penalty = coherence_factor(1e-12, coherence_time(SPECTRUM))
    assert penalty == pytest.approx(0.947, abs=1e-3)


def test_pump_drift_phase_error():
    assert pump_drift_phase_error(0.2, 0.0, SPECTRUM, 5.5e-3) == (0.0, 0.0)
    relative, absolute = pump_drift_phase_error(0.2, 0.01, SPECTRUM, 5.5e-3)
    assert relative == pytest.approx(1.29e-6, rel=0.01)
    assert 1e-6 <= relative <= 2e-6
    assert absolute == pytest.approx(7.1e-9, rel=0.01)


def test_coherence_factors_compose_multiplicatively():
    tau = coherence_time(SPECTRUM)
    c1 = coherence_factor(0.5e-12, tau)
    c2 = coherence_factor(1.2e-12, tau)
    total = c1 * c2
    assert 0.0 < total < min(c1, c2)
    # For Gaussian factors, multiplying is the same as adding the
    # independent delays in quadrature.
    assert total == pytest.approx(coherence_factor(math.hypot(0.5e-12, 1.2e-12), tau), rel=1e-12)


def test_reduced_coherence_keeps_fringe_extrema():
    grid = np.linspace(0.0, math.pi, 20001)
    full = np.array([coincidence_probability(1e6, PhasePoint(p), 2, 1.0) for p in grid])
    faded = np.array([coincidence_probability(1e6, PhasePoint(p), 2, 0.5) for p in grid])
    assert faded.max() < full.max()
    assert np.argmax(full) == np.argmax(faded)
    assert np.argmin(full) == np.argmin(faded)


# NumPy 2 keeps a float32 operand's single precision against Python floats,
# so each entry point converts the scalars it validated.
FLOAT32_CALLS = {
    "coherence_factor": (lambda dt, tau: (coherence_factor(dt, tau),), (3.3e-12, 8.1e-12)),
    "chromatic_delay": (lambda z: (chromatic_delay(DispersionSpec(), z, SPECTRUM),), (2013.7,)),
    "pmd_delay": (lambda z: (pmd_delay(DispersionSpec(), z),), (2013.7,)),
    "pump_drift_phase_error": (lambda d, s, phi: pump_drift_phase_error(d, s, SPECTRUM, phi), (0.2, 0.013, 1.3e-4)),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_float32_inputs_give_the_float64_results_as_python_floats(name):
    call, values = FLOAT32_CALLS[name]
    single = [np.float32(v) for v in values]
    got, expected = call(*single), call(*map(float, single))
    assert got == expected
    assert all(type(x) is float for x in got)
