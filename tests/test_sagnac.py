import math

import numpy as np
import pytest

from qfog import (
    GyroGeometry,
    PhasePoint,
    coincidence_probability,
    omega_min,
    sagnac_phase,
    shot_noise,
)

GEOM = GyroGeometry(fiber_length_m=1000.0, coil_radius_m=0.4, wavelength_m=1550e-9)
EARTH = 7.29e-5


def test_zero_rotation_gives_zero_phase():
    assert sagnac_phase(0.0, GEOM) == 0.0


def test_earth_rate_phase():
    # 1 km coil, 0.4 m radius, 1550 nm at the earth rotation rate.
    assert sagnac_phase(EARTH, GEOM) == pytest.approx(7.88e-4, rel=0.01)


def test_phase_odd_and_linear():
    rng = np.random.default_rng(7)
    for _ in range(50):
        omega = float(rng.uniform(-1e-3, 1e-3))
        scale = float(rng.uniform(0.1, 10.0))
        assert sagnac_phase(-omega, GEOM) == -sagnac_phase(omega, GEOM)
        assert sagnac_phase(scale * omega, GEOM) == pytest.approx(
            scale * sagnac_phase(omega, GEOM), rel=1e-12)
        stretched = GyroGeometry(scale * GEOM.fiber_length_m, GEOM.coil_radius_m,
                                 GEOM.wavelength_m)
        assert sagnac_phase(omega, stretched) == pytest.approx(
            scale * sagnac_phase(omega, GEOM), rel=1e-12)


def test_coincidence_probability_extrema():
    assert coincidence_probability(1000.0, PhasePoint(0.0), 2) == 1000.0
    half_period = PhasePoint(math.pi / 2)  # N*phi = pi
    assert coincidence_probability(1000.0, half_period, 2) == pytest.approx(0.0, abs=1e-9)
    # At the fringe zero the coherence factor is irrelevant.
    quadrature = PhasePoint(math.pi / 4)
    assert coincidence_probability(1000.0, quadrature, 2, coherence=0.96) == pytest.approx(500.0)


def test_coincidence_probability_bounded_and_periodic():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pairs = float(rng.uniform(0.0, 1e7))
        order = int(rng.integers(2, 7))
        phi = float(rng.uniform(-10.0, 10.0))
        c = float(rng.uniform(0.0, 1.0))
        value = coincidence_probability(pairs, PhasePoint(phi), order, c)
        assert 0.0 <= value <= pairs
        shifted = coincidence_probability(pairs, PhasePoint(phi + 2.0 * math.pi / order), order, c)
        assert shifted == pytest.approx(value, abs=1e-9 * max(pairs, 1.0))


def test_coincidence_probability_validation():
    with pytest.raises(ValueError, match="pairs"):
        coincidence_probability(-1.0, PhasePoint(0.0), 2)
    with pytest.raises(ValueError, match="coherence"):
        coincidence_probability(1.0, PhasePoint(0.0), 2, coherence=1.5)


def test_shot_noise_values():
    assert shot_noise(1, 1.0) == 1.0
    # Half-hour benchmark budget: 7.2e6 pairs, two photons each.
    assert shot_noise(2, 2 * 7.2e6) == pytest.approx(0.19e-3, rel=0.02)
    assert shot_noise(2, 2e6) == pytest.approx(5.0e-4, rel=1e-12)
    assert shot_noise(2, noon_pairs=7.2e6) == shot_noise(2, 2 * 7.2e6)


def test_shot_noise_identity_and_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        order = int(rng.integers(1, 9))
        m = float(rng.uniform(1.0, 1e9))
        assert shot_noise(order, m) == pytest.approx(shot_noise(1, order * m), rel=1e-12)
        assert shot_noise(order + 1, m) < shot_noise(order, m)
        assert shot_noise(order, 2 * m) < shot_noise(order, m)


def test_shot_noise_argument_validation():
    with pytest.raises(ValueError):
        shot_noise(2, 0.0)
    with pytest.raises(ValueError):
        shot_noise(2)
    with pytest.raises(ValueError):
        shot_noise(2, 1e6, noon_pairs=5e5)


def test_omega_min_benchmark():
    value = omega_min(GEOM, 2, 1e6)
    assert value == pytest.approx(6.5e-5, rel=0.02)
    assert value < EARTH


def test_omega_min_scaling():
    assert omega_min(GEOM, 2, 4e6) == pytest.approx(0.5 * omega_min(GEOM, 2, 1e6), rel=1e-12)


def test_omega_min_matches_shot_noise_by_construction():
    rng = np.random.default_rng(21)
    for _ in range(50):
        geom = GyroGeometry(float(rng.uniform(10.0, 1e5)), float(rng.uniform(0.01, 2.0)),
                            float(rng.uniform(400e-9, 2e-6)))
        order = int(rng.integers(1, 7))
        m = float(rng.uniform(1.0, 1e9))
        floor = omega_min(geom, order, m)
        assert sagnac_phase(floor, geom) == pytest.approx(shot_noise(order, m), rel=1e-12)


@pytest.mark.parametrize("fiber_length_m", [5e-324, 1e-323, 1e-322])
def test_omega_min_refuses_a_scale_factor_that_underflows(fiber_length_m):
    # 4*pi*L*r/(lambda*c) rounds to 0, or (at 1e-322) to the subnormal
    # 5e-324 by which the shot noise overflows: no finite floor either way.
    geom = GyroGeometry(fiber_length_m, 1.0, 1.55e-6)
    with pytest.raises(ValueError) as raised:
        omega_min(geom, 2, 1e6)
    scale = "5e-324" if fiber_length_m == 1e-322 else "0.0"
    assert str(raised.value) == (f"geometry: the Sagnac scale factor 4*pi*L*r/(lambda*c) = {scale} underflows: "
                                 "no finite rotation floor")
