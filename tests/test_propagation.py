import math

import numpy as np
import pytest

from qfog import (
    OpticalPath,
    PhotonPopulations,
    fiber_transmission,
    noon_ratio,
    propagate_populations,
    singles_rate_from_ratio,
)


def test_fiber_transmission_values():
    assert fiber_transmission(OpticalPath(1.0, 0.0), 10_000.0) == pytest.approx(0.1, rel=1e-12)
    assert fiber_transmission(OpticalPath(0.0, 6.65), 1.0) == pytest.approx(0.216, rel=0.005)
    assert fiber_transmission(OpticalPath(0.0, 0.0), 5000.0) == 1.0


def test_propagate_lossless_is_identity():
    pop = PhotonPopulations(0.95, 0.05)
    assert propagate_populations(pop, 1.0) == pop


def test_propagate_benchmark_populations():
    # 95% initial pair fraction through 10 dB of loss.
    out = propagate_populations(PhotonPopulations(0.95, 0.05), 0.1)
    assert out.noon_pairs == pytest.approx(0.0095, rel=1e-12)
    assert out.singles == pytest.approx(0.0905, rel=1e-12)
    assert noon_ratio(out) == pytest.approx(0.095, abs=1e-12)
    # Projected lower-loss link.
    out = propagate_populations(PhotonPopulations(0.95, 0.05), 0.216)
    assert noon_ratio(out) == pytest.approx(0.205, abs=0.005)


def test_propagate_composes_multiplicatively():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pop = PhotonPopulations(float(rng.uniform(0.0, 1e6)), float(rng.uniform(0.0, 1e6)))
        t1, t2 = (float(rng.uniform(1e-4, 1.0)) for _ in range(2))
        two_step = propagate_populations(propagate_populations(pop, t1), t2)
        one_step = propagate_populations(pop, t1 * t2)
        assert two_step.noon_pairs == pytest.approx(one_step.noon_pairs, rel=1e-12)
        assert two_step.singles == pytest.approx(one_step.singles, rel=1e-12)


def test_ratio_monotone_in_transmission():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pop = PhotonPopulations(float(rng.uniform(0.01, 10.0)), float(rng.uniform(0.0, 10.0)))
        ratios = [noon_ratio(propagate_populations(pop, t))
                  for t in np.linspace(1.0, 0.01, 40)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_photon_number_never_grows():
    rng = np.random.default_rng(13)
    for _ in range(100):
        pop = PhotonPopulations(float(rng.uniform(0.0, 1e6)), float(rng.uniform(0.0, 1e6)))
        t = float(rng.uniform(1e-4, 1.0))
        out = propagate_populations(pop, t)
        assert out.singles + 2 * out.noon_pairs <= pop.singles + 2 * pop.noon_pairs + 1e-9


def test_noon_ratio_edges():
    assert noon_ratio(PhotonPopulations(1.0, 0.0)) == 1.0
    assert noon_ratio(PhotonPopulations(1.0, 1.0)) == 0.5
    with pytest.raises(ValueError):
        noon_ratio(PhotonPopulations(0.0, 0.0))


def test_singles_rate_from_ratio():
    assert singles_rate_from_ratio(4000.0, 0.095) == pytest.approx(38.1e3, rel=0.01)
    # The projected link rounds to a 40 kHz flux; the exact inversion is 38.8 kHz.
    assert singles_rate_from_ratio(10_000.0, 0.205) == pytest.approx(38.78e3, rel=0.001)
    assert singles_rate_from_ratio(123.0, 0.5) == pytest.approx(123.0, rel=1e-12)
    with pytest.raises(ValueError, match="ratio"):
        singles_rate_from_ratio(1.0, 0.0)


def test_profile_zero_length_keeps_initial():
    pop = PhotonPopulations(0.7, 0.3)
    assert propagate_populations(pop, fiber_transmission(OpticalPath(0.35), 0.0)) == pop


def test_profile_long_length_ratio_tracks_transmission():
    # Deep in the lossy regime the pair fraction falls at the single-photon
    # transmission rate: slope of log(ratio) against log(T) is one.
    pop = PhotonPopulations(0.95, 0.05)
    path = OpticalPath(1.0, 0.0)
    t1, t2 = fiber_transmission(path, 50_000.0), fiber_transmission(path, 60_000.0)  # 50 and 60 dB
    p1, p2 = propagate_populations(pop, t1), propagate_populations(pop, t2)
    slope = (math.log(noon_ratio(p2)) - math.log(noon_ratio(p1))) / (math.log(t2) - math.log(t1))
    assert slope == pytest.approx(1.0, rel=0.01)


# NumPy 2 keeps a float32 operand's single precision against Python floats,
# so each entry point converts the scalars it validated.  Each value is named
# as its call's errors name it.
FLOAT32_CALLS = {
    "fiber_transmission": (lambda z: (fiber_transmission(OpticalPath(0.35, 9.3), z),), dict(length_m=2013.7)),
    "propagate_populations": (lambda p, s, t: (lambda out: (out.noon_pairs, out.singles))(
        propagate_populations(PhotonPopulations(p, s), t)), dict(noon_pairs=0.95, singles=0.05, transmission=0.216)),
    "singles_rate_from_ratio": (lambda r, f: (singles_rate_from_ratio(r, f),), dict(noon_rate_hz=4000.3, ratio=0.171)),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_float32_inputs_give_the_float64_results_as_python_floats(name):
    call, values = FLOAT32_CALLS[name]
    single = [np.float32(v) for v in values.values()]
    got, expected = call(*single), call(*map(float, single))
    assert got == expected
    assert all(type(x) is float for x in got)


@pytest.mark.parametrize("bad", [True, 10**400], ids=["True", "10**400"])
@pytest.mark.parametrize("name", sorted(FLOAT32_CALLS))
def test_real_arguments_refuse_a_bool_or_an_int_past_the_float_range_by_name(name, bad):
    call, values = FLOAT32_CALLS[name]
    for i, arg in enumerate(values):
        with pytest.raises(ValueError) as err:
            call(*(bad if j == i else v for j, v in enumerate(values.values())))
        assert str(err.value).startswith(f"{arg}: ") and len(str(err.value)) < 100, str(err.value)
