"""Noise budgeting and Monte Carlo validation for entangled-photon fiber
optic gyroscopes.

The library models an N-photon entangled-state Sagnac interferometer:
rotation phase and quantum shot noise (:mod:`qfog.sagnac`), population
evolution through loss (:mod:`qfog.propagation`), accidental-coincidence
phase errors and safe bias windows (:mod:`qfog.spurious`), coherence and
drift corrections (:mod:`qfog.dispersion`), and an event-stream Monte
Carlo oracle (:mod:`qfog.montecarlo`).  A batch CLI (:mod:`qfog.cli`)
drives everything from JSON instrument configs.

The Monte Carlo names (``McConfig`` to ``simulate_uncorrelated``) load
:mod:`qfog.montecarlo` on first use, so ``import qfog`` and the analytic
budget load no NumPy.
"""

from .model import (
    EARTH_RATE_RAD_PER_S,
    SPEED_OF_LIGHT_M_PER_S,
    DetectionSpec,
    GyroGeometry,
    OpticalPath,
    PhasePoint,
    SourceSpec,
    WindowMode,
)
from .sagnac import coincidence_probability, omega_min, sagnac_phase, shot_noise
from .propagation import (
    PhotonPopulations,
    fiber_transmission,
    noon_ratio,
    propagate_along_fiber,
    propagate_populations,
    singles_rate_from_ratio,
)
from .spurious import (
    BiasZoneReport,
    PhaseShiftSolution,
    SpuriousCount,
    bias_zone_scan,
    coincidence_shift_forward,
    max_singles_flux,
    phase_shift_cusp,
    phase_shift_profile,
    phase_shift_spurious,
    spurious_coincidences,
    spurious_coincidences_per_detector,
    undefined_half_width,
)
from .dispersion import (
    DispersionSpec,
    SpectralSpec,
    chromatic_delay,
    coherence_factor,
    coherence_time,
    pmd_delay,
    pump_drift_phase_error,
)

__version__ = "0.1.0"

_MONTECARLO = ("McConfig", "McResult", "PhaseEstimateResult", "rng_stream",
               "simulate_experiment", "simulate_uncorrelated")


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EARTH_RATE_RAD_PER_S",
    "SPEED_OF_LIGHT_M_PER_S",
    "GyroGeometry",
    "SourceSpec",
    "OpticalPath",
    "DetectionSpec",
    "PhasePoint",
    "WindowMode",
    "sagnac_phase",
    "coincidence_probability",
    "shot_noise",
    "omega_min",
    "PhotonPopulations",
    "fiber_transmission",
    "propagate_populations",
    "noon_ratio",
    "singles_rate_from_ratio",
    "propagate_along_fiber",
    "SpuriousCount",
    "PhaseShiftSolution",
    "BiasZoneReport",
    "spurious_coincidences",
    "spurious_coincidences_per_detector",
    "coincidence_shift_forward",
    "phase_shift_spurious",
    "phase_shift_cusp",
    "phase_shift_profile",
    "undefined_half_width",
    "bias_zone_scan",
    "max_singles_flux",
    "SpectralSpec",
    "DispersionSpec",
    "coherence_time",
    "coherence_factor",
    "chromatic_delay",
    "pmd_delay",
    "pump_drift_phase_error",
    "McConfig",
    "McResult",
    "PhaseEstimateResult",
    "rng_stream",
    "simulate_uncorrelated",
    "simulate_experiment",
    "__version__",
]
