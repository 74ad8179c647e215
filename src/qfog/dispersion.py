"""Coherence, dispersion and pump-drift corrections.

Finite source linewidth gives the light a coherence time; any arrival-time
difference between the interfering paths then multiplies the fringe by a
Gaussian coherence factor ``exp(-3.5 * dt**2 / tau**2)``.  The factors for
independent delay mechanisms (polarization-axis chromatic broadening, PMD,
residual non-reciprocity) compose multiplicatively.  The same 3.5 exponent
constant is used for every delay source; it is conventional for the
primary linewidth term and an approximation for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import SPEED_OF_LIGHT_M_PER_S, _require, _require_finite

COHERENCE_EXPONENT_CONSTANT = 3.5


@dataclass(frozen=True)
class SpectralSpec:
    """Center wavelength and linewidth of the interfering light."""

    center_wavelength_m: float
    linewidth_m: float

    def __post_init__(self) -> None:
        for name in ("center_wavelength_m", "linewidth_m"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) > 0.0, name, "must be > 0")
        _require(self.linewidth_m < self.center_wavelength_m, "linewidth_m",
                 "linewidth must be smaller than the center wavelength")


@dataclass(frozen=True)
class DispersionSpec:
    """Fiber dispersion coefficients and pump-stability parameters.

    Units follow vendor datasheets: chromatic broadening in ps/(km*nm),
    PMD in ps/sqrt(km).  ``reciprocal_delay_s`` is the residual
    arrival-time difference between the two paths (order fs in a
    reciprocal gyro; zero by default).  The pump fields describe the
    source-wavelength drift with crystal temperature and the temperature
    control stability.
    """

    chromatic_coeff_ps_per_km_nm: float = 0.01
    pmd_coeff_ps_per_sqrt_km: float = 0.1
    reciprocal_delay_s: float = 0.0
    pump_drift_nm_per_degc: float = 0.2
    pump_temp_stability_degc: float = 0.01

    def __post_init__(self) -> None:
        for name in ("chromatic_coeff_ps_per_km_nm", "pmd_coeff_ps_per_sqrt_km", "reciprocal_delay_s",
                     "pump_drift_nm_per_degc", "pump_temp_stability_degc"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) >= 0.0, name, "must be >= 0")


def coherence_time(spec: SpectralSpec) -> float:
    """Coherence time ``lambda**2 / (c * delta_lambda)`` in seconds."""
    return spec.center_wavelength_m ** 2 / (SPEED_OF_LIGHT_M_PER_S * spec.linewidth_m)


def coherence_factor(delta_t_s: float, tau_s: float) -> float:
    """Fringe-visibility factor for an arrival-time difference.

    ``exp(-3.5 * dt**2 / tau**2)``; equals 1 at zero delay and decreases
    monotonically with the delay magnitude.
    """
    delta_t_s = _require_finite(delta_t_s, "delta_t_s")
    tau_s = _require_finite(tau_s, "tau_s")
    _require(tau_s > 0.0, "tau_s", "must be > 0")
    return math.exp(-COHERENCE_EXPONENT_CONSTANT * (delta_t_s / tau_s) ** 2)


def chromatic_delay(disp: DispersionSpec, length_m: float, spec: SpectralSpec) -> float:
    """Polarization-axis chromatic broadening over the fiber, in seconds.

    Grows linearly with length and linewidth: ``coeff * L_km * dlambda_nm``.
    """
    length_m = _require_finite(length_m, "length_m")
    _require(length_m >= 0.0, "length_m", "must be >= 0")
    return (disp.chromatic_coeff_ps_per_km_nm * 1e-12
            * (length_m / 1000.0) * (spec.linewidth_m / 1e-9))


def pmd_delay(disp: DispersionSpec, length_m: float) -> float:
    """Polarization-mode-dispersion spread, ``coeff * sqrt(L_km)`` seconds."""
    length_m = _require_finite(length_m, "length_m")
    _require(length_m >= 0.0, "length_m", "must be >= 0")
    return disp.pmd_coeff_ps_per_sqrt_km * 1e-12 * math.sqrt(length_m / 1000.0)


def pump_drift_phase_error(drift_nm_per_degc: float, stability_degc: float,
                           spec: SpectralSpec, sagnac_phase_rad: float) -> tuple[float, float]:
    """Phase error from source-wavelength drift with crystal temperature.

    The interferometer phase scales as 1/lambda, so a wavelength excursion
    ``drift * stability`` produces a relative phase error of that excursion
    over the center wavelength.  Returns ``(relative, absolute_rad)``.
    """
    drift_nm_per_degc = _require_finite(drift_nm_per_degc, "drift_nm_per_degc")
    _require(drift_nm_per_degc >= 0.0, "drift_nm_per_degc", "must be >= 0")
    stability_degc = _require_finite(stability_degc, "stability_degc")
    _require(stability_degc >= 0.0, "stability_degc", "must be >= 0")
    sagnac_phase_rad = _require_finite(sagnac_phase_rad, "sagnac_phase_rad")
    relative = (drift_nm_per_degc * 1e-9 * stability_degc) / spec.center_wavelength_m
    return relative, relative * sagnac_phase_rad
