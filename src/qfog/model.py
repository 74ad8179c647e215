"""Shared value types and physical constants for the gyroscope noise model.

All quantities are SI (meters, seconds, Hz, radians) except optical losses,
which follow the fiber-industry convention of dB and dB/km.  Field names
carry their unit as a suffix.  Photon populations and expected counts are
real-valued everywhere; rounding to integer counts happens only inside the
Monte Carlo sampler.

Every type validates its invariants at construction and raises
``ValueError`` naming the offending field.  All types are immutable and
safe to share between threads or processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Sidereal rotation rate of the earth, the canonical sensitivity yardstick.
EARTH_RATE_RAD_PER_S = 7.29e-5


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValueError(f"{field}: {message}")


def _require_memory(nbytes: float, field: str, what: str) -> None:
    """Refuse a run whose estimated peak memory exceeds the physical memory.

    Physical memory is ``SC_PAGE_SIZE * SC_PHYS_PAGES``.  Limits set by a
    cgroup, a container or ``ulimit`` are out of scope: under such a limit
    a run this check accepts can still fail to allocate.
    """
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    _require(nbytes <= physical, field,
             f"{what} would need about {nbytes / 2**30:.3g} GiB of memory, more than "
             f"the {physical / 2**30:.3g} GiB of physical memory")


def _require_finite(value: float, field: str) -> None:
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{field}: must be a finite number, got {value!r}")


def _is_real(value) -> bool:
    # numbers loads only for other types, such as the NumPy scalars it registers as Real.
    if isinstance(value, (int, float)):
        return True
    import numbers
    return isinstance(value, numbers.Real)


class WindowMode(Enum):
    """Coincidence-window semantics for the event-stream simulator.

    BINNED partitions the measurement into fixed windows one jitter wide;
    SLIDING counts every N-fold event group whose spread fits in one jitter.
    """

    BINNED = "binned"
    SLIDING = "sliding"


@dataclass(frozen=True)
class GyroGeometry:
    """Fiber coil geometry and operating wavelength.

    Together these set the scale factor between rotation rate and the
    interferometer phase.
    """

    fiber_length_m: float
    coil_radius_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        for name in ("fiber_length_m", "coil_radius_m", "wavelength_m"):
            value = getattr(self, name)
            _require_finite(value, name)
            _require(value > 0.0, name, f"must be > 0, got {value}")
        _require(100e-9 < self.wavelength_m < 10e-6, "wavelength_m",
                 f"outside the optical sanity band (100 nm, 10 um): {self.wavelength_m}")


@dataclass(frozen=True)
class SourceSpec:
    """Entangled-pair source: N-photon order, pair rate, purity, background.

    ``pair_rate_hz`` is the N00N pair rate seen at the detectors (the rate
    experiments quote); ``initial_noon_fraction`` is the pair fraction at
    the source before any propagation loss.
    """

    noon_order: int
    pair_rate_hz: float
    initial_noon_fraction: float
    dark_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.noon_order, int) and not isinstance(self.noon_order, bool),
                 "noon_order", f"must be an integer, got {self.noon_order!r}")
        _require(self.noon_order >= 2, "noon_order",
                 f"entangled order must be >= 2, got {self.noon_order}")
        _require_finite(self.pair_rate_hz, "pair_rate_hz")
        _require(self.pair_rate_hz >= 0.0, "pair_rate_hz", "must be >= 0")
        _require_finite(self.initial_noon_fraction, "initial_noon_fraction")
        _require(0.0 < self.initial_noon_fraction <= 1.0, "initial_noon_fraction",
                 f"must lie in (0, 1], got {self.initial_noon_fraction}")
        _require_finite(self.dark_rate_hz, "dark_rate_hz")
        _require(self.dark_rate_hz >= 0.0, "dark_rate_hz", "must be >= 0")


@dataclass(frozen=True)
class OpticalPath:
    """Distributed fiber attenuation plus lumped element losses."""

    fiber_loss_db_per_km: float
    lumped_loss_db: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self.fiber_loss_db_per_km, "fiber_loss_db_per_km")
        _require(self.fiber_loss_db_per_km >= 0.0, "fiber_loss_db_per_km", "must be >= 0")
        _require_finite(self.lumped_loss_db, "lumped_loss_db")
        _require(self.lumped_loss_db >= 0.0, "lumped_loss_db", "must be >= 0")


@dataclass(frozen=True)
class DetectionSpec:
    """Detector timing resolution and integration time."""

    jitter_s: float
    measurement_time_s: float
    window_mode: WindowMode = WindowMode.BINNED

    def __post_init__(self) -> None:
        _require_finite(self.jitter_s, "jitter_s")
        _require(self.jitter_s > 0.0, "jitter_s", "must be > 0")
        _require_finite(self.measurement_time_s, "measurement_time_s")
        _require(self.measurement_time_s > 0.0, "measurement_time_s", "must be > 0")
        _require(self.jitter_s < self.measurement_time_s, "jitter_s",
                 "timing jitter must be smaller than the measurement time")
        _require(isinstance(self.window_mode, WindowMode), "window_mode",
                 f"must be a WindowMode, got {self.window_mode!r}")


@dataclass(frozen=True)
class PhasePoint:
    """Operating point of the interferometer: rotation phase plus bias.

    The total is never reduced modulo the fringe period here; operations
    that need a reduced phase do their own reduction.
    """

    sagnac_phase_rad: float
    bias_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self.sagnac_phase_rad, "sagnac_phase_rad")
        _require_finite(self.bias_phase_rad, "bias_phase_rad")

    @property
    def total_rad(self) -> float:
        return self.sagnac_phase_rad + self.bias_phase_rad
