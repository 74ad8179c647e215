"""Shared value types and physical constants for the gyroscope noise model.

All quantities are SI (meters, seconds, Hz, radians) except optical losses,
which follow the fiber-industry convention of dB and dB/km.  Field names
carry their unit as a suffix.  Photon populations and expected counts are
real-valued everywhere; rounding to integer counts happens only inside the
Monte Carlo sampler.

Every type validates its invariants at construction, raises
``ValueError`` naming the offending field and stores each real field as a
Python float.  All types are immutable and safe to share between threads
or processes.
"""

from __future__ import annotations

import math
import operator
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


def _integer(value, field: str, least: int | None = None) -> int:
    """``value`` as a Python int: a Python or NumPy integer, not a bool, and at least ``least``."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    _require(number is not None and (least is None or number >= least),
             field, f"must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")
    return number


def _order(value, least: int = 1) -> int:
    """An entangled order ``value`` as a Python int, at least ``least``."""
    order = _integer(value, "order")
    _require(order >= least, "order", f"must be >= {least}, got {order}")
    return order


def _require_finite(value, field: str) -> float:
    """A finite real ``value`` as a Python float: a NumPy float32 would keep its single precision."""
    if not (_is_real(value) and math.isfinite(value)):
        raise ValueError(f"{field}: must be a finite number, got {value!r}")
    return float(value)


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
        wavelength = self.wavelength_m
        for name in ("fiber_length_m", "coil_radius_m", "wavelength_m"):
            value = getattr(self, name)
            object.__setattr__(self, name, _require_finite(value, name))
            _require(getattr(self, name) > 0.0, name, f"must be > 0, got {value}")
        _require(100e-9 < self.wavelength_m < 10e-6, "wavelength_m",
                 f"outside the optical sanity band (100 nm, 10 um): {wavelength}")


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
        object.__setattr__(self, "noon_order", _integer(self.noon_order, "noon_order"))
        _require(self.noon_order >= 2, "noon_order",
                 f"entangled order must be >= 2, got {self.noon_order}")
        object.__setattr__(self, "pair_rate_hz", _require_finite(self.pair_rate_hz, "pair_rate_hz"))
        _require(self.pair_rate_hz >= 0.0, "pair_rate_hz", "must be >= 0")
        fraction = self.initial_noon_fraction
        object.__setattr__(self, "initial_noon_fraction", _require_finite(fraction, "initial_noon_fraction"))
        _require(0.0 < self.initial_noon_fraction <= 1.0, "initial_noon_fraction",
                 f"must lie in (0, 1], got {fraction}")
        object.__setattr__(self, "dark_rate_hz", _require_finite(self.dark_rate_hz, "dark_rate_hz"))
        _require(self.dark_rate_hz >= 0.0, "dark_rate_hz", "must be >= 0")


@dataclass(frozen=True)
class OpticalPath:
    """Distributed fiber attenuation plus lumped element losses."""

    fiber_loss_db_per_km: float
    lumped_loss_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fiber_loss_db_per_km", "lumped_loss_db"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) >= 0.0, name, "must be >= 0")


@dataclass(frozen=True)
class DetectionSpec:
    """Detector timing resolution and integration time."""

    jitter_s: float
    measurement_time_s: float
    window_mode: WindowMode = WindowMode.BINNED

    def __post_init__(self) -> None:
        for name in ("jitter_s", "measurement_time_s"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) > 0.0, name, "must be > 0")
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
        for name in ("sagnac_phase_rad", "bias_phase_rad"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))

    @property
    def total_rad(self) -> float:
        return self.sagnac_phase_rad + self.bias_phase_rad
