"""Evolution of entangled-pair and single-photon populations through loss.

An order-N entangled pair survives an element of single-photon
transmission T with probability T**N (every photon must make it), while
the uncorrelated singles stream both attenuates and gains the photons
orphaned by broken pairs.  For the two-photon case tracked here the pair
population falls as T**2 and the singles follow
``T * (M1 + Mpairs * (1 - T))``.

One useful consequence (tested, not assumed): the pair fraction at the
detectors is exactly ``T`` times the fraction at the source, so the
fraction decays at the single-photon transmission rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import OpticalPath, _require, _require_finite


@dataclass(frozen=True)
class PhotonPopulations:
    """Pair and single-photon counts (real-valued) over some time interval.

    ``singles`` is the total across all detectors, not per detector.
    """

    noon_pairs: float
    singles: float

    def __post_init__(self) -> None:
        for name in ("noon_pairs", "singles"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
            _require(getattr(self, name) >= 0.0, name, "must be >= 0")


def fiber_transmission(path: OpticalPath, length_m: float) -> float:
    """End-to-end single-photon transmission of fiber plus lumped elements.

    ``T = 10**(-(alpha*L_km + lumped_dB)/10)``, in (0, 1].
    """
    length_m = _require_finite(length_m, "length_m")
    _require(length_m >= 0.0, "length_m", "must be >= 0")
    total_db = path.fiber_loss_db_per_km * (length_m / 1000.0) + path.lumped_loss_db
    return 10.0 ** (-total_db / 10.0)


def propagate_populations(initial: PhotonPopulations, transmission: float) -> PhotonPopulations:
    """Push populations through one element of single-photon transmission T.

    Pairs fall as T**2; singles attenuate as T but pick up the byproduct of
    pairs that lost exactly one photon.  Composes exactly:
    propagating through T1 then T2 equals propagating through T1*T2.
    """
    t = _require_finite(transmission, "transmission")
    _require(0.0 < t <= 1.0, "transmission", f"must lie in (0, 1], got {transmission}")
    pairs = initial.noon_pairs * t * t
    singles = t * (initial.singles + initial.noon_pairs * (1.0 - t))
    return PhotonPopulations(pairs, singles)


def noon_ratio(pop: PhotonPopulations) -> float:
    """Fraction of pairs among all detected states, ``Mp / (Mp + M1)``."""
    total = pop.noon_pairs + pop.singles
    _require(total > 0.0, "pop", "ratio undefined when both populations are zero")
    return pop.noon_pairs / total


def singles_rate_from_ratio(noon_rate_hz: float, ratio: float) -> float:
    """Uncorrelated singles rate implied by a pair rate and pair fraction.

    Inverts the fraction definition: ``noon_rate * (1 - R) / R``.
    """
    noon_rate_hz = _require_finite(noon_rate_hz, "noon_rate_hz")
    _require(noon_rate_hz >= 0.0, "noon_rate_hz", "must be >= 0")
    r = _require_finite(ratio, "ratio")
    _require(0.0 < r <= 1.0, "ratio", f"must lie in (0, 1], got {ratio}")
    return noon_rate_hz * (1.0 - r) / r
