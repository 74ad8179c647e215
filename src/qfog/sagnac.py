"""Ideal rotating-interferometer relations.

Covers the rotation-induced phase of a fiber coil, the N-photon
coincidence fringe, the quantum-limited phase uncertainty and the minimum
resolvable rotation rate.  Everything here assumes a lossless, noise-free
instrument; the loss and background corrections live in
:mod:`qfog.propagation` and :mod:`qfog.spurious`.
"""

from __future__ import annotations

import math

from .model import SPEED_OF_LIGHT_M_PER_S, GyroGeometry, PhasePoint, _order, _require, _require_finite


def sagnac_phase(omega_rad_per_s: float, geom: GyroGeometry) -> float:
    """Phase between counter-propagating beams in a rotating fiber coil.

    Returns ``4*pi*Omega*L*r / (lambda*c)``: odd in the rotation rate and
    linear in fiber length and coil radius.  Negative rates (opposite spin
    direction) are allowed and flip the sign.
    """
    omega = _require_finite(omega_rad_per_s, "omega_rad_per_s")
    return (4.0 * math.pi * omega * geom.fiber_length_m * geom.coil_radius_m
            / (geom.wavelength_m * SPEED_OF_LIGHT_M_PER_S))


def coincidence_probability(pairs: float, phase: PhasePoint, order: int,
                            coherence: float = 1.0) -> float:
    """Expected N-fold coincidence count out of ``pairs`` entangled pairs.

    The fringe oscillates ``order`` times faster than a classical
    interferometer: ``(pairs/2) * (1 + C*cos(N*(phi + phi_0)))``.  The
    coherence factor ``C`` in [0, 1] scales the fringe visibility without
    moving its extrema.  Result is bounded by [0, pairs].
    """
    pairs = _require_finite(pairs, "pairs")
    _require(pairs >= 0.0, "pairs", "must be >= 0")
    coherence = _require_finite(coherence, "coherence")
    _require(0.0 <= coherence <= 1.0, "coherence", "must lie in [0, 1]")
    order = _order(order)
    return 0.5 * pairs * (1.0 + coherence * math.cos(order * phase.total_rad))


def shot_noise(order: int, total_photons: float | None = None, *,
               noon_pairs: float | None = None) -> float:
    """Quantum-limited phase uncertainty ``1/sqrt(N*M)`` in radians.

    ``M`` is the total number of detected photons.  Because each order-N
    entangled pair carries N photons, the count may equivalently be given
    as ``noon_pairs`` with ``M = N * noon_pairs``; exactly one of the two
    arguments must be supplied.  Monotone decreasing in both N and M.
    """
    order = _order(order)
    if (total_photons is None) == (noon_pairs is None):
        raise ValueError("supply exactly one of total_photons or noon_pairs")
    if noon_pairs is not None:
        total_photons = order * _require_finite(noon_pairs, "noon_pairs")
    m = _require_finite(total_photons, "total_photons")
    _require(m > 0.0, "total_photons", "must be > 0 (phase uncertainty is undefined without photons)")
    return 1.0 / math.sqrt(order * m)


def omega_min(geom: GyroGeometry, order: int, total_photons: float | None = None, *,
              noon_pairs: float | None = None) -> float:
    """Rotation rate at which the coil phase equals the shot noise.

    Returns ``lambda*c / (4*pi*L*r*sqrt(N*M))`` in rad/s: the
    order-of-magnitude floor on resolvable rotation for a given photon
    budget.  Quadrupling the photon number halves the result.
    """
    scale = sagnac_phase(1.0, geom)
    floor = shot_noise(order, total_photons, noon_pairs=noon_pairs) / scale if scale > 0.0 else math.inf
    _require(floor < math.inf, "geometry",
             f"the Sagnac scale factor 4*pi*L*r/(lambda*c) = {scale!r} underflows: no finite rotation floor")
    return floor
