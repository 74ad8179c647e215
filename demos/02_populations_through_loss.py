#!/usr/bin/env python3
"""What loss does to an entangled-pair beam.

Pairs die twice as fast as singles in dB terms, and every broken pair
feeds the uncorrelated background, so the pair fraction at the detectors
is the source fraction scaled by the single-photon transmission.  This
script tabulates the populations along a lossy link and then inverts the
detected fraction into the uncorrelated flux that a given pair rate drags
along with it.
"""

from qfog import (
    OpticalPath,
    PhotonPopulations,
    fiber_transmission,
    noon_ratio,
    propagate_populations,
    singles_rate_from_ratio,
)

source = PhotonPopulations(noon_pairs=0.95, singles=0.05)  # 95% pure source
path = OpticalPath(fiber_loss_db_per_km=1.0)  # pure fiber, 1 dB/km

print("populations per source state along a 10 dB fiber run:")
print(f"{'z [km]':>7} {'pairs':>10} {'singles':>10} {'fraction':>9}")
for z in (0.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0):
    pop = propagate_populations(source, fiber_transmission(path, z))
    print(f"{z / 1000:>7.1f} {pop.noon_pairs:>10.5f} {pop.singles:>10.5f} "
          f"{noon_ratio(pop):>9.4f}")
print()

# The endpoint matches the closed form, and the fraction is R0 * T.
end = propagate_populations(source, fiber_transmission(path, 10_000.0))
print(f"closed form at 10 dB: fraction {noon_ratio(end):.4f} "
      f"(= 0.95 * T with T = {fiber_transmission(path, 10_000.0):.3f})")
print()

print("uncorrelated flux implied by a detected pair rate:")
for pair_rate, fraction in ((4e3, 0.095), (10e3, 0.205)):
    singles = singles_rate_from_ratio(pair_rate, fraction)
    print(f"  {pair_rate / 1e3:.0f} kHz pairs at fraction {fraction:.3f} "
          f"-> {singles / 1e3:.1f} kHz singles hitting the detectors")
