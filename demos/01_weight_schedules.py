"""Compare the two guidance-weight schedules.

The unit-prior schedule (rtc) is the prior-corrected weight at sigma_d = 1.
It sags to 2.0 in the middle of the denoising trajectory; keeping the
data-prior scale sigma_d in the derivation lifts the mid-trajectory weights
by roughly 3.6x (before clipping at beta).  r^2 is the posterior variance
behind the weight: w_pc = (1 - tau) / (tau r^2) below the clip.
"""

import numpy as np

from guidedflow import pc_weight

BETA = 10.0


def r_squared(tau, sigma_d):
    return (1 - tau) ** 2 * sigma_d**2 / ((1 - tau) ** 2 + sigma_d**2 * tau**2)


print(f"{'tau':>5} {'w_rtc':>8} {'w_pc(0.4)':>10} {'ratio':>7}   {'r2_rtc':>8} {'r2(0.4)':>8}")
for tau in np.arange(0.05, 1.0, 0.05):
    w_rtc = pc_weight(tau, 1.0, BETA)
    w_pc = pc_weight(tau, 0.4, BETA)
    print(
        f"{tau:5.2f} {w_rtc:8.2f} {w_pc:10.2f} {w_pc / w_rtc:7.2f}   "
        f"{r_squared(tau, 1.0):8.4f} {r_squared(tau, 0.4):8.4f}"
    )

print()
print("Key timesteps (sigma_d = 0.4, beta = 10):")
for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
    w_rtc = pc_weight(tau, 1.0, BETA)
    w_pc = pc_weight(tau, 0.4, BETA)
    clipped = " (clipped)" if w_pc == BETA else ""
    print(f"  tau={tau}: unit-prior {w_rtc:5.2f}, prior-corrected {w_pc:5.2f}{clipped}")

print()
print("At sigma_d = 1 the prior-corrected schedule reduces to the unit-prior one:")
taus = np.arange(1, 1000) / 1000
rtc = lambda t: min((t * t + (1 - t) ** 2) / (t * (1 - t)), BETA)
worst = max(abs(pc_weight(t, 1.0, BETA) - rtc(t)) for t in taus)
print(f"  max |w_pc(tau, 1) - w_rtc(tau)| over 999 taus = {worst:.2e}")
