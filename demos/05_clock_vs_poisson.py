"""The headline dichotomy: clock spacings at E_c, Poisson gaps elsewhere.

Rescaled nearest-neighbor spacings near the critical energy concentrate at 1
(strong clock); unfolded gaps at a noncritical energy follow Exp(1).
"""
import numpy as np
from scipy.stats import kstest

from polyspec import (dimer_preset, find_critical_energies, windowed_ids,
                      les_ensemble, gap_statistics, clock_spacing_statistic,
                      counting_statistics)

model = dimer_preset(0.6, 0.5)
report = find_critical_energies(model)[-1]

sample, summary = clock_spacing_statistic(model, report, L_sites=8000,
                                          realizations=80, j_max=12, seed=21)
print(f"clock side  (E_c = {report.energy:.4f}):")
print(f"  mean rescaled gap {summary['mean']:.4f}, variance {summary['variance']:.5f},"
      f" fraction in [0.9, 1.1]: {summary['frac_in_band']:.3f}")
ks_clock = kstest(sample.rescaled_gaps, "expon").statistic

L = 2000
ids = windowed_ids(model, L_ids=L, seed=331, realization_indices=range(500),
                   span=(1.2, 1.2), half_width=10 / L)
samples = les_ensemble(model, 1.2, L, 500, seed=22, window_atoms=10, ids=ids)
gs = gap_statistics(samples)
print(f"\nPoisson side (E_0 = 1.2, unfolded):")
print(f"  mean gap {gs.mean:.4f}, KS to Exp(1): {gs.ks_vs_exp1:.4f},"
      f" fraction in [0.9, 1.1]: {gs.frac_near_one:.3f}")
cs = counting_statistics(samples, [(-0.5, 0.5), (1.5, 2.5)])
print(f"  counting chi-square p-values vs Poisson(1): "
      f"{np.round(cs.chi2_pvalues, 3).tolist()},"
      f" count covariance {cs.count_covariance[0, 1]:+.4f}")

print(f"\ndichotomy: KS(E_c) = {ks_clock:.3f} vs KS(1.2) = {gs.ks_vs_exp1:.3f};"
      f" concentration {summary['frac_in_band']:.2f} vs {gs.frac_near_one:.2f}")
