"""Prufer phases: winding counts, block rotations, and phase uniformity.

The free Prufer phase counts eigenvalues through its winding; at a critical
energy each polymer block rotates the modified phase by exactly eta_pm, and
the fractional part of the final phase equidistributes on [0, pi).
"""
import numpy as np

from polyspec import (dimer_preset, lattice_for_sites, build_hamiltonian,
                      dense_oracle, find_critical_energies, prufer_trace,
                      sturm_count, relative_prufer, expansion_coeffs,
                      dos_at_critical, uniformity_test)

model = dimer_preset(0.6, 0.5)
report = find_critical_energies(model)[-1]

# winding count vs dense oracle on a small box
seq = lattice_for_sites(model, 48, seed=3)
ref = dense_oracle(build_hamiltonian(seq))[0].eigenvalues
print("E      winding count   oracle count")
for E in (-1.5, -0.3, 0.61, 1.4):
    print(f"{E:+.2f}       {sturm_count(build_hamiltonian(seq), E):3d}            "
          f"{int(np.searchsorted(ref, E)):3d}")

# per-block phase increments at the critical energy
seq = lattice_for_sites(model, 12, seed=5)
tr = prufer_trace(seq, report.diagonalizer, report.energy)
inc = np.diff(tr.modified_angles[::2])  # block boundaries every 2 sites
print("\nper-block modified-phase increments mod 2pi at E_c:",
      np.round(inc % (2 * np.pi), 4))
print("eta_plus, eta_minus:", round(report.eta_plus, 4), round(report.eta_minus, 4))

# relative Prufer angle converges to the identity
n_Ec = dos_at_critical(expansion_coeffs(model, report), model)
xs = np.linspace(-4, 4, 9)
for L in (1000, 20000):
    seq = lattice_for_sites(model, L, seed=8)
    psi = relative_prufer(seq, report.diagonalizer, report.energy, n_Ec, xs)
    print(f"\nPsi_L(x) at L={L}: sup |Psi - x| = {np.abs(psi - xs).max():.4f}")

out = uniformity_test(model, report, L_sites=6000, realizations=800, seed=13)
print(f"\nfractional phase phi/pi vs uniform: KS = {out['ks_statistic']:.4f} "
      f"over {out['num_realizations']} realizations")
