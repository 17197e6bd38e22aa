"""Prufer phases: winding counts, block rotations, and phase uniformity.

The free Prufer phase counts eigenvalues through its winding; at a critical
energy each polymer block rotates the modified phase by exactly eta_pm, and
the fractional part of the final phase equidistributes on [0, pi).
"""
import numpy as np

from polyspec import (dimer_preset, lattice_for_sites, potentials_for_sites_batch,
                      build_hamiltonian, dense_oracle, find_critical_energies,
                      sturm_counts_batch, free_phase_batch, angle_map_m,
                      relative_prufer_batch, expansion_coeffs, dos_at_critical,
                      uniformity_test)

model = dimer_preset(0.6, 0.5)
report = find_critical_energies(model)[-1]

# winding count vs dense oracle on a small box
ref = dense_oracle(build_hamiltonian(lattice_for_sites(model, 48, seed=3)))[0]
Es = [-1.5, -0.3, 0.61, 1.4]
counts = sturm_counts_batch(*potentials_for_sites_batch(model, 48, 3, [0]), np.array([Es]))[0]
print("E      winding count   oracle count")
for E, count in zip(Es, counts[0]):
    print(f"{E:+.2f}       {count:3d}            {int(np.searchsorted(ref, E)):3d}")

# per-block phase increments at the critical energy: the free phase after
# each block (every 2 sites) from theta_0 = 0, mapped to the modified phase
v, tsq = potentials_for_sites_batch(model, 12, 5, [0])
free = [0.0] + [free_phase_batch(v[:n], tsq[:n - 1], [[report.energy]])[0, 0]
                for n in range(2, 13, 2)]
inc = np.diff(angle_map_m(report.diagonalizer, np.array(free)))
print("\nper-block modified-phase increments mod 2pi at E_c:",
      np.round(inc % (2 * np.pi), 4))
print("eta_plus, eta_minus:", round(report.eta_plus, 4), round(report.eta_minus, 4))

# relative Prufer angle converges to the identity
n_Ec = dos_at_critical(expansion_coeffs(model, report), model)
xs = np.linspace(-4, 4, 9)
for L in (1000, 20000):
    v, tsq = potentials_for_sites_batch(model, L, 8, [0])
    psi = relative_prufer_batch(v, tsq, report.diagonalizer, report.energy, n_Ec, xs)[0]
    print(f"\nPsi_L(x) at L={L}: sup |Psi - x| = {np.abs(psi - xs).max():.4f}")

out = uniformity_test(model, report, L_sites=6000, realizations=800, seed=13)
print(f"\nfractional phase phi/pi vs uniform: KS = {out['ks_statistic']:.4f} "
      f"over {out['num_realizations']} realizations")
