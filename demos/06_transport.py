"""Quantum transport: spreading moments resolved by spectral windows.

Wavepackets projected onto an energy window containing the critical energies
spread superdiffusively; windows in the localized part of the spectrum spread
far slower (bounded in the long run, though the approach is slow at small
scale); the free chain is exactly ballistic (slope 2).

Small boxes and short times here; the acceptance suite runs the full scale.
"""
import numpy as np

from polyspec import (dimer_preset, anderson_preset, lattice_for_sites,
                      build_hamiltonian, evolution_setup, moment_curve,
                      transport_exponent)

Ts = [20.0, 40.0, 80.0, 160.0]
model = dimer_preset(0.5, 0.5)

for name, window in (("critical window [-0.6, 0.6]", (-0.6, 0.6)),
                     ("localized window [1.4, 2.0]", (1.4, 2.0))):
    seq = lattice_for_sites(model, 1601, seed=2)
    setup = evolution_setup(build_hamiltonian(seq), projection_window=window)
    curve = moment_curve(setup, 2.0, Ts, quadrature_points=500)
    slope = np.polyfit(np.log(Ts), np.log(curve.cesaro_moments), 1)[0]
    vals = ", ".join(f"{v:.1f}" for v in curve.cesaro_moments)
    print(f"{name}: M_2(T) = [{vals}]  slope {slope:.2f}")

free, = transport_exponent(anderson_preset(0.0, 0.5), 2.0, [10.0, 20.0, 40.0],
                           box_radius=400, realizations=1, seed=0,
                           quadrature_points=300)
print(f"free chain control: slope {free['slope']:.3f} (ballistic = 2)")
