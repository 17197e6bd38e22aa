"""Integrated density of states: Monte Carlo pooling vs transfer-matrix formulas.

Two independent routes to the same numbers: pooled spectra of many finite
boxes (Sturm counts and bisection) versus the rotation-angle formulas
N(E_c) = <eta/pi>/<L> and n(E_c) = (1/pi) <d>/<L> evaluated from the
transfer-matrix calculus.  The pooled IDS is stored only where it is read.
"""
import numpy as np

from polyspec import (dimer_preset, pointwise_ids, windowed_ids, find_critical_energies,
                      expansion_coeffs, ids_at_critical, dos_at_critical,
                      holder_probe)

V = 1 / np.sqrt(2)
model = dimer_preset(V, 0.5)
reports = find_critical_energies(model)
h = 0.01
Es = np.linspace(0, 2.4, 7)
pool = dict(L_ids=1500, seed=11, realization_indices=range(160))
ids = pointwise_ids(model, **pool, energies=lambda bottom, top: np.concatenate(
    [Es, -Es, *([rep.energy - h, rep.energy, rep.energy + h] for rep in reports)]))

print(f"random dimer, V = {V:.4f}, pooled eigenvalues: {ids.total_count}")
for rep in reports:
    emp = float(ids.evaluate(rep.energy))
    formula = ids_at_critical(rep, model)
    n = dos_at_critical(expansion_coeffs(model, rep), model)
    n_emp = (float(ids.evaluate(rep.energy + h))
             - float(ids.evaluate(rep.energy - h))) / (2 * h)
    print(f"  E_c = {rep.energy:+.4f}:  N empirical {emp:.4f} vs formula {formula:.4f}"
          f"   n empirical {n_emp:.4f} vs formula {n:.4f}")

sym = np.abs(ids.evaluate(Es) + ids.evaluate(-Es) - 1).max()
print(f"p = 1/2 symmetry: max |N(E) + N(-E) - 1| = {sym:.4f}")

scales = [2.0 ** -k for k in range(4, 9)]
h_max = max(scales)
probe = holder_probe(windowed_ids(model, **pool, span=(1.2 - h_max, 1.2 + h_max),
                                  half_width=h_max), 1.2, scales)
print(f"Holder probe at E = 1.2: rho1 = {probe.rho1:.3f}, rho2 = {probe.rho2:.3f},"
      f" product = {probe.product:.3f} (> 2/3: {probe.satisfies_condition})")
