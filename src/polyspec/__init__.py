"""polyspec: eigenvalue statistics and transport for 1D random polymer models.

Library layout follows the pipeline: `model` defines polymer models and
samples disorder, `eigensolve` extracts spectra of finite boxes,
`transfer` handles 2x2 transfer-matrix calculus (critical energies,
Lyapunov exponents), `prufer` evolves phase variables, `statistics` runs
the clock/Poisson eigenvalue statistics, and `transport` evolves
wavepackets and fits spreading exponents.  `cli` drives configured
experiments (also exposed as the `polyspec` command).
"""

__version__ = "0.1.0"

from .model import (PolymerSpec, PolymerModel, LatticeSequences, substream,
                    lattice_for_sites, potentials_for_sites_batch, dimer_preset,
                    anderson_preset, model_from_dict, model_to_dict, load_model)
from .eigensolve import (TridiagonalOperator, build_hamiltonian, sturm_counts_batch,
                         eigenvalues_in_window_batch, dense_oracle)
from .transfer import (site_matrix, polymer_matrix, rotation,
                       CriticalEnergyReport, ExpansionCoeffs,
                       find_critical_energies, diagonalizer,
                       irrationality_check, expansion_coeffs, lyapunov)
from .prufer import (angle_map_m, free_phase_batch, relative_prufer_batch,
                     phase_shift)
from .statistics import (EmpiricalIDS, PointProcessSample, ClockSpacingSample,
                         GapStatistics, CountingStatistics, HolderReport,
                         InsufficientDataError, windowed_ids, pointwise_ids,
                         ids_at_critical, dos_at_critical, les_ensemble,
                         gap_statistics, counting_statistics,
                         clock_spacing_statistic, uniformity_test,
                         psi_errors, holder_probe, minami_probe)
from .transport import (EvolutionSetup, MomentCurve, BoundaryContaminationError,
                        evolution_setup, moment_curve,
                        transport_exponent)
