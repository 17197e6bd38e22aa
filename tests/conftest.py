import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from polyspec.model import PolymerModel, PolymerSpec, dimer_preset, potentials_for_sites_batch
from polyspec.eigensolve import eigenvalues_in_window_batch, sturm_counts_batch
from polyspec.transfer import find_critical_energies, expansion_coeffs
from polyspec.statistics import EmpiricalIDS, _IDS_TOL, dos_at_critical

ACCEPT_SEED = 20240801

# Property tests replay the same examples on every run and store none.  The
# hypothesis plugin still caches the constants it reads from source files,
# already at collection, so its home directory goes to the system temp dir.
settings.register_profile("polyspec", derandomize=True, deadline=None, database=None)
settings.load_profile("polyspec")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "polyspec-hypothesis")


@st.composite
def explicit_models(draw):
    """Two polymers of lengths 1-4, potentials in [-3, 3], hoppings in [1e-3, 1e2]."""
    def polymer():
        n = draw(st.integers(1, 4))
        v = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        log_t = draw(st.lists(st.floats(-3.0, 2.0), min_size=n, max_size=n))
        return PolymerSpec(n, v, 10.0 ** np.asarray(log_t))
    return PolymerModel(polymer(), polymer(), draw(st.floats(0.02, 0.98)))


def columns(H):
    """(v, tsq) of one operator H: the single column the batched calls take."""
    return H.diagonal[:, None], (H.offdiagonal ** 2)[:, None]


def sturm_count(H, E):
    """Number of eigenvalues of H below E (scalar or array of energies)."""
    counts, _ = sturm_counts_batch(*columns(H), np.atleast_1d(np.asarray(E, float))[None, :])
    return int(counts[0, 0]) if np.ndim(E) == 0 else counts[0]


def eigenvalues_in_window(H, window, tol=1e-11):
    """Eigenvalues of H in [window[0], window[1]), each bracketed to width <= tol."""
    return eigenvalues_in_window_batch(*columns(H), window[0], window[1], tol)[0]


def gershgorin_interval(H):
    """[min v - 2 max t, max v + 2 max t]: an interval holding the spectrum of H."""
    tmax = float(H.offdiagonal.max()) if H.offdiagonal.size else 0.0
    return (float(H.diagonal.min()) - 2 * tmax, float(H.diagonal.max()) + 2 * tmax)


# full-spectrum pool: a block solves L packed columns per box, and smaller
# blocks run faster (32 boxes of 2000 sites: 3.1 us per eigenvalue on 2
# CPUs, against 4.0 at 256)
POOL_BATCH = 32


def pool_spectra(model, L_ids, seed, realization_indices):
    """Concatenated full spectra of iid boxes, one per realization index: the
    reference the library's IDS stores are checked against.

    Each box's spectrum is every eigenvalue in the model's spectrum_bracket,
    found by the compiled window kernel at the library's IDS tol; the boxes
    are drawn in POOL_BATCH blocks.  Asserts that no box lost an eigenvalue.
    """
    idx = list(realization_indices)
    a, b = model.spectrum_bracket
    pool = np.concatenate([
        e for s in range(0, len(idx), POOL_BATCH)
        for e in eigenvalues_in_window_batch(
            *potentials_for_sites_batch(model, L_ids, seed, idx[s:s + POOL_BATCH]), a, b,
            tol=_IDS_TOL)])
    assert pool.size == L_ids * len(idx), (
        f"pool_spectra found {pool.size} eigenvalues in [{a!r}, {b!r}) "
        f"for {len(idx)} boxes of {L_ids} sites")
    return pool


def empirical_ids(model, L_ids, seed, realization_indices) -> EmpiricalIDS:
    """The IDS over the full pool of pool_spectra."""
    return EmpiricalIDS(pooled=np.sort(pool_spectra(model, L_ids, seed, realization_indices)))


@pytest.fixture(scope="session")
def dimer06():
    model = dimer_preset(0.6, 0.5)
    report = find_critical_energies(model)[-1]   # E_c = +0.6
    coeffs = expansion_coeffs(model, report)
    n_Ec = dos_at_critical(coeffs, model)
    return {"model": model, "report": report, "coeffs": coeffs, "n_Ec": n_Ec}
