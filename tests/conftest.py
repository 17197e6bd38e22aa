import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from polyspec.model import PolymerModel, PolymerSpec, dimer_preset
from polyspec.transfer import find_critical_energies, expansion_coeffs
from polyspec.statistics import (empirical_ids, dos_at_critical, les_ensemble,
                                 clock_spacing_statistic)

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


@pytest.fixture(scope="session")
def dimer06():
    model = dimer_preset(0.6, 0.5)
    report = find_critical_energies(model)[-1]   # E_c = +0.6
    coeffs = expansion_coeffs(model, report)
    n_Ec = dos_at_critical(coeffs, model)
    return {"model": model, "report": report, "coeffs": coeffs, "n_Ec": n_Ec}


@pytest.fixture(scope="session")
def ids06(dimer06):
    """Pooled IDS for the V=0.6 dimer, box-size matched to the LES ensembles."""
    return empirical_ids(dimer06["model"], 4000, ACCEPT_SEED,
                         range(10 ** 6, 10 ** 6 + 1200))


@pytest.fixture(scope="session")
def poisson_samples(dimer06, ids06):
    """Unfolded LES ensemble at the noncritical energy E0 = 1.2."""
    return les_ensemble(dimer06["model"], 1.2, 4000, 1000, ACCEPT_SEED,
                        window_atoms=12, ids=ids06)


@pytest.fixture(scope="session")
def clock_runs(dimer06):
    """Strong-clock spacing statistics at three box sizes, with wall time."""
    t0 = time.perf_counter()
    out = {}
    for L in (5000, 10000, 20000):
        sample, summary = clock_spacing_statistic(
            dimer06["model"], dimer06["report"], L, realizations=200,
            j_max=20, seed=ACCEPT_SEED)
        out[L] = {"sample": sample, "summary": summary}
    return {"runs": out, "wall": time.perf_counter() - t0}
