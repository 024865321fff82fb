import numpy as np
import pytest

from endofix import DgpConfig, DistSpec, RngStream
from endofix.data import Dataset
from endofix.simulation import MODEL_SPEC, generate


@pytest.fixture
def dgp1_small():
    """One fixed small dataset with real endogeneity (delta=1, rho=0.5)."""
    cfg = DgpConfig("dgp1", n=250, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    return generate(cfg, RngStream(1234))


@pytest.fixture
def model_spec():
    return MODEL_SPEC


@pytest.fixture
def tied_groups():
    """Datasets of n rows with integer z and a binary x whose group means
    of z differ by an integer, by seed.  So the first-stage residuals
    z - mean(z | x) of rows with different x tie in exact arithmetic, and
    rounding alone orders them."""
    def make(seed, n=120):
        rng = np.random.default_rng(seed)
        k = rng.integers(0, 6, n // 2)
        z = np.concatenate([k, rng.permutation(k) + rng.integers(1, 4)])
        x = np.repeat([0.0, 1.0], n // 2)
        rows = rng.permutation(n)
        y = 1.0 + x + z + rng.standard_normal(n)
        return Dataset({"y": y[rows], "x": x[rows],
                        "z": z[rows].astype(np.float64)})
    return make


@pytest.fixture
def cps_like():
    """Datasets shaped like the wage equations of the paper's
    application (a CPS extract), generated, so nothing is downloaded:
    log wage on integer schooling ``educ`` (8 to 20, endogenous through
    an unobserved ability), integer experience ``exper`` (0 to 40, which
    enters with its square) and a ``female`` dummy, with a skewed error.
    Since exper >= 0, exper and exper^2 order the rows alike."""
    def make(seed, n=2000):
        rng = np.random.default_rng(seed)
        female = rng.integers(0, 2, n).astype(np.float64)
        exper = rng.integers(0, 41, n).astype(np.float64)
        ability = rng.gamma(2.0, 1.0, n) - 2.0
        educ = np.clip(np.round(13.0 + 1.5 * ability - 0.05 * exper
                                + rng.normal(0.0, 1.5, n)), 8.0, 20.0)
        u = 0.15 * ability + rng.gamma(2.0, 0.15, n) - 0.3
        wage = (0.5 + 0.08 * educ + 0.04 * exper - 0.0007 * exper ** 2
                - 0.2 * female + u)
        return Dataset({"wage": wage, "educ": educ, "exper": exper,
                        "female": female})
    return make
