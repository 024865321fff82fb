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
