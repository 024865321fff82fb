import importlib
import pkgutil

import pytest

import endofix

MODULES = [m.name for m in pkgutil.iter_modules(endofix.__path__)]


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_exported_name_resolves(module):
    mod = endofix if module is None else importlib.import_module(
        f"endofix.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{mod.__name__}.{name}"


@pytest.mark.parametrize("module,name", [
    ("numerics", "DistSpec.empirical"), ("numerics", "DistSpec.mvnormal"),
    ("numerics", "DistSpec._empirical_quantile"),
    ("asymptotics", "_check_scalar_family"),
    ("asymptotics", "MomentSet.simulated"),
    ("copula_mle", "KernelCdf"), ("copula_mle", "silverman_bandwidth"),
    ("copula_mle", "kernel_cdf_eval"), ("copula_mle", "GpParams"),
    ("copula_mle", "gp_loglik"), ("copula_mle", "_loglik_core"),
    ("regress", "OlsFit.vcov_hc0"), ("regress", "OlsFit.se_hc0"),
    ("inference", "bootstrap_t_test"), ("transform", "ecdf_rescaled"),
    ("inference", "_split_ties"), ("inference", "_TIE_RTOL"),
    ("regress", "OlsFit.se_classical"), ("numerics", "DistSpec.cdf"),
    ("transform", "average_ranks"), ("transform", "_rank_rows"),
    ("transform", "_run_ranks"), ("transform", "_score_rows"),
    ("transform", "_scores_of_ranks"), ("transform", "_through_sort"),
    ("transform", "_symmetric_score_grid"), ("transform", "FirstStage.ranks"),
    ("inference", "BootstrapResult.ci_of"), ("asymptotics", "_g_memo"),
    ("asymptotics", "_c2_quadrature"), ("asymptotics", "_lemma_b_lhs"),
    ("estimators", "build_design"), ("numerics", "integrate_1d"),
    ("numerics", "QuadratureSpec"), ("numerics", "DistSpec.centered"),
    ("numerics", "DistSpec.centered_version"),
    ("asymptotics", "lemma_b_residual"),
    ("simulation", "DgpConfig.beta0"), ("simulation", "DgpConfig.beta1"),
    ("simulation", "DgpConfig.gamma"), ("cli", "_parse_edist"),
])
def test_deleted_names_are_gone(module, name):
    obj = importlib.import_module(f"endofix.{module}")
    *owners, leaf = name.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, leaf)
    assert leaf not in getattr(obj, "__dataclass_fields__", {})
    assert leaf not in endofix.__all__
