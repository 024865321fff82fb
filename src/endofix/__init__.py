"""Endogeneity correction without external instruments.

The core estimator residualizes each endogenous regressor on the
exogenous controls, converts the residual ranks to normal scores, and
adds those scores to the regression as a control function.  The package
also ships the exact internal-IV representation of that estimator, two
copula-flavored comparators, pairs-bootstrap inference, an exogeneity
test, the plug-in asymptotic covariance, and a Monte Carlo harness.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .data import Dataset
from .errors import (BootstrapError, ConstantInputError, DataError,
                     DomainError, EndofixError, IdentificationError,
                     QuadratureError, RankDeficiencyError)
from .numerics import DistSpec, QuadratureSpec, RngStream, sample
from .regress import DesignMatrix, OlsFit, ols_fit
from .transform import FirstStage, first_stage, normal_scores
from .estimators import (ESTIMATORS, ModelSpec, ThetaEstimate, fit_iv_internal,
                         fit_npcf, fit_ols, fit_two_scope)
from .copula_mle import gp_fit
from .asymptotics import (AsymptoticConstants, MomentSet, SigmaAsymptotic,
                          constants_c, lemma_b_residual, sigma_asymptotic)
from .inference import (BootstrapResult, TestResult, exogeneity_test,
                        exogeneity_test_of_fit, identification_diagnostic,
                        pairs_bootstrap)
from .simulation import DgpConfig, McSummary, gen_dgp1, gen_dgp2, mc_run

__all__ = [
    "__version__",
    "Dataset", "DistSpec", "QuadratureSpec", "RngStream", "sample",
    "DesignMatrix", "OlsFit", "ols_fit",
    "FirstStage", "first_stage", "normal_scores",
    "ESTIMATORS", "ModelSpec", "ThetaEstimate",
    "fit_ols", "fit_npcf", "fit_iv_internal", "fit_two_scope",
    "gp_fit",
    "AsymptoticConstants", "MomentSet", "SigmaAsymptotic",
    "constants_c", "lemma_b_residual", "sigma_asymptotic",
    "BootstrapResult", "TestResult", "exogeneity_test",
    "exogeneity_test_of_fit", "identification_diagnostic", "pairs_bootstrap",
    "DgpConfig", "McSummary", "gen_dgp1", "gen_dgp2", "mc_run",
    "EndofixError", "DataError", "DomainError", "RankDeficiencyError",
    "ConstantInputError", "QuadratureError", "IdentificationError",
    "BootstrapError",
]
