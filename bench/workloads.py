"""The benchmark workloads: how each builds its inputs, the CLI argv of
one op, the work an op does, and the checks every op's output must pass.

Every op is one ``endofix`` command run in-process through
``endofix.cli.main``.  Fit inputs are generated here with numpy and scipy,
never with ``endofix.simulation``, so a change to the package's
generators cannot change what the fit workloads measure.  The simulate
and constants workloads receive the workload seed only through the CLI's
own ``--seed`` (constants has no randomness at all).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

# Seed of the reduced-size op that warms each run up and is compared
# against references.json, which was recorded at the seed commit.
REFERENCE_SEED = 20220719

# Tolerances, each scaled by max(1, |reference|):
# - FIT_RTOL: coefficients, bootstrap SEs and percentile CIs.  The same
#   arithmetic reproduces them bit for bit; the roadmap's batched
#   bootstrap, rank-once and scipy-numerics changes reorder floating-point
#   work, which moves them by ~1e-14, so 1e-9 leaves room for that and
#   nothing else.
# - IDENTITY_RTOL: fit_npcf against fit_iv_internal, the paper's exact
#   identity; the tests hold it to 1e-10 and it measures ~1e-13 here.
# - ORACLE_RTOL: the report against an independent numpy/scipy
#   recomputation of OLS and the control-function estimate (lstsq instead
#   of pivoted QR, ndtri instead of the package's quantile): ~1e-12
#   measured; a one-ulp residual reordering can swap two adjacent ranks,
#   which moves coefficients by < 1e-10 at n = 200 000.
# - MC_RTOL: Monte Carlo cells of the closed-form estimators.  Replacing
#   the hand-written gamma quantile with scipy's moves dgp2 draws by up to
#   3e-12 relative, which the cells carry through.
# - GP_ATOL: gp_copula cells.  Nelder-Mead stops at xatol=1e-8 and the
#   closed-form copula MLE differs from it by <= 5e-8 per fit, so 1e-6 is
#   20x the largest measured gap and still catches a wrong likelihood.
# - CONSTANTS_ATOL: c1, c2, c3.  The CLI asks its quadrature for 1e-9; a
#   different correct integrator lands within a few times that.
FIT_RTOL = 1e-9
IDENTITY_RTOL = 1e-10
ORACLE_RTOL = 1e-8
MC_RTOL = 1e-8
GP_ATOL = 1e-6
CONSTANTS_ATOL = 1e-8


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _compare_tree(got, ref, tol_of, path: str, problems: list) -> None:
    """Append to ``problems`` every leaf of ``ref`` that ``got`` misses;
    ``tol_of(path)`` gives the tolerance of a numeric leaf."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, val in ref.items():
            _compare_tree(got.get(key), val, tol_of, f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare_tree(g, r, tol_of, f"{path}[{i}]", problems)
    elif isinstance(ref, float):
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and _close(got, ref, tol_of(path))):
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif got != ref:
        problems.append(f"{path}: {got!r} != reference {ref!r}")


@dataclass(frozen=True)
class Op:
    """One prepared op: its argv, where its report goes, and what the
    checks need to know about its input."""

    argv: list
    out: Path | None
    data: dict | None = None   # fit ops: the generated columns


# ---------------------------------------------------------------------------
# endofix fit
# ---------------------------------------------------------------------------

def fit_columns(n: int, seed) -> dict:
    """A dgp1-shaped sample: x ~ Gamma(1, 1); skewed first-stage error
    e ~ Gamma(1, 1); z = (0.5 x + e) / sd; the outcome error is
    0.5 Phi^-1(F(e)) + N(0, 1), so z is endogenous and identified."""
    rng = np.random.default_rng(seed)
    x = rng.gamma(1.0, 1.0, n)
    e = rng.gamma(1.0, 1.0, n)
    eps = rng.standard_normal(n)
    eta = special.ndtri(special.gammainc(1.0, e))
    z = (0.5 * x + e) / math.sqrt(1.25)
    return {"y": 1.0 - x + z + 0.5 * eta + eps, "x": x, "z": z}


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(A, b, rcond=None)[0]


@dataclass(frozen=True)
class FitOps:
    """``endofix fit --estimator npcf`` on a CSV made by :func:`fit_columns`,
    a fresh one for every op."""

    n: int
    B: int
    square: bool       # add square:x to the exogenous block

    unit = "resamples"

    @property
    def exog(self) -> list:
        return ["x", "square:x"] if self.square else ["x"]

    @property
    def units_per_op(self) -> int:
        return self.B

    def prepare(self, seed: int, work: Path):
        """Return ``make(i)``, which writes op i's CSV (before the op is
        timed) and returns its argv, with its own bootstrap seed."""
        out = work / "report.json"

        def make(i: int) -> Op:
            cols = fit_columns(self.n, [seed, i, self.n])
            path = work / f"fit-{self.n}-{seed}-{i}.csv"
            with open(path, "w") as fh:
                fh.write("y,x,z\n")
                np.savetxt(fh, np.column_stack([cols[k] for k in "yxz"]),
                           fmt="%.17g", delimiter=",")
            return Op(["fit", "--data", str(path), "--outcome", "y",
                       "--exog", *self.exog, "--endog", "z",
                       "--estimator", "npcf", "--bootstrap", str(self.B),
                       "--seed", str(seed * 1000 + i), "--out", str(out)],
                      out, cols)
        return make

    def _design(self, cols: dict) -> np.ndarray:
        parts = [np.ones(cols["x"].size), cols["x"]]
        if self.square:
            parts.append(cols["x"] ** 2)
        return np.column_stack(parts)

    def check(self, op: Op, report: dict, stdout: str) -> list:
        """Invariants every fit report must satisfy, and agreement with an
        independent recomputation of the OLS and npcf point estimates."""
        problems = []
        if report.get("n") != self.n or report.get("dropped_rows") != 0:
            problems.append(f"n={report.get('n')} dropped="
                            f"{report.get('dropped_rows')}, expected "
                            f"{self.n} rows and none dropped")
        est = report.get("estimates", {})
        ols, npcf = est.get("ols"), est.get("npcf")
        if ols is None or npcf is None:
            return problems + ["report lacks the ols or npcf estimates"]
        cols = op.data
        X = self._design(cols)
        first = cols["z"] - X @ _lstsq(X, cols["z"])
        scores = special.ndtri(_average_ranks(first) / (self.n + 1.0))
        oracle = {"ols": _lstsq(np.column_stack([X, cols["z"]]), cols["y"]),
                  "npcf": _lstsq(np.column_stack([X, cols["z"], scores]),
                                 cols["y"])}
        names = ["const", "x", *(["x^2"] if self.square else []), "z"]
        for tag, block, order in (("ols", ols, names),
                                  ("npcf", npcf, names + ["rho[z]"])):
            got = block.get("coefficients", {})
            want = dict(zip(order, oracle[tag].tolist()))
            if set(got) != set(want) or not all(
                    _close(got[k], want[k], ORACLE_RTOL) for k in want):
                problems.append(f"{tag} coefficients {got} differ from the "
                                f"numpy recomputation {want}")
        boot = npcf.get("bootstrap") or {}
        failed = boot.get("n_failed", -1)
        if boot.get("B") != self.B or not 0 <= failed <= 0.01 * self.B:
            problems.append(f"bootstrap B={boot.get('B')} n_failed="
                            f"{boot.get('n_failed')}")
        se = npcf.get("se") or {}
        ci = boot.get("percentile_ci") or {}
        for name in npcf.get("coefficients", {}):
            s, (lo, hi) = se.get(name, math.nan), ci.get(name, (math.nan,) * 2)
            if not (s > 0.0 and math.isfinite(s) and lo < hi
                    and math.isfinite(lo) and math.isfinite(hi)):
                problems.append(f"{name}: se={s} ci=({lo}, {hi}) is degenerate")
        return problems

    def check_identity(self, cols: dict) -> list:
        """fit_npcf and fit_iv_internal must give the same coefficients."""
        from endofix import Dataset, ModelSpec, fit_iv_internal, fit_npcf
        data = dict(cols, **({"x^2": cols["x"] ** 2} if self.square else {}))
        spec = ModelSpec("y", ("x", "x^2") if self.square else ("x",), ("z",))
        a = fit_npcf(Dataset(data), spec).theta
        b = fit_iv_internal(Dataset(data), spec).theta
        if all(_close(x, y, IDENTITY_RTOL) for x, y in zip(a, b)):
            return []
        return [f"fit_npcf {a.tolist()} != fit_iv_internal {b.tolist()}"]

    @staticmethod
    def reference_view(report: dict, stdout: str) -> dict:
        est = report["estimates"]
        return {
            "ols": {"coefficients": est["ols"]["coefficients"],
                    "se": est["ols"]["se"]},
            "npcf": {"coefficients": est["npcf"]["coefficients"],
                     "se": est["npcf"]["se"],
                     "percentile_ci": est["npcf"]["bootstrap"]["percentile_ci"],
                     "n_failed": est["npcf"]["bootstrap"]["n_failed"]},
        }

    @staticmethod
    def reference_tolerance(path: str) -> float:
        return FIT_RTOL


# ---------------------------------------------------------------------------
# endofix simulate
# ---------------------------------------------------------------------------

MC_ESTIMATORS = ("ols", "npcf", "2scope", "gp")
_MC_TAGS = ("ols", "npcf", "two_scope", "gp_copula")


@dataclass(frozen=True)
class SimulateOps:
    """``endofix simulate`` on the copula design (dgp2) with every
    comparator and no bootstrap."""

    reps: int

    unit = "reps"

    @property
    def units_per_op(self) -> int:
        return self.reps

    def prepare(self, seed: int, work: Path):
        out = work / "report.json"

        def make(i: int) -> Op:
            return Op(["simulate", "--dgp", "2", "--n", "250",
                       "--reps", str(self.reps), "--B", "0",
                       "--alpha", "0.5", "--rho", "0.5", "--edist", "g11",
                       "--seed", str(seed * 1000 + i),
                       "--estimators", *MC_ESTIMATORS, "--out", str(out)],
                      out)
        return make

    def check(self, op: Op, report: dict, stdout: str) -> list:
        """Every estimator completes (nearly) every repetition and every
        cell is finite with rmse^2 = bias^2 + std^2."""
        problems = []
        summary = report.get("summary", {})
        if summary.get("reps") != self.reps:
            problems.append(f"reps={summary.get('reps')}, expected {self.reps}")
        completed = summary.get("completed", {})
        for tag in _MC_TAGS:
            done = completed.get(tag, -1)
            if not 0.9 * self.reps <= done <= self.reps:
                problems.append(f"{tag} completed {done} of {self.reps}")
        cells = summary.get("cells", {})
        for tag in _MC_TAGS:
            for coef in ("const", "x", "z"):
                c = cells.get(f"{tag}:{coef}")
                if c is None:
                    problems.append(f"missing cell {tag}:{coef}")
                    continue
                b, s, r = c.get("bias"), c.get("std"), c.get("rmse")
                if not (all(isinstance(v, float) and math.isfinite(v)
                            for v in (b, s, r)) and s >= 0.0
                        and abs(r * r - b * b - s * s) <= 1e-9 * max(r * r, 1e-300)):
                    problems.append(f"cell {tag}:{coef} is inconsistent: {c}")
        return problems

    @staticmethod
    def reference_view(report: dict, stdout: str) -> dict:
        s = report["summary"]
        return {"completed": s["completed"], "cells": s["cells"]}

    @staticmethod
    def reference_tolerance(path: str) -> float:
        return GP_ATOL if ".gp_copula:" in path else MC_RTOL


# ---------------------------------------------------------------------------
# endofix constants
# ---------------------------------------------------------------------------

_CONST_LINE = re.compile(r"^(c1|c2|c3|lemma-b residual|singularity margin)"
                         r"\s*=\s*([-+0-9.eE]+)", re.M)


def parse_constants(stdout: str) -> dict:
    return {k: float(v) for k, v in _CONST_LINE.findall(stdout)}


@dataclass(frozen=True)
class ConstantsOps:
    """``endofix constants --dist gamma:3,2``; identical on every op."""

    unit = None       # an op is the unit of work
    units_per_op = 1

    def prepare(self, seed: int, work: Path):
        op = Op(["constants", "--dist", "gamma:3,2"], None)
        return lambda i: op

    def check(self, op: Op, report, stdout: str) -> list:
        """c1..c3 match the reference, the quadrature identity holds and
        the distribution is identified."""
        values = parse_constants(stdout)
        problems = []
        _compare_tree(values, REFERENCES["constants"]["values"],
                      self.reference_tolerance, "constants", problems)
        if not values.get("lemma-b residual", math.inf) <= 1e-6:
            problems.append(f"lemma-b residual {values.get('lemma-b residual')}")
        if not values.get("singularity margin", 0.0) > 1e-6:
            problems.append(f"singularity margin {values.get('singularity margin')}")
        return problems

    @staticmethod
    def reference_view(report, stdout: str) -> dict:
        v = parse_constants(stdout)
        return {"values": {k: v[k] for k in ("c1", "c2", "c3")}}

    @staticmethod
    def reference_tolerance(path: str) -> float:
        return CONSTANTS_ATOL


# Why each workload is here: BENCHMARK.json and README.md.
@dataclass(frozen=True)
class Workload:
    name: str
    full: object     # the timed op
    small: object    # the warm-up, set-up probe and self-check op


WORKLOADS = {w.name: w for w in (
    Workload("fit-boot", FitOps(n=250, B=999, square=False),
             FitOps(n=250, B=49, square=False)),
    Workload("fit-large", FitOps(n=200_000, B=9, square=True),
             FitOps(n=2_000, B=9, square=True)),
    Workload("mc-bias", SimulateOps(reps=100), SimulateOps(reps=5)),
    Workload("constants", ConstantsOps(), ConstantsOps()),
)}

REFERENCES_PATH = Path(__file__).with_name("references.json")
REFERENCES = (json.loads(REFERENCES_PATH.read_text())
              if REFERENCES_PATH.exists() else {})


def check_reference(workload: Workload, report, stdout: str) -> list:
    """Compare the reduced op's output with the one recorded at the seed
    commit."""
    ref = REFERENCES.get(workload.name)
    if ref is None:
        return [f"no reference recorded for {workload.name}"]
    ops = workload.small
    try:
        got = ops.reference_view(report, stdout)
    except (KeyError, TypeError) as exc:
        return [f"reference fields missing from the output: {exc!r}"]
    problems = []
    _compare_tree(got, ref, ops.reference_tolerance, workload.name, problems)
    return problems
