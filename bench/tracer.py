"""Spans around the calls into each endofix module, recorded from outside.

Every traced function is wrapped under each name an endofix module bound
it as, so ``estimators.first_stage`` and ``transform.std_normal_quantile``
are separate span names for the same functions that ``first_stage`` and
``std_normal_quantile`` name inside their own modules.  Nothing under
``src/`` is edited: the wrappers replace module attributes, the
estimator registry's entries and ``Dataset.take`` while installed, and
:meth:`Tracer.uninstall` puts the originals back.

Spans are tuples (binding, function, start, end, parent span, op id,
exception type or None), kept in memory and written out by
:meth:`Tracer.write`.  Counts taken from arguments and results at the same
boundaries go to :attr:`Tracer.counts`.  The count hooks run while the
caller's spans are open, so span times are read from a clock that stops
while a hook runs: no span includes the tracer's own counting.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(a) -> int:
    return a.n if hasattr(a, "n") else np.shape(a)[0]


def _count_ingest(c, args, kwargs, result):
    data, _, dropped = result
    c["cli.rows"] += data.n + dropped


def _count_ols(c, args, kwargs, result):
    c["regress.rows"] += _rows(args[0])


def _count_first_stage(c, args, kwargs, result):
    c["transform.first_stage_cols"] += result.m


def _count_ranks(c, args, kwargs, result):
    v = np.asarray(args[0])
    c["transform.rows_ranked"] += v.size
    c["transform.tie_groups"] += np.unique(v).size


def _count_minimize(c, args, kwargs, result):
    c["copula_mle.nfev"] += int(result.nfev)
    c["copula_mle.unconverged"] += not result.success


def _count_bootstrap(c, args, kwargs, result):
    c["inference.resamples"] += len(result.draws)
    c["inference.resamples_failed"] += result.n_failed


def _count_mc(c, args, kwargs, result):
    c["simulation.reps"] += result.reps
    c["simulation.est_fail"] += sum(result.reps - k
                                    for k in result.completed.values())


def _count_constants(c, args, kwargs, result):
    c["asymptotics.c3_panels"] += result.quadrature_report.get("c3_panels", 0)


def _count_gamma_quantile(c, args, kwargs, result):
    c["numerics.gamma_quantile_points"] += np.size(result)


def _count_integrand(tracer, args):
    """Wrap the integrand so each evaluation adds its abscissa count."""
    f = args[0]

    def counted(t):
        tracer.counts["numerics.integrand_points"] += np.size(t)
        return f(t)
    return (counted, *args[1:])


# (defining module, attribute, count hook, argument hook)
TARGETS = [
    ("cli", "ingest_csv", _count_ingest, None),
    ("regress", "ols_fit", _count_ols, None),
    ("regress", "partial_out", _count_ols, None),
    ("transform", "first_stage", _count_first_stage, None),
    ("transform", "average_ranks", _count_ranks, None),
    ("transform", "normal_scores", None, None),
    ("estimators", "fit_ols", None, None),
    ("estimators", "fit_npcf", None, None),
    ("estimators", "fit_iv_internal", None, None),
    ("estimators", "fit_two_scope", None, None),
    ("copula_mle", "gp_fit", None, None),
    ("copula_mle", "minimize", _count_minimize, None),
    ("inference", "pairs_bootstrap", _count_bootstrap, None),
    ("inference", "exogeneity_test", None, None),
    ("inference", "identification_diagnostic", None, None),
    ("simulation", "mc_run", _count_mc, None),
    ("simulation", "generate", None, None),
    ("asymptotics", "constants_c", _count_constants, None),
    ("asymptotics", "lemma_b_residual", None, None),
    ("numerics", "integrate_1d", None, _count_integrand),
    ("numerics", "integrate_1d_report", None, _count_integrand),
    ("numerics", "gamma_quantile", _count_gamma_quantile, None),
    ("numerics", "std_normal_quantile", None, None),
]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list = []
        self._patched: list = []
        self._hook_s = 0.0      # time spent in hooks; the span clock skips it

    def _clock(self) -> float:
        return time.perf_counter() - self._hook_s

    def _hook(self, hook, *args):
        start = time.perf_counter()
        try:
            return hook(*args)
        finally:
            self._hook_s += time.perf_counter() - start

    def wrap(self, binding: str, func: str, fn, count=None, adjust=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adjust is not None:
                args = tracer._hook(adjust, tracer, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            err = None
            start = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = tracer._clock()
                tracer._stack.pop()
                tracer.spans[idx] = (binding, func, start, end, parent,
                                     tracer.op, err)
            if count is not None:
                tracer._hook(count, tracer.counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded endofix modules.
        A target the package no longer has is skipped; its metrics read 0."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("endofix.") and mod is not None}
        by_id = {}
        for mod_name, attr, count, adjust in TARGETS:
            fn = getattr(mods.get(mod_name), attr, None)
            if fn is not None:
                by_id[id(fn)] = (fn, f"{mod_name}.{attr}", count, adjust)

        def patch(owner, key, binding, setter):
            hit = by_id.get(id(owner[key] if isinstance(owner, dict)
                               else getattr(owner, key)))
            if hit is None:
                return
            fn, func, count, adjust = hit
            self._patched.append((owner, key, fn))
            setter(self.wrap(binding, func, fn, count, adjust))

        for short, mod in mods.items():
            for attr in list(vars(mod)):
                patch(mod, attr, f"{short}.{attr}",
                      functools.partial(setattr, mod, attr))
        registry = getattr(mods.get("estimators"), "ESTIMATORS", {})
        for key in list(registry):
            patch(registry, key, f"estimators.ESTIMATORS[{key}]",
                  functools.partial(registry.__setitem__, key))
        dataset = getattr(mods.get("data"), "Dataset", None)
        if dataset is not None and hasattr(dataset, "take"):
            fn = dataset.take
            self._patched.append((dataset, "take", fn))
            dataset.take = self.wrap("data.Dataset.take", "data.take", fn)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patched.clear()

    def call(self, binding: str, fn, *args):
        """Run ``fn(*args)`` as a root span (used for ``cli.main``)."""
        return self.wrap(binding, binding, fn)(*args)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["binding", "function", "start", "end",
                                  "parent", "op", "error"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, per traced op unless the name says otherwise.

    ``_s`` metrics are inclusive span time (outermost calls only, so a
    function nested in itself is not counted twice), except
    ``cli.self_s`` and ``simulation.mc_run_s``, which are self time: span
    time minus the time of their child spans.
    """
    calls, total, self_s, errors = Counter(), Counter(), Counter(), Counter()
    child = defaultdict(float)
    ranks_in_first_stage = 0
    spans = tracer.spans

    def inside(i: int, func: str) -> bool:
        p = spans[i][4]
        while p >= 0 and spans[p][1] != func:
            p = spans[p][4]
        return p >= 0

    for binding, func, start, end, parent, _, err in spans:
        dur = end - start
        calls[func] += 1
        if parent >= 0:
            child[parent] += dur
        if err:
            errors[func, err] += 1
    for i, (binding, func, start, end, parent, _, err) in enumerate(spans):
        self_s[func] += (end - start) - child[i]
        if not inside(i, func):
            total[func] += end - start
        if func == "transform.average_ranks":
            ranks_in_first_stage += inside(i, "transform.first_stage")
    c = tracer.counts
    per = 1.0 / max(ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    attempted = c["inference.resamples"] + c["inference.resamples_failed"]
    integrate = ("numerics.integrate_1d", "numerics.integrate_1d_report")
    m = {
        "cli.ingest_s": (total["cli.ingest_csv"] * per, "s/op"),
        "cli.ingest_rows": (c["cli.rows"] * per, "rows/op"),
        "cli.self_s": (self_s["cli.main"] * per, "s/op"),
        "data.take_calls": (calls["data.take"] * per, "calls/op"),
        "data.take_s": (total["data.take"] * per, "s/op"),
        "regress.ols_fit_calls": (calls["regress.ols_fit"] * per, "calls/op"),
        "regress.ols_fit_s": (total["regress.ols_fit"] * per, "s/op"),
        "regress.rows_factored": (c["regress.rows"] * per, "rows/op"),
        "regress.partial_out_calls": (calls["regress.partial_out"] * per,
                                      "calls/op"),
        "regress.rank_deficient": (
            (errors["regress.ols_fit", "RankDeficiencyError"]
             + errors["regress.partial_out", "RankDeficiencyError"]) * per,
            "count/op"),
        "transform.first_stage_calls": (calls["transform.first_stage"] * per,
                                        "calls/op"),
        "transform.first_stage_s": (total["transform.first_stage"] * per,
                                    "s/op"),
        "transform.average_ranks_calls": (
            calls["transform.average_ranks"] * per, "calls/op"),
        "transform.average_ranks_s": (total["transform.average_ranks"] * per,
                                      "s/op"),
        "transform.normal_scores_s": (total["transform.normal_scores"] * per,
                                      "s/op"),
        "transform.rows_ranked": (c["transform.rows_ranked"] * per,
                                  "rows/op"),
        "transform.ranks_per_first_stage": (
            ratio(ranks_in_first_stage,
                  c["transform.first_stage_cols"]), "ranks/column"),
        "transform.rank_loop_iters": (c["transform.tie_groups"] * per,
                                      "iters/op"),
        "estimators.fit_npcf_calls": (calls["estimators.fit_npcf"] * per,
                                      "calls/op"),
        "estimators.fit_npcf_s": (total["estimators.fit_npcf"] * per, "s/op"),
        "estimators.fit_two_scope_s": (total["estimators.fit_two_scope"] * per,
                                       "s/op"),
        "estimators.fit_iv_internal_s": (
            total["estimators.fit_iv_internal"] * per, "s/op"),
        "estimators.fit_ols_s": (total["estimators.fit_ols"] * per, "s/op"),
        "estimators.identification_fail": (
            sum(v for (f, e), v in errors.items()
                if f.startswith("estimators.") and e == "IdentificationError")
            * per, "count/op"),
        "copula_mle.gp_fit_calls": (calls["copula_mle.gp_fit"] * per,
                                    "calls/op"),
        "copula_mle.gp_fit_s": (total["copula_mle.gp_fit"] * per, "s/op"),
        "copula_mle.starts": (calls["copula_mle.minimize"] * per, "calls/op"),
        "copula_mle.nfev": (c["copula_mle.nfev"] * per, "evals/op"),
        "copula_mle.unconverged": (c["copula_mle.unconverged"] * per,
                                   "count/op"),
        "inference.pairs_bootstrap_calls": (
            calls["inference.pairs_bootstrap"] * per, "calls/op"),
        "inference.pairs_bootstrap_s": (
            total["inference.pairs_bootstrap"] * per, "s/op"),
        "inference.resamples": (c["inference.resamples"] * per,
                                "resamples/op"),
        "inference.resamples_failed": (c["inference.resamples_failed"] * per,
                                       "resamples/op"),
        "inference.resample_ok_ratio": (
            ratio(c["inference.resamples"], attempted), "ratio"),
        "inference.s_per_resample": (
            ratio(total["inference.pairs_bootstrap"], attempted), "s"),
        "inference.exogeneity_test_s": (
            total["inference.exogeneity_test"] * per, "s/op"),
        "inference.identification_diagnostic_s": (
            total["inference.identification_diagnostic"] * per, "s/op"),
        "simulation.mc_run_s": (self_s["simulation.mc_run"] * per, "s/op"),
        "simulation.generate_calls": (calls["simulation.generate"] * per,
                                      "calls/op"),
        "simulation.generate_s": (total["simulation.generate"] * per, "s/op"),
        "simulation.reps_completed": (c["simulation.reps"] * per, "reps/op"),
        "simulation.reps_failed": (c["simulation.est_fail"] * per,
                                   "fits/op"),
        "simulation.s_per_rep": (
            ratio(total["simulation.mc_run"], c["simulation.reps"]), "s"),
        "asymptotics.constants_c_s": (total["asymptotics.constants_c"] * per,
                                      "s/op"),
        "asymptotics.lemma_b_s": (total["asymptotics.lemma_b_residual"] * per,
                                  "s/op"),
        "asymptotics.c3_panels": (c["asymptotics.c3_panels"] * per,
                                  "panels/op"),
        "numerics.integrate_calls": (sum(calls[f] for f in integrate) * per,
                                     "calls/op"),
        "numerics.integrate_s": (sum(total[f] for f in integrate) * per,
                                 "s/op"),
        "numerics.integrand_points": (c["numerics.integrand_points"] * per,
                                      "points/op"),
        "numerics.gamma_quantile_calls": (
            calls["numerics.gamma_quantile"] * per, "calls/op"),
        "numerics.gamma_quantile_points": (
            c["numerics.gamma_quantile_points"] * per, "points/op"),
        "numerics.gamma_quantile_s": (total["numerics.gamma_quantile"] * per,
                                      "s/op"),
        "numerics.std_normal_quantile_calls": (
            calls["numerics.std_normal_quantile"] * per, "calls/op"),
        "numerics.std_normal_quantile_s": (
            total["numerics.std_normal_quantile"] * per, "s/op"),
        "trace.spans": (len(spans) * per, "spans/op"),
    }
    return m
