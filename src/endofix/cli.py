"""Command-line interface: CSV ingestion, estimation, simulation grids,
and the asymptotic constants.

Reports are emitted as a single JSON document (machine-readable; schema
version recorded inside) plus a human-readable table on stdout.  Exit
codes: 0 success, 2 configuration errors, 3 numeric failures (a report
with a non-finite number among them), and 141 from the ``endofix``
command when its stdout is closed before the output is written.
"""
from __future__ import annotations

import argparse
import csv
import functools
from array import array
from itertools import chain, islice
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from . import copula_mle  # noqa: F401  (registers the copula estimator)
from .data import Dataset
from .errors import DataError, DomainError, EndofixError
from .estimators import ESTIMATORS, ModelSpec, ThetaEstimate, fit_npcf, fit_ols
from .inference import (exogeneity_test_of_fit, identification_diagnostic,
                        pairs_bootstrap)
from .numerics import DistSpec, QuadratureSpec, RngStream
from .asymptotics import _lemma_b_lhs, constants_c
from .simulation import DgpConfig, mc_run

REPORT_SCHEMA = "endofix-report/2"

_CLI_TO_TAG = {"ols": "ols", "npcf": "npcf", "iv": "iv_internal",
               "2scope": "two_scope", "gp": "gp_copula"}


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _resolve_exog(tokens):
    """Expand ``square:NAME`` tokens into derived squared columns.

    Returns (base column names needed, [(derived name, source)], final
    exogenous names in order).
    """
    base, derived, final = [], [], []
    for tok in tokens:
        if tok.startswith("square:"):
            src = tok.split(":", 1)[1]
            if not src:
                raise DataError("square: directive needs a column name")
            name = f"{src}^2"
            derived.append((name, src))
            final.append(name)
            if src not in base:
                base.append(src)
        else:
            final.append(tok)
            if tok not in base:
                base.append(tok)
    return base, derived, final


def _parse_rows(reader, idx):
    """The cells ``idx`` of each non-blank row of ``reader`` through
    ``float``: returns (array of parsed rows, rows dropped, rows read);
    a row with a cell that does not parse or is missing is dropped."""
    # parsed rows go into one flat buffer: a list of per-row lists of
    # float objects takes about six times the memory
    flat, dropped = array("d"), 0
    for raw in reader:
        try:
            flat.extend([float(raw[i]) for i in idx])
        except (ValueError, IndexError):
            # a blank line (no cell but whitespace) fails here too, but it
            # is no row, so it is not counted
            dropped += any(cell.strip() for cell in raw)
    arr = np.frombuffer(flat, dtype=np.float64).reshape(-1, len(idx))
    return arr, dropped, arr.shape[0] + dropped


# lines per block of the CSV body
_BLOCK_LINES = 2048


def _ends_in_quote(lines):
    """Whether ``lines`` stop inside a quoted cell, which may hold a line
    break.  A line without a quote character leaves that state as it
    was, so only the lines with one go through ``csv``."""
    for row in csv.reader([ln for ln in lines if '"' in ln] + ["\n"]):
        pass
    return bool(row)


def _parse_body(fh, idx):
    """The cells ``idx`` of each row of the rest of ``fh``, as
    :func:`_parse_rows` returns them.

    Blocks of whole rows go through numpy's C reader.  A block it rejects
    (``1_000``, an empty cell, a whitespace-only line, a short row, ...)
    is parsed row by row, and so are the next 1, 3, 7, ... blocks while
    the C reader keeps rejecting, so a file with such cells throughout
    costs about what the row loop alone does.  Both parsers give the
    same rows.
    """
    blocks, dropped, total, backoff = [], 0, 0, 0
    while lines := list(islice(fh, _BLOCK_LINES)):
        # a block that ends inside a quoted cell doubles until it does not
        while _ends_in_quote(lines) and (
                more := list(islice(fh, len(lines)))):
            lines += more
        try:
            # quotechar keeps a quoted comma inside one cell, and
            # comments=None keeps a '#' from cutting a row short
            arr = np.loadtxt(lines, delimiter=",", usecols=idx,
                             comments=None, quotechar='"', ndmin=2,
                             dtype=np.float64)
        except ValueError:
            backoff = 2 * backoff + 1
            rows = chain(csv.reader(lines),
                         islice(csv.reader(fh), backoff * _BLOCK_LINES))
            arr, d, t = _parse_rows(rows, idx)
        else:
            backoff, d, t = 0, 0, arr.shape[0]
        blocks.append(arr)
        dropped += d
        total += t
    if not blocks:
        return np.empty((0, len(idx))), 0, 0
    return np.concatenate(blocks), dropped, total


def _not_utf8(path: str, exc: UnicodeDecodeError) -> DataError:
    byte = exc.object[exc.start]
    return DataError(f"{path!r} is not UTF-8 text: byte {byte:#04x} cannot "
                     "be decoded; save the file as UTF-8")


def ingest_csv(path: str, outcome: str, exogenous, endogenous):
    """Read a header-ed CSV, keeping only rows where every used column
    parses as a finite number.

    Returns (Dataset, ModelSpec, n_dropped); rows with an unparseable,
    ``nan`` or ``inf`` cell are dropped and counted.  ``square:NAME``
    entries in ``exogenous`` create derived squared columns named
    ``NAME^2``; a row whose square overflows is dropped too.  The body is
    parsed by numpy's C reader, and row by row only in the blocks of rows
    that it rejects; both give the same rows.

    Raises DataError on a file that is not UTF-8 text, a missing column,
    an empty result, or when more than half of the data rows are dropped.
    """
    base_exog, derived, final_exog = _resolve_exog(list(exogenous))
    needed = [outcome, *base_exog, *endogenous]
    if len(set(needed)) != len(needed):
        raise DataError("duplicate column among outcome/exogenous/endogenous")

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path!r} is empty") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        header = [h.strip() for h in header]
        missing = [c for c in needed if c not in header]
        if missing:
            raise DataError(f"missing column(s) {missing} in {path!r}; "
                            f"header has {header}")
        idx = [header.index(c) for c in needed]
        with warnings.catch_warnings():
            # loadtxt warns on a block with no rows (blank lines only)
            warnings.filterwarnings("ignore", "loadtxt: input contained "
                                    "no data", UserWarning)
            try:
                arr, dropped, total = _parse_body(fh, idx)
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, exc) from None
    # derived squares are masked with the columns, so one that overflows
    # drops its row like an ``inf`` cell does
    squares = arr[:, [needed.index(src) for _, src in derived]]
    with np.errstate(over="ignore"):
        np.square(squares, out=squares)
    finite = np.isfinite(arr).all(axis=1) & np.isfinite(squares).all(axis=1)
    if not finite.all():
        arr, squares = arr[finite], squares[finite]
        dropped += int(finite.size - arr.shape[0])
    if not arr.size:
        raise DataError(f"no usable rows in {path!r}")
    if total and dropped > 0.5 * total:
        raise DataError(f"{dropped} of {total} rows unparseable or "
                        f"non-finite in {path!r}")

    cols = {name: arr[:, j] for j, name in enumerate(needed)}
    for j, (name, _) in enumerate(derived):
        cols[name] = squares[:, j]
    spec = ModelSpec(outcome=outcome, exogenous=tuple(final_exog),
                     endogenous=tuple(endogenous))
    return Dataset(cols, provenance=path), spec, dropped


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _estimate_block(fit: ThetaEstimate, boot=None) -> dict:
    se = None
    se_source = "none"
    if boot is not None:
        se = boot.se
        se_source = "bootstrap"
    elif fit.vcov is not None:
        se = fit.se()
        se_source = fit.vcov_source
    block = {
        "estimator": fit.estimator_tag,
        "coefficients": {nm: float(v) for nm, v in zip(fit.names, fit.theta)},
        "se_source": se_source,
        "se": None if se is None else
              {nm: float(s) for nm, s in zip(fit.names, se)},
        "t_stats": None if se is None else
                   {nm: (float(v / s) if s > 0 else None)
                    for nm, v, s in zip(fit.names, fit.theta, se)},
        "r_squared": fit.r_squared,
    }
    if boot is not None:
        block["bootstrap"] = {
            "B": boot.B, "level": boot.level,
            "n_failed": boot.n_failed,
            "failures": dict(boot.failures),
            "n_extreme_draws": boot.n_extreme_draws,
            "scalar_refits": boot.scalar_refits,
            "percentile_ci": {nm: [float(lo), float(hi)]
                              for nm, (lo, hi) in
                              zip(boot.names, boot.percentile_ci.T)},
        }
    if "sigma_u" in fit.extra:
        block["sigma_u"] = fit.extra["sigma_u"]
    return block


def _fit_table(report: dict) -> str:
    """Human-readable estimate/SE/t table, estimators side by side."""
    blocks = report["estimates"]
    names = []
    for b in blocks.values():
        for nm in b["coefficients"]:
            if nm not in names:
                names.append(nm)
    lines = []
    head = "coefficient".ljust(16) + "".join(
        f"{tag:>14}" + "   (se)".ljust(12) for tag in blocks)
    lines.append(head)
    for nm in names:
        row = nm.ljust(16)
        for b in blocks.values():
            v = b["coefficients"].get(nm)
            s = (b["se"] or {}).get(nm) if b["se"] else None
            row += f"{v:>14.4f}" if v is not None else " " * 14
            row += f"  ({s:.4f}) " if s is not None else " " * 12
        lines.append(row)
    r2 = "R^2".ljust(16)
    for b in blocks.values():
        r2 += (f"{b['r_squared']:>14.4f}" if b["r_squared"] is not None
               else " " * 14) + " " * 12
    lines.append(r2)
    return "\n".join(lines)


def _non_finite(obj, path: str = "") -> str | None:
    """Path (``estimates.ols.se.const``, say) of the first float in the
    report ``obj`` that is not finite, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        bad = _non_finite(value, f"{path}.{key}" if path else str(key))
        if bad is not None:
            return bad
    return None


def _check_report(report: dict) -> None:
    """Raise EndofixError naming the first non-finite statistic: a report
    holds only finite numbers, which is also what strict JSON allows."""
    bad = _non_finite(report)
    if bad is not None:
        raise EndofixError(f"statistic {bad} is not finite: a computation "
                           "overflowed double precision")


def _write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    tag = _CLI_TO_TAG[args.estimator]
    if tag != "ols" and args.bootstrap < 2:
        raise DataError(f"--bootstrap must be at least 2 for the "
                        f"{args.estimator} estimator, got {args.bootstrap}")
    data, spec, dropped = ingest_csv(args.data, args.outcome,
                                     args.exog or [], args.endog)
    seed = RngStream(args.seed)
    t0 = time.time()

    estimates: dict[str, dict] = {}
    ols = fit_ols(data, spec)
    estimates["ols"] = _estimate_block(ols)
    if tag != "ols":
        fit = ESTIMATORS[tag](data, spec)
        boot = pairs_bootstrap(data, spec, tag, B=args.bootstrap, seed=seed,
                               level=args.level)
        estimates[args.estimator] = _estimate_block(fit, boot)
    # one npcf fit serves the exogeneity test and the first-stage diagnostic
    npcf = fit if tag == "npcf" else fit_npcf(data, spec)

    tests = {}
    diagnostics = {}
    if spec.m == 1:
        ex = exogeneity_test_of_fit(npcf)
        tests["exogeneity"] = {"statistic": ex.statistic,
                               "p_value": ex.p_value,
                               "null": ex.null_description}
    ident = identification_diagnostic(npcf.first_stage)
    diagnostics["identification"] = [
        {"column": spec.endogenous[j], "jarque_bera": r.statistic,
         "p_value": r.p_value,
         "weak_identification_warning": bool(r.p_value > 0.05)}
        for j, r in enumerate(ident)]

    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": {
            "command": "fit", "data": args.data, "outcome": args.outcome,
            "exog": list(args.exog or []), "endog": list(args.endog),
            "estimator": args.estimator, "bootstrap": args.bootstrap,
            "seed": args.seed, "level": args.level,
        },
        "n": data.n,
        "dropped_rows": dropped,
        "estimates": estimates,
        "tests": tests,
        "diagnostics": diagnostics,
        "timing_seconds": time.time() - t0,
    }
    _check_report(report)
    print(_fit_table(report))
    if spec.m == 1:
        print(f"\nexogeneity test: t = {tests['exogeneity']['statistic']:.3f}, "
              f"p = {tests['exogeneity']['p_value']:.4f}")
    for d in diagnostics["identification"]:
        flag = "WEAK-IDENTIFICATION WARNING" if d["weak_identification_warning"] else "ok"
        print(f"first-stage normality [{d['column']}]: JB = "
              f"{d['jarque_bera']:.2f}, p = {d['p_value']:.2e}  [{flag}]")
    if args.out:
        _write_report(report, args.out)
        print(f"\nreport written to {args.out}")
    return 0


def _parse_edist(text: str) -> DistSpec:
    if text == "g11":
        return DistSpec.gamma(1.0, 1.0)
    if text == "g32":
        return DistSpec.gamma(3.0, 2.0)
    raise DataError(f"unknown error distribution {text!r} (use g11 or g32)")


def cmd_simulate(args) -> int:
    e_dist = _parse_edist(args.edist)
    cfg = DgpConfig(kind=f"dgp{args.dgp}", n=args.n, e_dist=e_dist,
                    delta=args.delta, alpha=args.alpha, rho=args.rho)
    tags = [_CLI_TO_TAG[e] for e in args.estimators]
    t0 = time.time()
    summary = mc_run(cfg, tags, reps=args.reps, B=args.B,
                     master=RngStream(args.seed), keep_draws=args.dump)
    out = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": {
            "command": "simulate", "dgp": args.dgp, "n": args.n,
            "reps": args.reps, "B": args.B, "rho": args.rho,
            "delta": args.delta, "alpha": args.alpha, "edist": args.edist,
            "estimators": list(args.estimators), "seed": args.seed,
        },
        "summary": summary.to_dict(),
        "timing_seconds": time.time() - t0,
    }
    if args.dump:
        out["per_rep_estimates"] = summary.draws
    _check_report(out)
    print(summary.table())
    if args.out:
        _write_report(out, args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_constants(args) -> int:
    if args.dist == "normal":
        F = DistSpec.normal(0.0, 1.0)
    elif args.dist.startswith("gamma:"):
        try:
            a, b = (float(v) for v in args.dist.split(":", 1)[1].split(","))
        except ValueError:
            raise DataError("use --dist gamma:SHAPE,RATE") from None
        F = DistSpec.gamma(a, b, centered=True)
    else:
        raise DataError(f"unknown distribution {args.dist!r}")
    spec = QuadratureSpec(abs_tol=args.tol, max_subdivisions=40000)
    cons = constants_c(F, spec)
    # lemma_b_residual(F, spec), with the c2 that constants_c integrated
    resid = abs(_lemma_b_lhs(F, spec) - 0.5 * cons.c2)
    margin = float(np.min(np.abs(np.linalg.eigvalsh(
        np.array([[F.var(), cons.c2], [cons.c2, 1.0]])))))
    print(f"c1 = {cons.c1:.10f}")
    print(f"c2 = {cons.c2:.10f}")
    print(f"c3 = {cons.c3:.10f}")
    print(f"lemma-b residual      = {resid:.3e}")
    print(f"singularity margin    = {margin:.3e}"
          + ("   [IDENTIFICATION FAILS: error distribution is normal]"
             if margin < 1e-6 else ""))
    print(f"quadrature report     = {cons.quadrature_report}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# main may run many times in one process (tests, an embedding program); a
# parser is a web of reference cycles that only the cyclic garbage
# collector frees, so it is built once and reused, parsing mutates nothing
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="endofix",
        description="Endogeneity correction without external instruments: "
                    "rank-based control function, bootstrap inference, "
                    "comparators, and a Monte Carlo harness.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="estimate a model from a CSV file")
    f.add_argument("--data", required=True, help="CSV path with header row")
    f.add_argument("--outcome", required=True)
    f.add_argument("--exog", nargs="*", default=[],
                   help="exogenous columns; square:NAME adds NAME^2")
    f.add_argument("--endog", nargs="+", required=True)
    f.add_argument("--estimator", choices=sorted(_CLI_TO_TAG), default="npcf")
    f.add_argument("--bootstrap", type=int, default=199, metavar="B")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--level", type=float, default=0.05)
    f.add_argument("--out", default=None, help="write the JSON report here")
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("simulate", help="run a Monte Carlo grid")
    s.add_argument("--dgp", type=int, choices=(1, 2), required=True)
    s.add_argument("--n", type=int, default=250)
    s.add_argument("--reps", type=int, default=500)
    s.add_argument("--rho", type=float, default=0.0)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--edist", choices=("g11", "g32"), default="g11")
    s.add_argument("--B", type=int, default=99)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--estimators", nargs="+", default=["ols", "npcf", "2scope"],
                   choices=sorted(_CLI_TO_TAG))
    s.add_argument("--dump", action="store_true",
                   help="include raw per-repetition estimates in the report")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("constants", help="asymptotic-variance constants")
    c.add_argument("--dist", required=True,
                   help="normal | gamma:SHAPE,RATE (centered)")
    c.add_argument("--tol", type=float, default=1e-9)
    c.set_defaults(func=cmd_constants)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow reaches the report as a non-finite number, which
        # _check_report turns into exit 3, so numpy need not warn of it
        with np.errstate(all="ignore"):
            return args.func(args)
    except (DataError, DomainError) as exc:
        print(f"endofix: configuration error: {exc}", file=sys.stderr)
        return 2
    except EndofixError as exc:
        print(f"endofix: numeric failure: {exc}", file=sys.stderr)
        return 3


# exit code of the ``endofix`` command when the reader of its stdout has
# gone (``endofix ... | head``): what a shell reports for a process that
# SIGPIPE ended, 128 + 13
EXIT_BROKEN_PIPE = 141


def console_main(argv=None) -> int:
    """Entry point of the ``endofix`` command: :func:`main`, ending in
    EXIT_BROKEN_PIPE rather than a traceback when stdout is closed early.
    This is done here, where the process exits, because the handling
    points the process's stdout at the null device: callers of
    :func:`main` in a process that goes on keep their stdout."""
    try:
        code = main(argv)
        # flush now, so a closed pipe raises here and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit; see the note
        # on SIGPIPE in the documentation of the signal module
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(console_main())
