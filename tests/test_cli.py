import contextlib
import csv
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from endofix import cli
from endofix.asymptotics import constants_c
from endofix.cli import ingest_csv, main
from endofix.data import Dataset
from endofix.errors import DataError
from endofix.estimators import ESTIMATORS, ModelSpec, fit_two_scope
from endofix.numerics import DistSpec, RngStream
from endofix.simulation import DgpConfig, gen_dgp1


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_dgp1_csv(path, n=250, rho=0.5, seed=70):
    cfg = DgpConfig("dgp1", n=n, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=rho)
    d = gen_dgp1(cfg, RngStream(seed))
    _write_csv(path, ["y", "x", "z"],
               zip(d.column("y"), d.column("x"), d.column("z")))
    return d


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not
    allow."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class TestIngestCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        _write_csv(p, ["y", "x", "z"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        data, spec, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert data.n == 3
        assert dropped == 0
        assert spec.exogenous == ("x",)

    def test_blank_cell_dropped_and_counted(self, tmp_path):
        p = tmp_path / "blank.csv"
        _write_csv(p, ["y", "x", "z"],
                   [[1, 2, 3], [4, "", 6], [7, 8, 9], [1, 1, 1]])
        data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert data.n == 3
        assert dropped == 1

    def test_wage_style_schema_dimensions(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 60
        header = ["wage", "educ", "exper", "married", "parttime", "union",
                  "smsa", "nonwhite"]
        rows = rng.random((n, len(header)))
        p = tmp_path / "wage.csv"
        _write_csv(p, header, rows)
        exog = ["exper", "square:exper", "married", "parttime", "union",
                "smsa", "nonwhite"]
        data, spec, _ = ingest_csv(str(p), "wage", exog, ["educ"])
        assert spec.k == 8                     # intercept + 6 + squared term
        assert spec.m == 1
        assert "exper^2" in data.columns
        assert data.column("exper^2") == pytest.approx(data.column("exper") ** 2)

    def test_non_finite_cells_dropped_and_counted(self, tmp_path):
        p = tmp_path / "nonfinite.csv"
        _write_csv(p, ["y", "x", "z"],
                   [[1, 2, 3], [4, "nan", 6], [7, 8, 9], ["inf", 1, 1],
                    [1, 1, "-inf"], [2, 3, 4], [5, 6, 7]])
        data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert data.n == 4
        assert dropped == 3
        assert np.all(np.isfinite(data.matrix(["y", "x", "z"])))

    def test_missing_column_raises(self, tmp_path):
        p = tmp_path / "short.csv"
        _write_csv(p, ["y", "x"], [[1, 2], [3, 4]])
        with pytest.raises(DataError):
            ingest_csv(str(p), "y", ["x"], ["z"])

    def test_mostly_unparseable_raises(self, tmp_path):
        p = tmp_path / "bad.csv"
        _write_csv(p, ["y", "x", "z"],
                   [[1, 2, 3], ["a", 2, 3], ["b", 2, 3], ["c", 2, 3]])
        with pytest.raises(DataError):
            ingest_csv(str(p), "y", ["x"], ["z"])

    def test_header_only_file_raises_without_warning(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("y,x,z\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no usable rows"):
                ingest_csv(str(p), "y", ["x"], ["z"])

    def test_quoted_comma_stays_in_its_cell(self, tmp_path):
        # split at the quoted comma, every row would still parse, with x
        # and z read one column to the left
        p = tmp_path / "quoted.csv"
        p.write_text('y,note,u,x,z\n1,"p,q",7,9,5\n2,"r",6,8,4\n'
                     '3,s,5,7,3\n')
        data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert dropped == 0
        assert data.column("x").tolist() == [9.0, 8.0, 7.0]
        assert data.column("z").tolist() == [5.0, 4.0, 3.0]

    def test_cells_the_c_parser_rejects_parse_row_by_row(self, tmp_path):
        p = tmp_path / "loose.csv"
        p.write_text("y,x,z\r\n1_000,2,3\r\n   \r\n,,\r\n4,5,6\r\n"
                     "7,8\r\n1,#2,3\r\n")
        data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert data.column("y").tolist() == [1000.0, 4.0]
        assert dropped == 2             # the short row and the '#2' cell

    def test_quoted_line_break_across_a_block_end(self, tmp_path):
        p = tmp_path / "multiline.csv"
        p.write_text('y,note,x,z\n1,"a\nb\nc",2,3\n4,"d",5,6\n'
                     '7,"e\n",8,9\n')
        with mock.patch.object(cli, "_BLOCK_LINES", 1):
            data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert dropped == 0
        assert data.matrix(["y", "x", "z"]).tolist() == [
            [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]

    def test_only_rejected_blocks_parse_row_by_row(self, tmp_path):
        # one empty cell near the start: its block and the next one go
        # row by row, the other 8 of 10 blocks through the C reader
        rows = [[i, i + 0.5, -i] for i in range(40)]
        rows[3][1] = ""
        p = tmp_path / "blank.csv"
        _write_csv(p, ["y", "x", "z"], rows)
        with mock.patch.object(cli, "_BLOCK_LINES", 4), \
                mock.patch.object(np, "loadtxt",
                                  wraps=np.loadtxt) as c_reader:
            data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert (data.n, dropped) == (39, 1)
        assert data.column("y").tolist() == [i for i in range(40) if i != 3]
        assert c_reader.call_count == 1 + 8

    def test_c_reader_retried_less_often_after_each_rejection(self,
                                                              tmp_path):
        # an empty cell in every block: the C reader is tried on blocks
        # 0, 2, 6, 14 and 30 of 50 and not on the rest
        rows = [[i, "" if i % 2 else i, i] for i in range(200)]
        p = tmp_path / "blanks.csv"
        _write_csv(p, ["y", "x", "z"], rows)
        with mock.patch.object(cli, "_BLOCK_LINES", 4), \
                mock.patch.object(np, "loadtxt",
                                  wraps=np.loadtxt) as c_reader:
            data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert (data.n, dropped) == (100, 100)
        assert c_reader.call_count == 5

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_non_utf8_byte_is_a_configuration_error(self, tmp_path, capsys,
                                                    where):
        # a latin-1 byte (0xe9) in the header, or in a row after the first
        # block of _BLOCK_LINES, so that it is decoded while the body is
        # parsed
        rows = [f"{i},{i % 7},{i % 5}\n"
                for i in range(cli._BLOCK_LINES + 500)]
        header = "y,x,z\n"
        if where == "header":
            header = "y,x,z,caf\u00e9\n"
        else:
            rows[cli._BLOCK_LINES + 100] = "1,2,caf\u00e9\n"
        p = tmp_path / "latin1.csv"
        p.write_bytes((header + "".join(rows)).encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv.*not UTF-8.*0xe9"):
            ingest_csv(str(p), "y", ["x"], ["z"])
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z", "--bootstrap", "9"])
        assert rc == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_overflowing_square_drops_the_row(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((61, 3))
        rows[30, 1] = 1e200
        p = tmp_path / "big.csv"
        _write_csv(p, ["y", "x", "z"], rows)
        data, _, dropped = ingest_csv(str(p), "y", ["x", "square:x"], ["z"])
        assert (data.n, dropped) == (60, 1)
        assert np.array_equal(data.column("x^2"),
                              np.delete(rows[:, 1], 30) ** 2)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--data", str(p), "--outcome", "y",
                       "--exog", "x", "square:x", "--endog", "z",
                       "--bootstrap", "9", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["dropped_rows"] == 1

    def test_overflowing_squares_count_toward_the_half_rule(self, tmp_path):
        p = tmp_path / "big.csv"
        _write_csv(p, ["y", "x", "z"],
                   [[1, 1e200, 3], [4, -1e300, 6], [7, 8, 9]])
        data, _, dropped = ingest_csv(str(p), "y", ["x"], ["z"])
        assert (data.n, dropped) == (3, 0)
        with pytest.raises(DataError, match="2 of 3 rows"):
            ingest_csv(str(p), "y", ["x", "square:x"], ["z"])


def _row_loop_ingest(path, outcome, exogenous, endogenous):
    """ingest_csv as it was before the C parser: csv.reader and float()
    on every used cell, for plain (no ``square:``) columns."""
    needed = [outcome, *exogenous, *endogenous]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        idx = [header.index(c) for c in needed]
        flat, dropped, total = [], 0, 0
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            total += 1
            try:
                flat.append([float(raw[i]) for i in idx])
            except (ValueError, IndexError):
                dropped += 1
    arr = np.array(flat, dtype=np.float64).reshape(-1, len(needed))
    finite = np.isfinite(arr).all(axis=1)
    arr = arr[finite]
    dropped += int(finite.size - arr.shape[0])
    if not arr.size:
        raise DataError(f"no usable rows in {path!r}")
    if total and dropped > 0.5 * total:
        raise DataError(f"{dropped} of {total} rows unparseable or "
                        f"non-finite in {path!r}")
    cols = {name: arr[:, j] for j, name in enumerate(needed)}
    spec = ModelSpec(outcome=outcome, exogenous=tuple(exogenous),
                     endogenous=tuple(endogenous))
    return Dataset(cols, provenance=path), spec, dropped


# cells both parsers read as numbers
_NUMBER_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(("nan", "inf", "-inf", "1e500", "-1e500", "+1", ".5",
                     "-.5e-3", "1.", " 2 ", "\t3", "Infinity")))
_QUOTED_NUMBER_CELLS = st.one_of(
    st.floats(-1e3, 1e3).map(lambda v: f'"{v!r}"'),
    st.sampled_from(('" 4 "', '"5\n"')))
# quoted text holding the delimiter or a line break: split there, a row
# of numbers would still parse, with later columns read one to the left
_QUOTED_TEXT_CELLS = st.sampled_from(('"p,q"', '"1,5"', '"a\nb,c"'))
# cells only the row loop reads as numbers, or that neither does
_OTHER_CELLS = st.sampled_from(("1_000", "", " ", "abc", "#4", "1#", '""',
                                '"9"x', '"a""b"', "0x10"))


@st.composite
def _csv_text(draw):
    """A CSV file whose body the C parser accepts or rejects: quoted
    numbers in used and unused columns, quoted commas and line breaks,
    blank, whitespace-only and ``,,`` lines, short and long rows, LF or
    CRLF."""
    names = draw(st.permutations(
        ["y", "x", "z", *(f"u{i}" for i in range(draw(st.integers(0, 2))))]))
    loose = draw(st.booleans())
    used = _NUMBER_CELLS
    if draw(st.booleans()):
        used |= _QUOTED_NUMBER_CELLS
    if loose:
        used |= _OTHER_CELLS | _QUOTED_TEXT_CELLS
    unused = used | _QUOTED_TEXT_CELLS
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ("row",) * 6 + ("blank", "spaces", "commas", "short", "long")
            if loose else ("row",) * 6 + ("blank", "long")))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from((" ", "  \t", "\t"))))
        elif kind == "commas":
            lines.append("," * draw(st.integers(1, len(names))))
        else:
            cells = [draw(used if nm in "yxz" else unused) for nm in names]
            if kind == "short":
                cells = cells[:draw(st.integers(1, len(names) - 1))]
            elif kind == "long":
                cells += draw(st.lists(unused, min_size=1, max_size=2))
            lines.append(",".join(cells))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _fit_exit_code(path):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["fit", "--data", str(path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--estimator", "ols"])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_text(), block=st.sampled_from((1, 2, 3, cli._BLOCK_LINES)))
def test_fast_parse_matches_row_loop(text, block):
    # the C parser (or its fallback) and the old row loop give the same
    # columns, the same dropped_rows and the same exit code; small blocks
    # put block ends inside quoted line breaks and between rejected rows
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_BLOCK_LINES", block):
        p = Path(tmp) / "d.csv"
        with open(p, "w", newline="") as fh:
            fh.write(text)
        results = []
        for ingest in (ingest_csv, _row_loop_ingest):
            try:
                data, _, dropped = ingest(str(p), "y", ["x"], ["z"])
                got = (data.matrix(["y", "x", "z"]), dropped)
            except DataError as exc:
                got = (None, str(exc))
            with mock.patch.object(cli, "ingest_csv", ingest):
                results.append((got, _fit_exit_code(p)))
    (fast, fast_rc), (loop, loop_rc) = results
    assert fast_rc == loop_rc
    assert fast[1] == loop[1]
    if loop[0] is None:
        assert fast[0] is None
    else:
        assert np.array_equal(fast[0], loop[0])


class TestFitCommand:
    def test_report_has_comparison_structure(self, tmp_path):
        # the report must carry, for both the uncorrected and the corrected
        # fit: estimates, standard errors, t statistics, and R^2 — plus the
        # correction coefficient row for the corrected fit
        csv_path = tmp_path / "d.csv"
        out_path = tmp_path / "report.json"
        _write_dgp1_csv(csv_path)
        rc = main(["fit", "--data", str(csv_path), "--outcome", "y",
                   "--exog", "x", "--endog", "z", "--estimator", "npcf",
                   "--bootstrap", "49", "--seed", "3",
                   "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert set(report["estimates"]) == {"ols", "npcf"}
        for tag in ("ols", "npcf"):
            block = report["estimates"][tag]
            for field in ("coefficients", "se", "t_stats", "r_squared"):
                assert block[field] is not None
        assert "rho[z]" in report["estimates"]["npcf"]["coefficients"]
        assert "rho[z]" not in report["estimates"]["ols"]["coefficients"]
        assert report["estimates"]["npcf"]["se_source"] == "bootstrap"
        assert report["estimates"]["npcf"]["bootstrap"]["failures"] == {}
        assert report["estimates"]["npcf"]["bootstrap"]["scalar_refits"] == 0
        assert "exogeneity" in report["tests"]
        assert report["diagnostics"]["identification"][0]["column"] == "z"

    def test_iv_matches_npcf_gamma(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path)
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["fit", "--data", str(csv_path), "--outcome", "y", "--exog", "x",
              "--endog", "z", "--estimator", "npcf", "--bootstrap", "9",
              "--seed", "3", "--out", str(o1)])
        main(["fit", "--data", str(csv_path), "--outcome", "y", "--exog", "x",
              "--endog", "z", "--estimator", "iv", "--bootstrap", "9",
              "--seed", "3", "--out", str(o2)])
        g1 = json.loads(o1.read_text())["estimates"]["npcf"]["coefficients"]["z"]
        g2 = json.loads(o2.read_text())["estimates"]["iv"]["coefficients"]["z"]
        assert g1 == pytest.approx(g2, abs=1e-10)

    def test_exogenous_data_large_p_value(self, tmp_path):
        csv_path = tmp_path / "exo.csv"
        out_path = tmp_path / "exo.json"
        _write_dgp1_csv(csv_path, rho=0.0, seed=71)
        main(["fit", "--data", str(csv_path), "--outcome", "y", "--exog", "x",
              "--endog", "z", "--estimator", "npcf", "--bootstrap", "29",
              "--seed", "5", "--out", str(out_path)])
        report = json.loads(out_path.read_text())
        assert report["tests"]["exogeneity"]["p_value"] > 0.05

    def test_seeded_reports_identical_up_to_timing(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["fit", "--data", str(csv_path), "--outcome", "y",
                  "--exog", "x", "--endog", "z", "--estimator", "npcf",
                  "--bootstrap", "39", "--seed", "11", "--out", str(out)])
            rep = json.loads(out.read_text())
            rep.pop("timing_seconds")
            outs.append(rep)
        assert outs[0] == outs[1]

    def test_report_round_trips(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        out_path = tmp_path / "r.json"
        _write_dgp1_csv(csv_path)
        main(["fit", "--data", str(csv_path), "--outcome", "y", "--exog", "x",
              "--endog", "z", "--estimator", "npcf", "--bootstrap", "9",
              "--seed", "1", "--out", str(out_path)])
        rep = json.loads(out_path.read_text())
        assert json.loads(json.dumps(rep)) == rep

    def test_missing_file_exit_code(self, capsys):
        rc = main(["fit", "--data", "/nonexistent.csv", "--outcome", "y",
                   "--endog", "z"])
        assert rc == 2

    def test_missing_column_exit_code(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, ["y", "x"], [[1, 2], [2, 3], [3, 4]])
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z"])
        assert rc == 2

    def test_numeric_failure_exit_code(self, tmp_path):
        # a constant endogenous column cannot be ranked: numeric failure
        p = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        rows = [[float(v), float(w), 1.0]
                for v, w in rng.random((30, 2))]
        _write_csv(p, ["y", "x", "z"], rows)
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z", "--estimator", "npcf"])
        assert rc == 3


@pytest.mark.parametrize("estimator", ["ols", "npcf", "iv", "2scope", "gp"])
def test_units_change_only_the_coefficients_units(tmp_path, estimator):
    # rescaling any column by 10^+-12 keeps the exit code, and moves each
    # coefficient by its units alone: the outcome's scale multiplies every
    # coefficient but gp's rho, a correlation; a regressor's divides its
    # own.  The count-based bootstrap refits no resample for the units
    cfg = DgpConfig("dgp1", n=200, e_dist=DistSpec.gamma(1, 1), delta=1.0,
                    rho=0.5)
    d = gen_dgp1(cfg, RngStream(70))

    def fit(cols, name):
        p, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        _write_csv(p, ["y", "x", "z"], zip(*(cols[c] for c in "yxz")))
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z", "--estimator", estimator, "--bootstrap",
                   "9", "--seed", "2", "--out", str(out)])
        return rc, json.loads(out.read_text())["estimates"][estimator]

    base = {c: d.column(c) for c in "yxz"}
    rc0, want = fit(base, "base")
    assert rc0 == 0
    for col in "yxz":
        for s in (1e12, 1e-12):
            rc, got = fit({**base, col: s * base[col]}, f"{col}{s:g}")
            assert rc == rc0
            for name, v in want["coefficients"].items():
                units = s if col == "y" else 1.0
                if name == col or estimator == "gp" and name == "rho[z]":
                    units = 1.0 / s if name == col else 1.0
                assert got["coefficients"][name] == pytest.approx(
                    v * units, rel=1e-12)
            refits = got.get("bootstrap", {}).get("scalar_refits")
            assert refits == want.get("bootstrap", {}).get("scalar_refits")


def test_two_scope_drops_exogenous_columns_that_score_alike(tmp_path,
                                                           capsys):
    # x >= 0, so x and x^2 order the rows alike and have equal normal
    # scores: 2scope keeps one of them in its scored block, whose span,
    # and so the correction, is that of the design without x^2
    rng = np.random.default_rng(1)
    x = rng.gamma(2.0, 1.0, 200)
    z = 0.5 * x + rng.gamma(1.0, 1.0, 200)
    y = 1.0 + x - 0.05 * x ** 2 + z + rng.standard_normal(200)
    p = tmp_path / "d.csv"
    _write_csv(p, ["y", "x", "z"], zip(y, x, z))
    out = tmp_path / "d.json"
    assert main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                 "square:x", "--endog", "z", "--estimator", "2scope",
                 "--bootstrap", "9", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text())["estimates"]["2scope"]
    assert rep["bootstrap"]["scalar_refits"] == 0
    d = Dataset({"y": y, "x": x, "x2": x ** 2, "z": z})
    with_sq = fit_two_scope(d, ModelSpec("y", ("x", "x2"), ("z",)))
    without = fit_two_scope(d, ModelSpec("y", ("x",), ("z",)))
    assert np.array_equal(with_sq.extra["correction"],
                          without.extra["correction"])


@pytest.mark.parametrize("estimator", ["ols", "npcf", "iv", "2scope", "gp"])
def test_every_estimator_fits_the_wage_design(cps_like, tmp_path, capsys,
                                              estimator):
    # the paper's wage equation: schooling endogenous, experience and its
    # square, a dummy
    d = cps_like(5)
    spec = ModelSpec("wage", ("exper", "exper^2", "female"), ("educ",))
    cols = {c: d.column(c) for c in ("wage", "educ", "exper", "female")}
    tag = cli._CLI_TO_TAG[estimator]
    scalar = ESTIMATORS[tag](Dataset({**cols, "exper^2": cols["exper"] ** 2}),
                             spec)
    assert np.all(np.isfinite(scalar.theta))
    p = tmp_path / "cps.csv"
    _write_csv(p, list(cols), zip(*cols.values()))
    out = tmp_path / "cps.json"
    assert main(["fit", "--data", str(p), "--outcome", "wage", "--exog",
                 "exper", "square:exper", "female", "--endog", "educ",
                 "--estimator", estimator, "--bootstrap", "49", "--seed",
                 "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text())["estimates"][estimator]
    assert rep["coefficients"] == pytest.approx(
        dict(zip(scalar.names, scalar.theta)), rel=1e-12, abs=1e-12)
    if estimator != "ols":
        assert rep["bootstrap"]["scalar_refits"] == 0
        assert rep["bootstrap"]["n_failed"] == 0


def test_two_scope_rejects_a_correction_of_rounding_noise(tmp_path, capsys):
    # z = 3 + 1.7e-4 noise + 0.5 x orders almost every row as x does: on
    # 11 of 20 resamples the scores of z equal those of x, and the
    # scores-on-scores correction is rounding noise.  The bootstrap took
    # those resamples, with se(rho[z]) = 9.0e14; they fail as the scalar
    # fit's IdentificationError, over the failure budget
    SEED = 1142821700
    rng = np.random.default_rng(SEED)
    n = int(rng.integers(30, 120))
    rng.choice(["a", "b", "c", "d", "e"])
    x, e = rng.gamma(1.0, 1.0, n), rng.gamma(1.0, 1.0, n)
    eps = 10 ** rng.uniform(-12, -3)
    z = 3.0 + eps * (x + e - np.mean(x + e)) + 0.5 * x
    y = 1.0 - x + z + 0.5 * (e - 1.0) + rng.standard_normal(n)
    p = tmp_path / "d.csv"
    _write_csv(p, ["y", "x", "z"], zip(y, x, z))
    rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
               "--endog", "z", "--estimator", "2scope", "--bootstrap", "20",
               "--seed", str(SEED)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "11 of 20 bootstrap resamples failed (by type: " \
           "{'IdentificationError': 11})" in err


class TestFiniteReports:
    """A report holds only finite numbers and parses as strict JSON, or the
    run exits 3 naming the first non-finite statistic."""

    @pytest.mark.parametrize("estimator", ["ols", "npcf", "iv", "2scope",
                                           "gp"])
    def test_fit_reports_parse_strictly(self, tmp_path, estimator):
        csv_path, out = tmp_path / "d.csv", tmp_path / "r.json"
        _write_dgp1_csv(csv_path, n=120)
        assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--estimator", estimator,
                     "--bootstrap", "19", "--out", str(out)]) == 0
        rep = _strict_json(out.read_text())
        assert rep["estimates"]["ols"]["r_squared"] < 1.0

    def test_simulate_report_parses_strictly(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["simulate", "--dgp", "2", "--n", "100", "--reps", "3",
                     "--alpha", "0.5", "--rho", "0.5", "--B", "9",
                     "--estimators", "ols", "npcf", "iv", "2scope", "gp",
                     "--dump", "--out", str(out)]) == 0
        assert _strict_json(out.read_text())["summary"]["reps"] == 3

    @staticmethod
    def _overflowing_csv(path):
        """30 rows with one finite y of 1e300 among them."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        z = x + rng.gamma(1.0, 1.0, 30)
        y = 1.0 + x + z + rng.standard_normal(30)
        y[3] = 1e300
        _write_csv(path, ["y", "x", "z"], zip(y, x, z))

    @pytest.mark.parametrize("estimator", ["ols", "npcf", "iv", "2scope",
                                           "gp"])
    def test_overflowing_statistic_exits_3(self, tmp_path, capsys,
                                           estimator):
        # one finite y of 1e300 among 30 rows: its squared residual
        # overflows, so ols's standard errors and R^2 would be inf and nan,
        # and every estimator's run ends at the OLS block it fits first.
        # stderr holds the one-line message and no numpy warning: main
        # raises none, or it would end the run here
        csv_path, out = tmp_path / "d.csv", tmp_path / "r.json"
        self._overflowing_csv(csv_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--data", str(csv_path), "--outcome", "y",
                       "--exog", "x", "--endog", "z", "--estimator",
                       estimator, "--bootstrap", "19", "--out", str(out)])
        assert rc == 3
        cap = capsys.readouterr()
        assert cap.err == (
            "endofix: numeric failure: statistic estimates.ols.se.const is "
            "not finite: a computation overflowed double precision\n")
        assert cap.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["npcf", "iv", "2scope", "gp"])
    def test_non_finite_ols_block_skips_the_bootstrap(self, tmp_path, capsys,
                                                      monkeypatch, estimator):
        # the run ends at the OLS block, so no resample is ever fitted
        def never(*args, **kwargs):
            raise AssertionError("pairs_bootstrap was entered")

        monkeypatch.setattr(cli, "pairs_bootstrap", never)
        csv_path = tmp_path / "d.csv"
        self._overflowing_csv(csv_path)
        assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--estimator", estimator,
                     "--bootstrap", "999"]) == 3
        assert "estimates.ols.se.const" in capsys.readouterr().err

    def test_configuration_error_comes_before_the_ols_check(self, tmp_path,
                                                            capsys):
        csv_path = tmp_path / "d.csv"
        self._overflowing_csv(csv_path)
        assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--bootstrap", "9",
                     "--level", "1.5"]) == 2
        assert capsys.readouterr().err == (
            "endofix: configuration error: level must lie in (0, 1), "
            "got 1.5\n")

    def test_non_finite_path_names_the_first(self):
        report = {"a": 1.0, "b": {"c": [0.5, float("nan")],
                                  "d": float("inf")}}
        assert cli._non_finite(report) == "b.c.1"
        assert cli._non_finite({"a": [1.0, None, "x", 2]}) is None


def test_closed_stdout_exits_141_without_traceback():
    # the reader of the pipe is gone before endofix writes (as with
    # ``endofix constants ... | head -c 5``)
    import endofix
    env = dict(os.environ,
               PYTHONPATH=str(Path(endofix.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "endofix.cli", "constants", "--dist",
         "gamma:3,2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_commands_never_import_scipy_integrate_optimize_or_sparse(tmp_path):
    # scipy.integrate pulls in scipy.optimize and scipy.sparse, about
    # 0.2 s of cold start and 18 MB that no command needs
    import endofix
    csv_path = tmp_path / "d.csv"
    _write_dgp1_csv(csv_path, n=60)
    script = f"""
import contextlib, io, sys
import endofix.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    fit = cli.main(["fit", "--data", {str(csv_path)!r}, "--outcome", "y",
                    "--exog", "x", "--endog", "z", "--bootstrap", "9"])
    sim = cli.main(["simulate", "--dgp", "2", "--n", "60", "--reps", "2",
                    "--B", "9", "--estimators", "ols", "npcf", "iv",
                    "2scope", "gp"])
    const = cli.main(["constants", "--dist", "gamma:3,2"])
print(fit, sim, const, [m for m in ("scipy.integrate", "scipy.optimize",
                                    "scipy.sparse") if m in sys.modules])
"""
    env = dict(os.environ,
               PYTHONPATH=str(Path(endofix.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0 0 0 []\n", proc.stderr


class TestMallocThresholds:
    """``main`` pins glibc's mmap and trim thresholds once per process."""

    def test_thresholds_follow_the_chunk_budget(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1
        try:
            monkeypatch.setattr(ctypes, "CDLL",
                                lambda name: SimpleNamespace(mallopt=mallopt))
            cli._pin_malloc_thresholds.cache_clear()
            cli._pin_malloc_thresholds()
            cli._pin_malloc_thresholds()
        finally:
            cli._pin_malloc_thresholds.cache_clear()
        # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD at glibc's 2:1, once
        assert calls == [(-3, 4 * 1024 * 1024), (-1, 8 * 1024 * 1024)]

    def test_no_mallopt_same_report(self, tmp_path, monkeypatch):
        # macOS and musl: the C library has no mallopt, and main runs as
        # before
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path, n=60)

        def fit(name):
            out = tmp_path / name
            assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                         "--exog", "x", "--endog", "z", "--bootstrap", "49",
                         "--seed", "4", "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            rep.pop("timing_seconds")
            return rep

        pinned = fit("pinned.json")
        looked_up = []

        def no_mallopt(name):
            looked_up.append(name)
            return object()
        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        cli._pin_malloc_thresholds.cache_clear()
        try:
            assert fit("no_mallopt.json") == pinned
        finally:
            cli._pin_malloc_thresholds.cache_clear()
        assert looked_up == [None]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's")
    def test_second_bootstrap_takes_no_fresh_pages(self, tmp_path):
        # without the pinned thresholds each count chunk of a B = 999
        # bootstrap at n = 250 takes its arrays from the kernel afresh:
        # about 2 700 minor page faults per op, and 0 with them
        import endofix
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path)
        script = f"""
import contextlib, io, resource
import endofix.cli as cli
argv = ["fit", "--data", {str(csv_path)!r}, "--outcome", "y", "--exog",
        "x", "--endog", "z", "--bootstrap", "999"]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(faults[1])
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(endofix.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 500


class TestConfigurationErrors:
    """Inputs that must end in exit 2 with a one-line message."""

    @staticmethod
    def _assert_config_error(rc, capsys):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("endofix: configuration error: ")
        assert err.count("\n") == 1

    def test_mostly_non_finite_csv(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        _write_csv(p, ["y", "x", "z"],
                   [[1, 2, 3], ["nan", 1, 2], [1, "inf", 2], [1, 2, "nan"]])
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z"])
        self._assert_config_error(rc, capsys)

    def test_more_columns_than_rows(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        _write_csv(p, ["y", "x", "z"], [[1, 2, 3], [4, 5, 7], [7, 9, 9]])
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z"])
        self._assert_config_error(rc, capsys)

    @pytest.mark.parametrize("level", ["1.5", "0", "-0.1"])
    def test_level_outside_unit_interval(self, tmp_path, capsys, level):
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path)
        rc = main(["fit", "--data", str(csv_path), "--outcome", "y",
                   "--exog", "x", "--endog", "z", "--bootstrap", "9",
                   "--level", level])
        self._assert_config_error(rc, capsys)

    def test_single_bootstrap_resample(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path)
        rc = main(["fit", "--data", str(csv_path), "--outcome", "y",
                   "--exog", "x", "--endog", "z", "--bootstrap", "1"])
        self._assert_config_error(rc, capsys)
        # plain OLS takes no bootstrap, so B is not checked
        assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--estimator", "ols",
                     "--bootstrap", "1"]) == 0

    @pytest.mark.parametrize("B", ["1", "-1"])
    def test_simulate_single_or_negative_bootstrap(self, capsys, B):
        rc = main(["simulate", "--dgp", "1", "--n", "50", "--reps", "2",
                   "--B", B, "--estimators", "ols", "npcf"])
        self._assert_config_error(rc, capsys)

    @pytest.mark.parametrize("dgp", ["1", "2"])
    @pytest.mark.parametrize("flag,value", [("--rho", "nan"),
                                            ("--delta", "inf"),
                                            ("--alpha", "-inf"),
                                            ("--alpha", "nan")])
    def test_simulate_non_finite_parameter(self, capsys, dgp, flag, value):
        rc = main(["simulate", "--dgp", dgp, "--n", "50", "--reps", "2",
                   "--B", "0", f"{flag}={value}"])
        self._assert_config_error(rc, capsys)

    @staticmethod
    def _out_of_memory(*args, **kwargs):
        raise MemoryError

    _NO_MEMORY = ("endofix: configuration error: not enough memory for this "
                  "run; lower --n, --reps or --B of simulate, or --bootstrap "
                  "of fit\n")

    def test_fit_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # as with ``fit ... --bootstrap 10000000000``
        monkeypatch.setattr(cli, "pairs_bootstrap", self._out_of_memory)
        csv_path = tmp_path / "d.csv"
        _write_dgp1_csv(csv_path, n=60)
        assert main(["fit", "--data", str(csv_path), "--outcome", "y",
                     "--exog", "x", "--endog", "z", "--bootstrap", "9"]) == 2
        assert capsys.readouterr().err == self._NO_MEMORY

    def test_simulate_out_of_memory(self, capsys, monkeypatch):
        # as with ``simulate --dgp 1 --n 1000000000 --reps 2 --B 0``
        monkeypatch.setattr(cli, "mc_run", self._out_of_memory)
        assert main(["simulate", "--dgp", "1", "--n", "50", "--reps", "2",
                     "--B", "0", "--estimators", "ols"]) == 2
        assert capsys.readouterr().err == self._NO_MEMORY


class TestCopulaFit:
    """``fit --estimator gp`` on tiny inputs whose copula fit is rank
    deficient or exact: exit 3 with a one-line message."""

    @staticmethod
    def _run_gp(path, capsys):
        rc = main(["fit", "--data", str(path), "--outcome", "y",
                   "--exog", "x", "--endog", "z", "--estimator", "gp",
                   "--bootstrap", "9"])
        err = capsys.readouterr().err
        assert err.startswith("endofix: numeric failure: ")
        assert err.count("\n") == 1
        return rc

    def test_binary_five_row_csv(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        _write_csv(p, ["y", "x", "z"], [[0, 0, 1], [0, 1, 1], [1, 1, 1],
                                        [1, 0, 0], [1, 0, 1]])
        assert self._run_gp(p, capsys) == 3

    def test_constant_z_resamples(self, tmp_path, capsys):
        # z holds two ones among 300 zeros, so some resamples have a
        # constant z: a numeric failure of the bootstrap, not exit 2
        rng = np.random.default_rng(3)
        z = np.zeros(300)
        z[[10, 200]] = 1.0
        x = rng.standard_normal(300)
        p = tmp_path / "d.csv"
        _write_csv(p, ["y", "x", "z"],
                   zip(1.0 + x + z + rng.standard_normal(300), x, z))
        assert self._run_gp(p, capsys) == 3

    def test_eight_normal_rows(self, tmp_path, capsys):
        # some resamples of eight rows hold at most four distinct ones, which
        # (const, x, z, scores of z) fit exactly: ConstantInputError drops
        # them, and too many dropped resamples fail the bootstrap
        p = tmp_path / "d.csv"
        rows = [
            [1.0531157544867582, 1.776491303816993, -2.5532918384570134],
            [-0.13796506137840808, 1.0137194090532766, 1.3521418253819912],
            [0.6537883844162056, 1.4971178525878377, 0.289957591366348],
            [0.5512671317684119, 0.17873768757050404, -1.073858701475369],
            [-0.8466289662382713, 0.37958424600772894, -0.5801952016057006],
            [1.2715513764583872, 1.2923865934033114, 1.7987863384903786],
            [-0.02607383754457069, 1.3837097563119558, -0.9058431408224087],
            [-0.8163147296909071, 0.08130305629403443, 0.2814308365081419],
        ]
        _write_csv(p, ["y", "x", "z"], rows)
        assert self._run_gp(p, capsys) == 3


@st.composite
def _fuzz_cells(draw):
    """A small CSV body: normal, tied, constant or duplicated columns, with
    a few ``nan``/``inf`` cells."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for _ in range(3):
        kind = draw(st.sampled_from(("normal", "ties", "constant",
                                     "duplicate")))
        if kind == "ties":
            cols.append(rng.integers(0, 3, n).astype(np.float64))
        elif kind == "constant":
            cols.append(np.full(n, 1.0))
        elif kind == "duplicate" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
        else:
            cols.append(rng.standard_normal(n))
    cells = [[repr(float(v)) for v in row] for row in zip(*cols)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        cells[i][j] = draw(st.sampled_from(("nan", "inf", "-inf")))
    return cells


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cells=_fuzz_cells())
def test_fuzzed_csv_exits_0_2_or_3(cells):
    # every estimator ends in a documented exit code with a one-line
    # message, never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        _write_csv(p, ["y", "x", "z"], cells)
        for est in ("ols", "npcf", "iv", "2scope", "gp"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["fit", "--data", str(p), "--outcome", "y",
                           "--exog", "x", "--endog", "z", "--estimator", est,
                           "--bootstrap", "9"])
            assert rc in (0, 2, 3)
            if rc:
                assert err.getvalue().startswith("endofix: ")
                assert err.getvalue().count("\n") == 1


# the largest finite double
_MAX_FINITE = float(np.finfo(np.float64).max)


@st.composite
def _huge_cells(draw):
    """A small CSV body of finite values whose magnitudes reach 1e308:
    each column is uniform on (-1, 1) times a power of ten up to 1e308
    (a regressor's half the time up to 100 only, so that some designs
    are well conditioned), and a few cells, most of them outcomes, hold a
    magnitude drawn from 1e300 to the largest finite double."""
    n = draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponents = [draw(st.integers(0, 308))] + [
        draw(st.integers(0, 2) | st.integers(0, 308)) for _ in range(2)]
    cols = [rng.uniform(-1.0, 1.0, n) * 10.0 ** e for e in exponents]
    cells = [[repr(float(v)) for v in row] for row in zip(*cols)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.just(0) | st.integers(0, 2))
        big = draw(st.sampled_from((1e300, 1e307, 1e308, _MAX_FINITE))
                   | st.floats(1e300, _MAX_FINITE))
        cells[i][j] = repr(big if draw(st.booleans()) else -big)
    return cells


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cells=_huge_cells())
def test_huge_finite_csv_gives_strict_json_or_exits_2_or_3(cells):
    # finite inputs up to the largest double: a report that is written
    # holds only finite numbers, and every other run ends in a documented
    # exit code with a one-line message, never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        p, report = Path(tmp) / "d.csv", Path(tmp) / "r.json"
        _write_csv(p, ["y", "x", "z"], cells)
        for est in ("ols", "npcf", "iv", "2scope", "gp"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["fit", "--data", str(p), "--outcome", "y",
                           "--exog", "x", "--endog", "z", "--estimator", est,
                           "--bootstrap", "9", "--out", str(report)])
            if rc == 0:
                _strict_json(report.read_text())
                report.unlink()
            else:
                assert rc in (2, 3)
                assert err.getvalue().startswith("endofix: ")
                assert err.getvalue().count("\n") == 1
                assert not report.exists()


def _loaded_after_cli_import(module: str) -> bool:
    import endofix
    code = f"import sys, endofix.cli; print({module!r} in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(endofix.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about half a second and 20 MB to every command's
    # start-up; nothing on the CLI's import path needs it
    assert not _loaded_after_cli_import("scipy.stats")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the copula comparator is fitted in closed form; scipy.optimize would
    # only add start-up time and memory to every command
    assert not _loaded_after_cli_import("scipy.optimize")


class TestSimulateCommand:
    def test_two_rep_smoke_is_fast(self, tmp_path, capsys):
        t0 = time.time()
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--dgp", "1", "--n", "120", "--reps", "2",
                   "--rho", "0.5", "--delta", "0", "--edist", "g11",
                   "--B", "9", "--seed", "2", "--estimators", "ols", "npcf",
                   "--out", str(out)])
        assert rc == 0
        assert time.time() - t0 < 5.0
        text = capsys.readouterr().out
        assert "bias" in text and "rmse" in text
        payload = json.loads(out.read_text())
        assert payload["summary"]["reps"] == 2
        assert payload["summary"]["scalar_refits"] == {"ols": 0, "npcf": 0}

    def test_seeded_reproducibility(self, tmp_path):
        reports = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            main(["simulate", "--dgp", "2", "--n", "100", "--reps", "3",
                  "--rho", "0.5", "--alpha", "0.5", "--edist", "g32",
                  "--B", "0", "--seed", "9", "--estimators", "npcf",
                  "--out", str(out)])
            rep = json.loads(out.read_text())
            rep.pop("timing_seconds")
            reports.append(rep)
        assert reports[0] == reports[1]


class TestConstantsCommand:
    def test_normal_constants(self, capsys):
        rc = main(["constants", "--dist", "normal"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = {ln.split("=")[0].strip(): ln.split("=", 1)[1].strip()
                 for ln in out.splitlines() if "=" in ln}
        assert float(lines["c1"]) == pytest.approx(1.0, abs=1e-7)
        assert float(lines["c2"]) == pytest.approx(1.0, abs=1e-7)
        assert float(lines["lemma-b residual"]) < 1e-6
        assert "IDENTIFICATION FAILS" in out

    def test_gamma_constants(self, capsys):
        rc = main(["constants", "--dist", "gamma:3,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IDENTIFICATION FAILS" not in out

    def test_bad_dist_exit_code(self, capsys):
        assert main(["constants", "--dist", "cauchy"]) == 2

    @pytest.mark.parametrize("dist,want", [
        # the benchmark's op
        ("gamma:3,2",
         "c1 = 1.4502413205\n"
         "c2 = 0.8352387208\n"
         "c3 = 0.3662307404\n"
         "lemma-b residual      = 6.106e-16\n"
         "singularity margin    = 3.046e-02\n"
         "quadrature report     = {'c1_err': 0.0, "
         "'c2_err': 1.1102230246251565e-16, 'c3_doubling_delta': "
         "1.27675647831893e-15, 'c3_panels': 1024, 't_truncation': "
         "8.5}\n"),
        ("normal",
         "c1 = 1.0000000000\n"
         "c2 = 1.0000000000\n"
         "c3 = 0.5000000000\n"
         "lemma-b residual      = 3.331e-16\n"
         "singularity margin    = 1.332e-15   [IDENTIFICATION FAILS: "
         "error distribution is normal]\n"
         "quadrature report     = {'c1_err': 0.0, 'c2_err': 0.0, "
         "'c3_doubling_delta': 1.6653345369377348e-16, 'c3_panels': 1024, "
         "'t_truncation': 8.5}\n"),
        ("gamma:1,1",
         "c1 = inf   [DIVERGES: for gamma shape a <= 1 the integrand "
         "behaves like u^(-1/a) / sqrt(2 log(1/u)) near u = 0]\n"
         "c2 = 0.9031972856\n"
         "c3 = 0.4687149275\n"
         "lemma-b residual      = 9.992e-16\n"
         "singularity margin    = 9.680e-02\n"
         "quadrature report     = {'c2_err': 2.220446049250313e-16, "
         "'c3_doubling_delta': 3.3306690738754696e-15, 'c3_panels': 1024, "
         "'t_truncation': 8.5}\n"),
    ], ids=["gamma:3,2", "normal", "gamma:1,1"])
    def test_gamma_constants_output(self, dist, want, capsys):
        # byte for byte
        assert main(["constants", "--dist", dist]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("dist", ["gamma:3,2", "gamma:1,1"])
    def test_out_writes_the_report(self, dist, tmp_path, capsys):
        out = tmp_path / "constants.json"
        assert main(["constants", "--dist", dist, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        rep = json.loads(out.read_text())
        F = DistSpec.gamma(*(float(v) for v in dist[6:].split(",")))
        cons = constants_c(F)
        assert rep["schema"] == cli.REPORT_SCHEMA
        assert rep["config"] == {"command": "constants", "dist": dist}
        assert (rep["c2"], rep["c3"]) == (cons.c2, cons.c3)
        assert rep["quadrature_report"] == cons.quadrature_report
        assert rep["lemma_b_residual"] == cons.lemma_b_residual
        assert f"singularity margin    = {rep['singularity_margin']:.3e}" \
            in printed
        if dist == "gamma:1,1":
            assert cons.c1_diverges
            assert rep["c1"] is None and rep["c1_diverges"] is True
        else:
            assert rep["c1"] == cons.c1 == 1.4502413205166842
            assert "c1_diverges" not in rep
        assert printed.endswith(f"report written to {out}\n")

    @pytest.mark.parametrize("dist,c2", [("gamma:1,1", "0.9031972856"),
                                         ("gamma:0.5,1", "0.5886198032")])
    def test_divergent_c1_is_reported(self, dist, c2, capsys):
        # c1 is infinite for gamma shape <= 1; the other constants are not
        assert main(["constants", "--dist", dist]) == 0
        cap = capsys.readouterr()
        lines = cap.out.splitlines()
        assert lines[0].startswith("c1 = inf   [DIVERGES: ")
        assert lines[1] == f"c2 = {c2}"
        assert float(lines[3].split("=")[1]) < 1e-6
        assert "c1_err" not in lines[5]
        assert cap.err == ""


    def test_c3_stops_alike_in_any_units(self, capsys):
        # c3 scales as 1 / rate^2: gamma:3,1e-3 is gamma:3,1 in units a
        # thousand times smaller, whose c3 grid stops at the same doubling
        def c3(dist):
            assert main(["constants", "--dist", dist]) == 0
            out = capsys.readouterr().out
            return float(out.splitlines()[2].split("=")[1])
        assert c3("gamma:3,1e-3") == pytest.approx(1e6 * c3("gamma:3,1"),
                                                   rel=1e-8)

    @pytest.mark.parametrize("dist", ["gamma:1e100,1", "gamma:1e250,1",
                                      "gamma:1e300,1"])
    def test_rounded_away_quantiles_exit_3(self, dist, capsys):
        # the centered quantiles have no significant digits left, so every
        # integrand is 0; c2 = Cov(g(T), T) > 0 for every distribution
        assert main(["constants", "--dist", dist]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.count("\n") == 1
        assert "c2 = 0.000e+00 is not positive" in cap.err


class TestMultiEndogenousFit:
    def test_two_endogenous_columns_end_to_end(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 200
        x = rng.gamma(1.0, 1.0, n)
        z1 = x + rng.gamma(1.0, 1.0, n)
        z2 = rng.gamma(3.0, 0.5, n)
        y = 1.0 - x + z1 - 2.0 * z2 + rng.standard_normal(n)
        p = tmp_path / "m2.csv"
        _write_csv(p, ["y", "x", "z1", "z2"], zip(y, x, z1, z2))
        out = tmp_path / "m2.json"
        rc = main(["fit", "--data", str(p), "--outcome", "y", "--exog", "x",
                   "--endog", "z1", "z2", "--estimator", "npcf",
                   "--bootstrap", "19", "--seed", "4", "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        coefs = rep["estimates"]["npcf"]["coefficients"]
        assert {"rho[z1]", "rho[z2]"} <= set(coefs)
        # the exogeneity t-test is single-column only and must be omitted
        assert "exogeneity" not in rep["tests"]
        assert len(rep["diagnostics"]["identification"]) == 2
