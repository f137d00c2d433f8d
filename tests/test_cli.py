"""CLI contract: determinism, round-trip output, and the exit-code table."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mptsu2
from mptsu2 import cli, jsontext
from mptsu2.cli import main
from mptsu2.errors import DomainError
from mptsu2.ladder import sinh_matrix
from mptsu2.oracle import DDX, observable_matrix
from mptsu2.states import MAX_Q, PotentialSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, timeout=60, buffered=None, stdout=subprocess.PIPE):
    """``python *argv`` in a fresh process that imports this package, installed or not.

    ``buffered`` True or False runs it without or with ``PYTHONUNBUFFERED``;
    None keeps this process's setting.
    """
    src = str(Path(mptsu2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    if buffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=timeout)


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [dict(zip(header, line)) for line in reader]
    return header, rows


class TestSpectrum:
    def test_integer_well(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--q", "2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "epsilon", "m", "energy"]
        assert [float(r["energy"]) for r in rows] == [-2.0, -0.5]
        assert [float(r["epsilon"]) for r in rows] == [2.0, 1.0]
        assert [float(r["m"]) for r in rows] == [-2.0, -1.0]

    def test_depth_form_matches_q_form(self, capsys):
        _, out_q, _ = run_cli(capsys, "spectrum", "--q", "2")
        _, out_d, _ = run_cli(capsys, "spectrum", "--D", "3", "--alpha", "1",
                              "--mu", "1")
        assert out_q == out_d

    def test_single_level_well(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--q", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["energy"]) == -0.5

    def test_missing_well_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum")
        assert code == 2
        assert "well" in err

    def test_conflicting_well_forms_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--q", "2", "--D", "3")
        assert code == 2


class TestMatelem:
    def test_closed_sinh(self, capsys):
        code, out, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "sinh",
                               "--method", "closed")
        assert code == 0
        _, rows = parse_csv(out)
        value = {(int(r["row"]), int(r["col"])): float(r["value"]) for r in rows}
        assert value[(0, 1)] == 0.5
        assert value[(1, 0)] == 0.5

    def test_oracle_matches_closed(self, capsys):
        _, out_closed, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "sinh",
                                   "--method", "closed")
        _, out_oracle, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "sinh",
                                   "--method", "oracle")
        _, closed_rows = parse_csv(out_closed)
        _, oracle_rows = parse_csv(out_oracle)
        for a, b in zip(closed_rows, oracle_rows):
            assert abs(float(a["value"]) - float(b["value"])) < 1e-8

    @pytest.mark.parametrize("op", ["sinh", "p"])
    def test_oracle_runs_past_q_735(self, capsys, tmp_path, op):
        # The oracle once exited 3 from q = 735: the Gegenbauer polynomial
        # overflowed where its sech^eps envelope underflowed.
        q, out = 800, tmp_path / "matrix.csv"
        code, _, err = run_cli(capsys, "matelem", "--q", str(q), "--op", op,
                               "--method", "oracle", "--out", str(out))
        assert (code, err) == (0, "")
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + q * q  # the header, then row-major entries
        above, below = (np.array([float(lines[1 + n * q + n + s].split(",")[2])
                                  for n in range(q - 1)]) for s in (1, q))
        if op == "sinh":
            assert np.max(np.abs(above - np.diag(sinh_matrix(2 * q + 1).entries, 1))) < 1e-8
        else:  # R is antisymmetric, and its band nonzero
            assert np.max(np.abs(above + below)) < 1e-8 and np.min(np.abs(above)) > 0.1

    def test_expansion_emits_deviation_column(self, capsys):
        code, out, _ = run_cli(capsys, "matelem", "--q", "11", "--op", "x",
                               "--method", "expansion", "--order", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["row", "col", "value", "deviation"]
        # The series only converges away from the dissociation edge.
        low = [r for r in rows if int(r["row"]) <= 2 and int(r["col"]) <= 2]
        assert low and all(float(r["deviation"]) < 0.05 for r in low)

    def test_momentum_convention_noted_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "p",
                               "--method", "oracle", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "momentum" in payload["meta"]["momentum_convention"]

    def test_momentum_expansion_runs(self, capsys):
        code, out, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "p",
                               "--method", "expansion", "--order", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "deviation"
        assert len(rows) == 9

    def test_momentum_expansion_rejects_order_five(self, capsys):
        code, _, err = run_cli(capsys, "matelem", "--q", "3", "--op", "p",
                               "--method", "expansion", "--order", "5")
        assert code == 2
        assert "order" in err

    def test_invalid_pairs_are_usage_errors(self, capsys):
        assert run_cli(capsys, "matelem", "--q", "3", "--op", "x",
                       "--method", "closed")[0] == 2
        assert run_cli(capsys, "matelem", "--q", "3", "--op", "sinh",
                       "--method", "expansion")[0] == 2


class TestOracleFlags:
    @pytest.mark.parametrize("argv", [
        ("matelem", "--q", "30", "--op", "x", "--method", "oracle"),
        ("verify", "--q", "20", "--suite", "all"),
    ], ids=["matelem", "verify"])
    def test_panel_flag_changes_nothing(self, capsys, argv):
        plain = run_cli(capsys, *argv, "--format", "json")
        flagged = run_cli(capsys, *argv, "--format", "json", "--oracle-panels", "128")
        assert plain[0] == 0
        assert flagged == plain

    @pytest.mark.parametrize("flag", ["--oracle-order", "--oracle-panels"])
    def test_non_positive_oracle_flags_are_usage_errors(self, capsys, flag):
        code, _, err = run_cli(capsys, "matelem", "--q", "3", "--op", "x",
                               "--method", "oracle", flag, "0")
        assert code == 2
        assert "at least 1" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--q", "2", "--oracle-order", "0", "--oracle-panels", "0"),
        ("params", "--q", "3", "--oracle-panels", "0"),
    ], ids=["spectrum", "params"])
    def test_commands_without_an_oracle_reject_oracle_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_algebra_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nu", "7", "--suite", "algebra")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["status"] == "pass" for r in rows)

    def test_algebra_suite_takes_a_matching_well_and_nu(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "5", "--nu", "11", "--suite", "algebra")
        assert code == 0
        assert out == run_cli(capsys, "verify", "--q", "5", "--suite", "algebra")[1]

    def test_matelem_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "matelem")
        assert code == 0

    def test_states_and_vibron_suites_pass(self, capsys):
        for suite in ("states", "vibron"):
            code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", suite)
            assert code == 0
            _, rows = parse_csv(out)
            assert rows and all(r["status"] == "pass" for r in rows)

    def test_expansion_suite_needs_interior_state(self, capsys):
        for well, q in ((("--q", "2"), "2"), (("--D", "3.3"), "2.1172504656604803")):
            code, _, err = run_cli(capsys, "verify", *well, "--suite", "expansion")
            assert code == 2
            assert err == ("error: the series expansion requires q >= 3, an integer; "
                           f"this well has q = {q}\n")

    def test_full_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "all")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) > 15

    def test_suite_choices_are_the_names_suite_for_accepts(self):
        from mptsu2 import checks

        command = next(a for a in cli.build_parser()._actions if a.dest == "command")
        choices, = [a.choices for a in command.choices["verify"]._actions
                    if a.dest == "suite"]
        assert choices == checks.SUITES
        spec = PotentialSpec.for_integer_q(3)
        assert all(checks.suite_for(name, spec, None) for name in choices)
        with pytest.raises(DomainError, match="unknown suite 'algebras'"):
            checks.suite_for("algebras", spec, None)


class TestVibron:
    def test_compare_at_zero_coupling(self, capsys):
        code, out, _ = run_cli(capsys, "vibron", "--q", "3", "--lambda", "0",
                               "--model", "compare")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9
        for row in rows:
            assert float(row["dev_su2"]) < 1e-9
            assert float(row["dev_crude"]) < 1e-9
            assert float(row["dev_zazb"]) < 1e-9
            assert row["e_su2"] == row["e_exact"]

    def test_su2_spectrum_exchange_degeneracy(self, capsys):
        code, out, _ = run_cli(capsys, "vibron", "--q", "3", "--lambda", "0.05",
                               "--model", "su2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9
        values = np.array([float(r["eigenvalue"]) for r in rows])
        assert np.all(np.diff(values) >= -1e-12)

    @pytest.mark.parametrize("model", ["exact", "crude", "zA-zB"])
    def test_other_models_run(self, capsys, model):
        code, out, _ = run_cli(capsys, "vibron", "--q", "3", "--lambda", "0.02",
                               "--model", model)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 9


class TestWellParameterErrors:
    @pytest.mark.parametrize("argv, name", [
        (("spectrum", "--q", "3", "--alpha", "inf"), "alpha"),
        (("spectrum", "--q", "3", "--hbar", "inf"), "hbar"),
        (("spectrum", "--q", "3", "--alpha", "nan"), "alpha"),
        (("spectrum", "--q", "3", "--mu", "0"), "mu"),
        (("spectrum", "--D", "inf"), "D"),
        (("spectrum", "--D", "1e308"), "D"),
        (("spectrum", "--D", "1", "--alpha", "1e-200"), "alpha"),
        (("matelem", "--D", "inf", "--op", "sinh", "--method", "closed"), "D"),
        (("verify", "--D", "inf", "--suite", "states"), "D"),
        (("params", "--omega-e", "inf", "--xe-omega-e", "1"), "omega_e"),
        (("params", "--omega-e", "1e308", "--xe-omega-e", "1e-308"), "xe_omega_e"),
        (("params", "--omega-e", "3", "--xe-omega-e", "1", "--hbar", "0"), "hbar"),
        (("params", "--omega-e", "3", "--xe-omega-e", "1", "--hbar", "inf"), "hbar"),
        (("params", "--omega-e", "3", "--xe-omega-e", "1", "--hbar", "nan"), "hbar"),
        (("verify", "--q", "5", "--nu", "9", "--suite", "all"), "nu"),
        (("verify", "--q", "5", "--nu", "11", "--suite", "vibron"), "nu"),
        (("verify", "--q", "5", "--nu", "9", "--suite", "algebra"), "nu"),
        (("spectrum", "--q", "3", "--hbar", "1e-320"), "hbar"),
        (("params", "--omega-e", "3", "--xe-omega-e", "1", "--hbar", "1e-320"), "hbar"),
        (("spectrum", "--q", "3", "--alpha", "1e200"), "alpha"),
    ])
    def test_usage_error_names_the_parameter(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert re.search(rf"\b{name}\b", err)

    @pytest.mark.parametrize("names", [["alpha"], ["hbar"], ["alpha", "hbar"]])
    def test_overflowing_scale_is_a_usage_error(self, capsys, names):
        # (alpha hbar)^2 is past the float range, which exited 3 with
        # "numerical failure: (34, 'Numerical result out of range')", or,
        # with alpha hbar itself past it, printed a level of energy nan.
        flags = [arg for name in names for arg in (f"--{name}", "1e200")]
        code, out, err = run_cli(capsys, "spectrum", "--D", "1", *flags)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert all(f"{name} = 1e+200" in err for name in names)

    @pytest.mark.parametrize("alpha, hbar", [("1e160", "1e-160"), ("1e-160", "1e160")])
    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("params",),
        ("matelem", "--op", "x", "--method", "oracle"),
        ("verify", "--suite", "all"),
        ("vibron", "--model", "crude", "--lambda", "0.02"),
    ])
    def test_alpha_squared_outside_the_normal_range(self, capsys, argv, alpha, hbar):
        # alpha hbar = 1 and q = 3, but alpha^2 overflowed (exit 3, "Numerical
        # result out of range") or was subnormal, and lost digits: params
        # said the boson number would be 5.999922070278781, not 6.
        code, out, err = run_cli(capsys, *argv, "--D", "6", "--alpha", alpha, "--hbar", hbar)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"alpha = {float(alpha)!r}" in err


class TestTooDeepWellErrors:
    # From q = 2^23 on "q is an integer" cannot be tested.  Each command runs
    # in a fresh process with a timeout, so that a hang fails the test.
    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("verify", "--suite", "states"),
        ("matelem", "--op", "sinh", "--method", "oracle"),
        ("vibron", "--lambda", "0.01", "--model", "su2"),
        ("verify", "--suite", "algebra"),
        ("params",),
    ], ids=["spectrum", "verify-states", "matelem", "vibron", "verify-algebra", "params"])
    def test_usage_error_names_q_and_the_bound(self, argv):
        self.assert_too_deep(run_child("-m", "mptsu2", *argv, "--D", "1e200", timeout=30))

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--q", "1" + "0" * 200),
        ("params", "--omega-e", "1e300", "--xe-omega-e", "1e-5"),
    ], ids=["spectrum-q-1e200", "params-N-1e305"])
    def test_q_past_the_float_range(self, argv):
        # q (q + 1) cannot be converted to a float, so no depth can be formed.
        self.assert_too_deep(run_child("-m", "mptsu2", *argv, timeout=30))

    @staticmethod
    def assert_too_deep(proc):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert re.search(rf"q = \S+ is not below {MAX_Q:.0f}\b", proc.stderr)


# A command for each MIN_Q entry the CLI reaches, without its well, and that
# entry's smallest q: the quadrature oracle, the closed-form matrix, the
# series expansion, the algebra suite, the su2, crude, exact and zA-zB models,
# and the model comparison.
DOMAINS = [
    (("matelem", "--op", "sinh", "--method", "oracle"), 2),
    (("verify", "--suite", "states"), 2),
    (("verify", "--suite", "all"), 2),
    (("matelem", "--op", "coshd", "--method", "closed"), 2),
    (("verify", "--suite", "matelem"), 2),
    (("matelem", "--op", "p", "--method", "expansion"), 3),
    (("verify", "--suite", "expansion"), 3),
    (("verify", "--suite", "algebra"), 1),
    (("vibron", "--model", "su2", "--lambda", "0.02"), 1),
    (("vibron", "--model", "crude", "--lambda", "0.02"), 2),
    (("vibron", "--model", "exact", "--lambda", "0.02"), 3),
    (("vibron", "--model", "zA-zB", "--lambda", "0.02"), 3),
    (("vibron", "--model", "compare", "--lambda", "0.02"), 3),
    (("verify", "--suite", "vibron"), 3),
]


def one_below(minimum):
    """A well with q = minimum - 1; --q cannot give q = 0, a depth that underflows does."""
    return ("--q", str(minimum - 1)) if minimum > 1 else ("--D", "1e-320")


class TestShallowWellErrors:
    @pytest.mark.parametrize("argv, need", [
        (("vibron", "--q", "2", "--model", "zA-zB", "--lambda", "0.02"), 3),
        (("vibron", "--q", "2", "--model", "exact", "--lambda", "0.02"), 3),
        (("vibron", "--q", "1", "--model", "crude", "--lambda", "0.02"), 2),
        (("matelem", "--q", "1", "--op", "sinh", "--method", "closed"), 2),
        (("matelem", "--q", "1", "--op", "coshd", "--method", "closed"), 2),
        (("matelem", "--q", "2", "--op", "x", "--method", "expansion"), 3),
        (("matelem", "--q", "2", "--op", "p", "--method", "expansion"), 3),
    ] + [(argv + one_below(need), need) for argv, need in DOMAINS]
      + [(argv + ("--D", "3.3"), need) for argv, need in DOMAINS])
    def test_error_states_the_q_needed(self, capsys, argv, need):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"requires q >= {need}" in err
        assert "nu" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("vibron", "--q", "2", "--model", "crude", "--lambda", "0.02"),
        ("matelem", "--q", "2", "--op", "sinh", "--method", "closed"),
        ("matelem", "--q", "3", "--op", "x", "--method", "expansion"),
    ] + [argv + ("--q", str(need)) for argv, need in DOMAINS])
    def test_smallest_well_runs(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("depth", ["1e-320", "1e-20"])
    def test_well_with_zero_q_has_no_bound_state(self, capsys, depth):
        # q rounds to exactly 0: the one level it would have sits at E = 0.
        code, out, err = run_cli(capsys, "spectrum", "--D", depth)
        assert (code, out, err) == (2, "", "error: the well supports no bound states\n")

    def test_well_just_past_zero_q_keeps_one_level(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--D", "1e-8")  # q ~ 2e-8
        assert code == 0
        assert len(parse_csv(out)[1]) == 1


class TestNonFiniteCoupling:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("vibron", "--q", "3", "--model", "exact"),
        ("vibron", "--q", "3", "--model", "compare"),
        ("verify", "--q", "3", "--suite", "vibron"),
        ("verify", "--q", "3", "--suite", "all"),
    ])
    def test_rejected_as_usage_error(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, f"--lambda={value}")
        assert code == 2
        assert out == ""
        assert "--lambda must be finite" in err


class TestParams:
    def test_from_well(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--q", "2")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["omega_e"]) == 2.5
        assert float(row["xe_omega_e"]) == 0.5
        assert int(row["N"]) == 4
        assert float(row["hbar_omega0"]) == 2.0

    def test_from_spectro(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--omega-e", "3.5",
                               "--xe-omega-e", "0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert int(rows[0]["N"]) == 6
        assert float(rows[0]["q"]) == 3.0
        assert float(rows[0]["D"]) == 6.0

    def test_fractional_boson_number_reported(self, capsys):
        code, _, err = run_cli(capsys, "params", "--omega-e", "3.3",
                               "--xe-omega-e", "0.5")
        assert code == 2
        assert "5.6" in err


def emit_json(well, rows, meta, out=None):
    """What ``_emit`` writes to stdout for a JSON payload."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._emit("cmd", well, rows, meta, argparse.Namespace(format="json", out=out))
    return buffer.getvalue()


SPECIAL_TEXT = st.sampled_from(["%", "%s", "%%", "%(row)s", "{}", "{0}", '"', "\\",
                                "\u00e9", "\u2603", "\x00", "\n", "\ud83d\ude00", ""])
TEXT = st.one_of(SPECIAL_TEXT, st.text(max_size=6))
SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf,
                     1e16, 1.7976931348623157e308]),
    st.integers(-10 ** 40, 10 ** 40), st.booleans(), st.none(), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=6)
ROWS = st.lists(st.one_of(
    st.dictionaries(st.sampled_from(["row", "col", "value", "%s", "{}"]), SCALARS, max_size=4),
    st.dictionaries(TEXT, SCALARS, max_size=4),
    st.dictionaries(st.one_of(TEXT, st.integers(-5, 5), st.booleans(), st.none()),
                    VALUES, max_size=3),
), max_size=8)


def traced_peak(call):
    """tracemalloc peak of ``call()`` above the memory traced when it starts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def csv_text(rows):
    """The CSV of the rows by one ``csv.writer`` over the whole list."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = list(rows[0]) if rows else []
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cli._format_cell(row[c]) for c in columns])
    return buffer.getvalue()


class TestJsonWriter:
    """``_emit`` writes json.dumps(payload, indent=2) + "\\n" byte for byte.

    And CSV as one ``csv.writer`` over the whole row list would, with rows
    drawn from the same batches.
    """

    @settings(max_examples=300, deadline=None)
    @given(well=st.dictionaries(TEXT, SCALARS, max_size=3), rows=ROWS,
           meta=st.dictionaries(TEXT, VALUES, max_size=3))
    def test_text_is_json_dumps(self, well, rows, meta):
        # Rows come as a list or as a one-shot generator, which is read once.
        payload = {"command": "cmd", "well": well, "rows": rows, "meta": meta}
        text = json.dumps(payload, indent=2) + "\n"
        assert emit_json(well, rows, meta) == text
        assert emit_json(well, (row for row in rows), meta) == text

    @pytest.mark.parametrize("one_shot", [False, True], ids=["list", "generator"])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 6, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_batches_join_to_the_document(self, count, batch, one_shot, monkeypatch):
        rows = [{"row": i, "value": i / 3.0} if i % 3 else {} for i in range(count)]
        payload = {"command": "cmd", "well": {}, "rows": rows, "meta": {"a": [1, {}]}}
        monkeypatch.setattr(jsontext, "_BATCH", batch)
        given_rows = (row for row in rows) if one_shot else rows
        chunks = list(jsontext.chunks("cmd", {}, given_rows, payload["meta"]))
        assert "".join(chunks) == json.dumps(payload, indent=2) + "\n"
        assert len(chunks) == 2 + -(-count // batch)

    @pytest.mark.parametrize("one_shot", [False, True], ids=["list", "generator"])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 6, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_csv_batches_join_to_the_document(self, count, batch, one_shot, monkeypatch):
        # The header comes with the first batch; no rows is an empty header line.
        rows = [{"row": i, "value": i / 3.0, "flag": i % 2 == 0, "name": f"r,{i}\""}
                for i in range(count)]
        monkeypatch.setattr(jsontext, "_BATCH", batch)
        chunks = list(cli._csv_chunks((row for row in rows) if one_shot else rows))
        assert "".join(chunks) == csv_text(rows)
        assert len(chunks) == max(1, -(-count // batch))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit("cmd", {}, iter(rows), {}, argparse.Namespace(format="csv", out=None))
        assert out.getvalue() == csv_text(rows)

    def test_out_file_is_stdout(self, capsys, tmp_path):
        argv = ["matelem", "--q", "12", "--op", "p", "--method", "oracle", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "p.json"
        assert code == 0 and main([*argv, "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == out

    def test_peak_is_below_the_document_length(self, tmp_path):
        # The rows are formed and written in batches, so neither the document
        # nor the 6400 rows are ever held whole.
        spec = PotentialSpec.for_integer_q(80)
        matrix = observable_matrix(spec, DDX)
        target = tmp_path / "m.json"
        args = argparse.Namespace(format="json", out=str(target))
        well, meta = cli._well_summary(spec), cli._meta()
        peak = traced_peak(lambda: cli._emit("matelem", well, cli._matrix_rows(matrix),
                                             meta, args))
        assert len(json.loads(target.read_text(encoding="utf-8"))["rows"]) == 6400
        assert peak < target.stat().st_size

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("op", ["sinh", "p"])
    def test_matelem_run_holds_no_row_list(self, op, fmt, tmp_path):
        # A whole q = 200 run, oracle included: its level arrays set the
        # peak at about 8.4 matrices of q x q doubles.  The 40000 rows, if
        # held as a list of dicts, would add about 20 more.
        q = 200
        target = tmp_path / f"m.{fmt}"
        argv = ["matelem", "--q", str(q), "--op", op, "--method", "oracle",
                "--format", fmt, "--out", str(target)]
        peak = traced_peak(lambda: main(argv))
        text = target.read_text(encoding="utf-8")
        assert len(json.loads(text)["rows"] if fmt == "json" else text.splitlines()[1:]) == q * q
        assert peak < 10 * q * q * 8


class TestOutputContract:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--q", "4"),
        ("matelem", "--q", "4", "--op", "x", "--method", "expansion", "--order", "3"),
        ("verify", "--q", "4", "--suite", "all"),
        ("vibron", "--q", "4", "--model", "compare", "--lambda", "0.05"),
        ("params", "--omega-e", "3.5", "--xe-omega-e", "0.5"),
    ], ids=lambda argv: argv[0])
    def test_json_layout_is_json_dumps(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "vibron", "--q", "3", "--lambda", "0.05",
                              "--model", "compare", "--format", "json")
        _, second, _ = run_cli(capsys, "vibron", "--q", "3", "--lambda", "0.05",
                               "--model", "compare", "--format", "json")
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--q", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["command"] == "spectrum"
        assert payload["well"]["q"] == 3.0
        again = json.loads(json.dumps(payload))
        assert again == payload
        energies = [row["energy"] for row in payload["rows"]]
        assert energies == [-4.5, -2.0, -0.5]

    def test_csv_floats_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "matelem", "--q", "3", "--op", "sinh",
                            "--method", "oracle")
        _, rows = parse_csv(out)
        from mptsu2.oracle import SINH_ALPHA_X, observable_matrix
        from mptsu2.states import PotentialSpec
        matrix = observable_matrix(PotentialSpec.for_integer_q(3), SINH_ALPHA_X).entries
        for row in rows:
            assert float(row["value"]) == matrix[int(row["row"]), int(row["col"])]

    def test_csv_uses_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(["spectrum", "--q", "2", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"q": 2, "format": "json"}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 0
        assert json.loads(out)["well"]["q"] == 2.0

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"q": 2}))
        code, out, _ = run_cli(capsys, "spectrum", "--q", "3",
                               "--config", str(config))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps([1, 2, 3]))
        code, _, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2
        assert "config" in err

    def test_config_values_convert_like_flags(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"q": "3", "alpha": "0.5", "format": "json"}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 0
        assert out == run_cli(capsys, "spectrum", "--q", "3", "--alpha", "0.5",
                              "--format", "json")[1]

    # A valid value of each option, and each command's base options.  The
    # option's value replaces the base one, and the options in INSTEAD_OF_Q
    # replace the base --q with what they need beside them.  Each value
    # changes the base output, except the UNSEEN ones: --oracle-panels is
    # ignored, and verify's coupling moves no row of the states suite.
    VALUES = {"--q": "4", "--D": "10", "--alpha": "0.5", "--mu": "2", "--hbar": "0.5",
              "--format": "csv", "--out": "out.txt", "--oracle-order": "3",
              "--oracle-panels": "2", "--op": "p", "--method": "oracle", "--order": "3",
              "--suite": "matelem", "--nu": "9", "--lambda": "0.03", "--model": "su2",
              "--omega-e": "5.5", "--xe-omega-e": "0.5"}
    BASE = {"spectrum": {"--q": "3"},
            "matelem": {"--q": "3", "--op": "x", "--method": "expansion"},
            "verify": {"--q": "3", "--suite": "states"},
            "vibron": {"--q": "3", "--lambda": "0.02", "--model": "compare"},
            "params": {"--q": "3"}}
    INSTEAD_OF_Q = {"--D": {}, "--nu": {"--suite": "algebra"},
                    "--omega-e": {"--xe-omega-e": "0.5"}, "--xe-omega-e": {"--omega-e": "5.5"}}
    UNSEEN = {"--oracle-panels", "verify --lambda"}
    # At q = 3 every rule of 3 or more nodes is exact for the states suite's
    # one oracle row, the Gram matrix, so --oracle-order 3 would move it by
    # rounding alone.  At q = 6 3 nodes are not exact, and the row fails.
    BASE_FOR = {"verify --oracle-order": {"--q": "6"}}
    EXIT_FOR = {"verify --oracle-order": 1}

    @pytest.mark.parametrize("command, flag", [
        (name, flag) for name, command in cli._TABLE.items()
        for flag, _ in command.options if flag != "--config"])
    def test_every_option_converts_from_config_like_its_flag(self, capsys, tmp_path,
                                                             monkeypatch, command, flag):
        def argv(options):
            return [command, *(item for pair in options.items() for item in pair)]

        monkeypatch.chdir(tmp_path)
        base = {**self.BASE[command], **self.BASE_FOR.get(f"{command} {flag}", {}),
                "--format": "json"}
        before = run_cli(capsys, *argv(base))[1]
        if flag in self.INSTEAD_OF_Q:
            del base["--q"]
            base.update(self.INSTEAD_OF_Q[flag])
        base.pop(flag, None)
        text = self.VALUES[flag]
        try:
            value = json.loads(text)  # a JSON number where the text is one
        except ValueError:
            value = text
        config = tmp_path / "run.json"
        config.write_text(json.dumps({flag[2:]: value}))
        runs = []
        for extra in (["--config", str(config)], [flag, text]):
            runs.append(run_cli(capsys, *argv(base), *extra))
            if flag == "--out":  # the file written, read and removed before the next run
                runs[-1] += ((tmp_path / text).read_text(),)
                (tmp_path / text).unlink()
        assert runs[0][0] == self.EXIT_FOR.get(f"{command} {flag}", 0), runs[0][2]
        assert runs[0] == runs[1]
        unseen = flag in self.UNSEEN or f"{command} {flag}" in self.UNSEEN
        assert (runs[0][1] == before) == unseen

    @pytest.mark.parametrize("argv, key", [
        (("verify", "--q", "3"), "suit"),
        (("spectrum", "--q", "3"), "formt"),
        (("spectrum", "--q", "3"), "command"),
    ])
    def test_config_key_naming_no_option_is_usage_error(self, capsys, tmp_path, argv, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: "json"}))
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key {key!r}" in err

    def test_config_key_in_a_config_file_is_usage_error(self, capsys, tmp_path):
        # --config is set by the time its file is read, so the key was skipped
        # and other.json never opened.
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"format": "json"}))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"config": str(other), "q": 2}))
        code, out, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "config key 'config'" in err

    @pytest.mark.parametrize("argv", [("spectrum",), ("vibron",)])
    def test_config_keys_of_other_commands_are_ignored(self, capsys, tmp_path, argv):
        # lambda and model are vibron's options; spectrum takes the file too.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"q": 3, "lambda": 0.02, "model": "su2"}))
        code, out, _ = run_cli(capsys, *argv, "--config", str(config))
        flags = ("--lambda", "0.02", "--model", "su2") if argv[0] == "vibron" else ()
        assert code == 0
        assert out == run_cli(capsys, *argv, "--q", "3", *flags)[1]

    @pytest.mark.parametrize("text", [
        '{"q": "three"}', '{"q": 3.5}', '{"q": true}', '{"q": [3]}',
        '{"q": 3, "format": "xml"}', '{"q": 3',
    ])
    def test_mistyped_config_is_usage_error(self, capsys, tmp_path, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "config" in err


    def test_config_sets_options_that_have_defaults(self, capsys, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("mptsu2.checks.suite_for",
                            lambda name, spec, nu, lam, cfg: seen.append((name, lam)) or [])
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lambda": 0.02, "suite": "states"}))
        assert run_cli(capsys, "verify", "--q", "3", "--config", str(config))[0] == 0
        assert run_cli(capsys, "verify", "--q", "3")[0] == 0
        assert seen == [("states", 0.02), ("all", 0.05)]

    def test_flags_override_config_options_with_defaults(self, capsys, tmp_path,
                                                        monkeypatch):
        seen = []
        monkeypatch.setattr("mptsu2.checks.suite_for",
                            lambda name, spec, nu, lam, cfg: seen.append((name, lam)) or [])
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lambda": 0.02, "suite": "states"}))
        code, _, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "matelem",
                             "--lambda", "0.03", "--config", str(config))
        assert code == 0
        assert seen == [("matelem", 0.03)]

    @pytest.mark.parametrize("values, argv, flags", [
        ({"lambda": 0.02, "model": "su2"}, ("vibron",),
         ("vibron", "--lambda", "0.02", "--model", "su2")),
        ({"model": "crude"}, ("vibron", "--lambda", "0.02"),
         ("vibron", "--lambda", "0.02", "--model", "crude")),
        ({"op": "sinh", "method": "closed"}, ("matelem",),
         ("matelem", "--op", "sinh", "--method", "closed")),
    ])
    def test_config_sets_required_options(self, capsys, tmp_path, values, argv, flags):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        code, out, _ = run_cli(capsys, *argv, "--q", "3", "--config", str(config))
        assert code == 0
        assert out == run_cli(capsys, *flags, "--q", "3")[1]

    @pytest.mark.parametrize("values, argv, missing", [
        ({"lambda": 0.02}, ("vibron",), "--model"),
        ({}, ("vibron", "--model", "su2"), "--lambda"),
        ({"op": "sinh"}, ("matelem",), "--method"),
    ])
    def test_required_option_missing_after_merge_is_usage_error(
            self, capsys, tmp_path, values, argv, missing):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        for extra in ([], ["--config", str(config)]):
            code, out, err = run_cli(capsys, *argv, "--q", "3", *extra)
            assert code == 2
            assert out == ""
            assert missing in err


class TestStartUp:
    def test_cli_runs_leave_numpy_ma_unimported(self):
        # Importing numpy.ma costs ~10 ms of a CLI process; a flagless
        # np.unique is one way to pull it in.
        script = textwrap.dedent("""
            import contextlib, io, sys
            from mptsu2 import cli
            for argv in (["spectrum"], ["params"],
                         ["matelem", "--op", "sinh", "--method", "oracle"],
                         ["verify", "--suite", "all"],
                         ["vibron", "--model", "compare", "--lambda", "0.05"],
                         ["vibron", "--model", "exact", "--lambda", "0.05"],
                         ["vibron", "--model", "su2", "--lambda", "0.05"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main([*argv, "--q", "5"]) == 0, argv
            print("numpy.ma" in sys.modules)
        """)
        proc = run_child("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_bare_import_loads_no_submodule(self):
        # dir() lists every package name before any is resolved, importing nothing.
        proc = run_child("-c", "import sys, mptsu2; names = set(dir(mptsu2)); "
                               "print(sorted(m for m in sys.modules if 'mptsu2' in m), "
                               "set(mptsu2._HOME) <= names)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['mptsu2'] True\n"

    @pytest.mark.parametrize("argv, libraries", [
        (("matelem", "--op", "sinh", "--method", "oracle"), []),
        (("spectrum",), []),
        (("matelem", "--op", "x", "--method", "expansion"), ["expansion"]),
        (("params",), ["expansion", "pairs", "vibron"]),
        (("vibron", "--model", "su2", "--lambda", "0.05"), ["expansion", "pairs", "vibron"]),
        (("verify", "--suite", "states"), ["checks", "expansion", "pairs", "vibron"]),
    ], ids=["matelem-oracle", "spectrum", "matelem-expansion", "params", "vibron", "verify"])
    def test_a_command_imports_only_its_libraries(self, argv, libraries):
        # The oracle path is always imported; the rest only by the commands
        # that run it, and, except matelem's expansion branch, before argparse.
        script = textwrap.dedent("""
            import contextlib, io, sys
            from mptsu2 import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main() == 0
            loaded = list(sys.modules)  # in the order the imports began
            names = [m for m in ("checks", "expansion", "pairs", "vibron")
                     if f"mptsu2.{m}" in loaded]
            late = [m for m in names
                    if loaded.index(f"mptsu2.{m}") > loaded.index("argparse")]
            print(names, late)
        """)
        proc = run_child("-c", script, *argv, "--q", "5")
        assert proc.returncode == 0, proc.stderr
        late = libraries if argv[0] == "matelem" else []
        assert proc.stdout == f"{libraries} {late}\n"

    def test_package_names_resolve_to_their_home_modules(self):
        assert len(mptsu2._HOME) == 70
        for name, home in mptsu2._HOME.items():
            module = importlib.import_module(f"mptsu2.{home}")
            assert getattr(mptsu2, name) is getattr(module, name), name
            assert name in module.__all__, name
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mptsu2.no_such_name


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run_cli(capsys, "spectrum", "--q", "2")[0] == 0

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        from mptsu2 import checks

        def failing_suite(name, spec, nu, lam=0.05, cfg=None):
            return [checks.CheckResult("always fails", 1.0, 0.0)]

        monkeypatch.setattr("mptsu2.checks.suite_for", failing_suite)
        code, out, _ = run_cli(capsys, "verify", "--q", "3", "--suite", "states")
        assert code == 1
        assert "fail" in out

    def test_usage_error_is_two(self, capsys):
        assert run_cli(capsys, "spectrum", "--D", "-4")[0] == 2

    def test_argparse_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["matelem", "--q", "3", "--op", "nonsense", "--method", "closed"])
        assert exc.value.code == 2

    def test_io_failure_is_three(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--q", "2", "--out",
                               "/nonexistent-dir/x.csv")
        assert code == 3
        assert "i/o" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 3.72 GiB for an array", ""])
    def test_out_of_memory_is_three(self, capsys, monkeypatch, message):
        def exhausted(args):
            raise MemoryError(*([message] if message else []))

        monkeypatch.setitem(cli._TABLE, "spectrum",
                            cli._TABLE["spectrum"]._replace(handler=exhausted))
        code, out, err = run_cli(capsys, "spectrum", "--q", "3")
        assert (code, out) == (3, "")
        assert err == f"error: out of memory{': ' + message if message else ''}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("module", ["mptsu2", "mptsu2.cli"])
    def test_failed_write_to_buffered_stdout_is_three(self, module):
        # The buffer is flushed inside main, not at interpreter exit (exit 120).
        with open("/dev/full", "w") as full:
            proc = run_child("-m", module, "spectrum", "--q", "3", buffered=True,
                             stdout=full)
        assert proc.returncode == 3
        assert proc.stderr == "i/o failure: [Errno 28] No space left on device\n"


class TestEntryPoints:
    """Every entry point ends through ``cli.run``, with main's output and code."""

    @pytest.mark.parametrize("argv, code", [
        (("matelem", "--q", "10", "--op", "sinh", "--method", "oracle", "--format", "json"), 0),
        (("verify", "--q", "10", "--suite", "matelem", "--oracle-order", "2"), 1),
        ((), 2),
        (("matelem", "--q", "1", "--op", "x", "--method", "expansion"), 2),
        (("--help",), 0),
    ], ids=["ok", "verify-fails", "argparse-error", "domain-error", "help"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("module", ["mptsu2", "mptsu2.cli"])
    def test_child_matches_main(self, capsys, monkeypatch, argv, code, buffered, module):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        try:
            returned = main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            returned = exc.code
        out, err = capsys.readouterr()
        assert returned == code
        proc = run_child("-m", module, *argv, buffered=buffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
    def test_every_entry_point_calls_run(self):
        import ast
        import tomllib

        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"mptsu2": "mptsu2.cli:run"}

        def main_block_calls(path):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            block = next(node for node in tree.body if isinstance(node, ast.If)
                         and ast.unparse(node.test) == "__name__ == '__main__'")
            return [ast.unparse(node) for node in block.body]

        package = root / "src" / "mptsu2"
        assert main_block_calls(package / "cli.py") == ["run()"]
        assert main_block_calls(package / "__main__.py") == ["run()"]
        assert "from .cli import run" in (package / "__main__.py").read_text(encoding="utf-8")
