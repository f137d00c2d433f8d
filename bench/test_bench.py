"""Tests of the benchmark's own arithmetic: spans, failure accounting, digits, seeds."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mptsu2.ladder import sinh_matrix

from references import References, correct_digits, failure_counts, ref_digits_min
from spans import Span, SpanTree, covered, layer_metrics, layer_self_times
from workloads import (
    LAMBDA_RANGE,
    ORACLE_PANELS,
    WORKLOADS,
    Command,
    build_commands,
    known_defects,
)

BENCH = Path(__file__).resolve().parent


def _tree():
    # cli.main [0, 10]
    #   oracle.observable_matrix [1, 7]
    #     specfun.gauss_legendre [1, 2]
    #     specfun.integrate [2, 6]
    #       states.wavefunction [3, 5]
    #         specfun.gegenbauer [3.5, 4]
    #   oracle.observable_matrix [7, 7.25]   (a cache hit: no evaluation)
    #   vibron.jacobi_eigh [7.5, 9.5]
    spans = [
        Span(0, "cli.main", 0.0, 10.0, -1, 0),
        Span(1, "oracle.observable_matrix", 1.0, 7.0, 0, 0),
        Span(2, "specfun.gauss_legendre", 1.0, 2.0, 1, 0),
        Span(3, "specfun.integrate", 2.0, 6.0, 1, 0, 48),
        Span(4, "states.wavefunction", 3.0, 5.0, 3, 0, 48),
        Span(5, "specfun.gegenbauer", 3.5, 4.0, 4, 0),
        Span(6, "oracle.observable_matrix", 7.0, 7.25, 0, 0),
        Span(7, "vibron.jacobi_eigh", 7.5, 9.5, 0, 0, 3),
    ]
    return SpanTree(spans)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_child_coverage():
    tree = _tree()
    root = tree.by_key[(0, 0)]
    assert tree.self_time(root) == pytest.approx(10.0 - 6.0 - 0.25 - 2.0)
    assert tree.self_time(tree.by_key[(0, 3)]) == pytest.approx(2.0)


def test_layer_self_times_partition_the_root():
    selfs = layer_self_times(_tree())
    assert selfs["cli"] == pytest.approx(1.75)
    assert selfs["oracle"] == pytest.approx(1.0 + 0.25)
    assert selfs["specfun"] == pytest.approx(1.0 + 2.0 + 0.5)
    assert selfs["states"] == pytest.approx(1.5)
    assert selfs["eigensolve"] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_metrics_on_synthetic_tree():
    m = layer_metrics(_tree())
    assert m["specfun.gauss_legendre.calls"] == 1
    assert m["specfun.gauss_legendre.s"] == pytest.approx(1.0)
    assert m["specfun.integrate.nodes"] == 48
    assert m["specfun.integrate.self_s"] == pytest.approx(2.0)
    assert m["states.eval.calls"] == 1
    assert m["states.eval.points"] == 48
    assert m["states.eval.self_s"] == pytest.approx(1.5)
    assert m["oracle.observable_matrix.calls"] == 2
    assert m["oracle.observable_matrix.computed"] == 1
    assert m["oracle.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["vibron.eigensolve.calls"] == 1
    assert m["vibron.eigensolve.dim3_sum"] == 27
    assert m["vibron.eigensolve.s"] == pytest.approx(2.0)
    assert m["checks.self_s"] == 0.0


def _sinh_command(cid):
    return Command(cid=cid, kind="matelem", q=2, op="sinh",
                   argv=("matelem", "--q", "2", "--op", "sinh", "--method", "oracle"))


def _matrix_output(m):
    rows = [{"row": i, "col": j, "value": float(m[i, j])}
            for i in range(m.shape[0]) for j in range(m.shape[1])]
    return json.dumps({"well": {"q": 2.0, "alpha": 1.0, "mu": 1.0, "hbar": 1.0},
                       "rows": rows})


def test_failures_count_once_per_command():
    exact = sinh_matrix(5).entries
    off = exact.copy()
    off[0, 1] += 1e-6
    commands = [_sinh_command(i) for i in range(5)]
    runs = {
        0: (0, _matrix_output(exact)),
        1: (3, _matrix_output(exact)),     # non-zero exit only
        2: (0, _matrix_output(off)),       # off-reference output only
        3: (1, _matrix_output(off)),       # both: still one failed command
        4: (0, "not json"),
    }
    outcomes = References().check_pass(commands, runs)
    assert [o.ok for o in outcomes] == [True, False, False, False, False]
    assert failure_counts(outcomes) == (5, 4)


def test_ref_digits_min_on_known_deviation():
    exact = sinh_matrix(5).entries
    off = exact.copy()
    off[1, 0] -= 1e-6
    commands = [_sinh_command(0), _sinh_command(1)]
    outcomes = References().check_pass(
        commands, {0: (0, _matrix_output(exact)), 1: (0, _matrix_output(off))})
    assert ref_digits_min(outcomes) == pytest.approx(6.0, abs=1e-6)
    assert correct_digits(0.0) == 17.0
    assert correct_digits(1e-3) == pytest.approx(3.0)
    assert correct_digits(float("nan")) == -17.0


def test_x_check_needs_a_p_output_at_the_same_q():
    x = Command(cid=0, kind="matelem", q=2, op="x", argv=("matelem",))
    outcome, = References().check_pass([x], {0: (0, _matrix_output(sinh_matrix(5).entries))})
    assert not outcome.ok
    assert "no parseable p output" in outcome.detail


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fixed_seed_gives_identical_command_list(workload):
    assert build_commands(workload, 7) == build_commands(workload, 7)
    other = build_commands(workload, 8)
    key = lambda c: (c.kind, c.q, c.op, c.model)
    assert sorted(map(key, other)) == sorted(map(key, build_commands(workload, 7)))
    for cmd in other:
        if cmd.lam is not None:
            assert LAMBDA_RANGE[0] <= cmd.lam <= LAMBDA_RANGE[1]
            assert repr(cmd.lam) in cmd.args


def test_deep_wells_get_more_panels_and_known_defects_keep_the_default():
    for workload in ("oracle-deep", "verify-sweep"):
        for cmd in build_commands(workload, 3):
            assert ORACLE_PANELS[0] in cmd.args
        probes = known_defects(workload)
        assert probes and all(ORACLE_PANELS[0] not in c.args for c in probes)
    assert known_defects("vibron-spectra") == []


def test_traced_child_records_spans(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(out), "4", "--",
         "matelem", "--q", "2", "--op", "sinh", "--method", "oracle", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["rows"]) == 4
    tree = SpanTree(json.loads(out.read_text()))
    names = {s.name for s in tree.spans}
    assert {"import.mptsu2.cli", "cli.main", "oracle.observable_matrix",
            "specfun.integrate", "states.wavefunction"} <= names
    assert all(s.cmd == 4 for s in tree.spans)
    main_span, = [s for s in tree.spans if s.name == "cli.main"]
    assert main_span.parent == -1
    m = layer_metrics(tree)
    assert m["specfun.integrate.nodes"] > 0
    assert math.isclose(m["oracle.cache_hit_ratio"], 0.0)


def test_runs_stop_on_whole_units():
    from run import finished

    assert not finished(0, 1, 99.0, 30.0)
    assert not finished(3, 2, 99.0, 30.0)       # mid-pair: never stop
    assert not finished(2, 1, 26.0, 30.0)       # a third pass ends at 39 s
    assert finished(3, 1, 39.0, 30.0)
    assert finished(2, 2, 28.0, 30.0)           # another pair would end at 56 s


def test_verify_rows_fail_the_command_and_feed_digits():
    from references import VERIFY_REFERENCE_ROWS

    rows = [{"check": name, "measured": 1e-12, "tolerance": tol, "status": "pass"}
            for name, tol in VERIFY_REFERENCE_ROWS.items()]
    failing = rows + [{"check": "node count equals n", "measured": 1.0,
                       "tolerance": 0.0, "status": "fail"}]
    cmd = lambda cid: Command(cid=cid, kind="verify", q=10, argv=("verify",))
    outcomes = References().check_pass(
        [cmd(0), cmd(1), cmd(2)],
        {0: (0, json.dumps({"rows": rows})), 1: (1, json.dumps({"rows": failing})),
         2: (0, json.dumps({"rows": rows[1:]}))})
    assert [o.ok for o in outcomes] == [True, False, False]
    assert "missing rows: Gram matrix = identity" in outcomes[2].detail
    assert ref_digits_min(outcomes[:1]) == pytest.approx(12.0)


def test_spawner_reports_exit_output_and_rss():
    import spawner

    result = spawner.run([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"])
    assert result["exit_code"] == 3
    assert result["stdout"] == "hi\n"
    assert result["seconds"] > 0.0
    assert result["peak_rss_mb"] > 1.0
