"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criterion 8 contains a sub-check (the extended
mixing-weight model beating the crude one on low-polyad eigenvalues).  It
failed while the extended model was built from the first-order mixing
weights, which keep only the leading arcsinh/sech term and so get the 1/nu
corrections of the boson elements wrong: they overshoot the x/p boson
elements about twice as far as the bare ladder matrices undershoot them.
The extended model is now built from two-channel weights that are right to
order 1/nu, and the sub-check passes as stated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import mptsu2
from mptsu2.expansion import (
    boson_map_weights,
    interaction_frequency,
    momentum_matrix_expansion,
    position_matrix_expansion,
)
from mptsu2.ladder import (
    apply_lowering,
    apply_raising,
    build_su2_matrices,
    casimir,
    cosh_ddx_matrix,
    lowering_coefficient,
    normalization_chain,
    raising_coefficient,
    sinh_matrix,
)
from mptsu2.oracle import (
    COSH_DDX_OVER_ALPHA,
    IDENTITY,
    POSITION_X,
    SINH_ALPHA_X,
    observable_matrix,
)
from mptsu2.states import PotentialSpec, energy, wavefunction, well_numbers
from mptsu2.vibron import (
    VibronParams,
    approx_interaction,
    compare_models,
    pair_basis,
    polyad_operator,
    su2_hamiltonian,
)


def _report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}]: {text}")


def test_criterion_1_su2_algebra():
    worst_comm = 0.0
    worst_casimir = 0.0
    for nu in range(3, 43, 2):
        triple = build_su2_matrices(nu)
        p, m, z = triple.plus.entries, triple.minus.entries, triple.zero.entries
        worst_comm = max(
            worst_comm,
            np.max(np.abs(p @ m - m @ p - 2 * z)),
            np.max(np.abs(z @ m - m @ z + m)),
            np.max(np.abs(z @ p - p @ z - p)),
        )
        j = triple.j
        worst_casimir = max(worst_casimir, np.max(np.abs(
            casimir(triple).entries - j * (j + 1) * np.eye(nu))))
    ok = worst_comm <= 1e-12 and worst_casimir <= 1e-12
    _report(1, ok, f"commutators {worst_comm:.2e}, Casimir {worst_casimir:.2e} "
                   "(tol 1e-12, nu = 3..41)")
    assert ok


def test_criterion_2_spectrum_identity():
    worst = 0.0
    for q in range(1, 21):
        spec = PotentialSpec.for_integer_q(q)
        nu = 2 * q + 1
        omega = spec.hbar * spec.alpha ** 2 * nu / (2.0 * spec.mu)
        projections = np.diag(build_su2_matrices(nu).zero.entries)[:q]
        for n in range(q):
            algebraic = -(spec.hbar * omega / nu) * projections[n] ** 2
            reference = energy(spec, n)
            worst = max(worst, abs(algebraic - reference) / abs(reference))
    ok = worst <= 5e-15
    _report(2, ok, f"algebraic vs direct energies, worst relative {worst:.2e} "
                   "(machine precision, q = 1..20)")
    assert ok


def test_criterion_3_ladder_action():
    grid = np.linspace(-6.0, 6.0, 241)
    worst_action = 0.0
    worst_edge = 0.0
    for q in (2, 3, 5):
        spec = PotentialSpec.for_integer_q(q)
        wn = well_numbers(spec)
        nu = int(wn.nu)
        for n in range(wn.n_max + 1):
            down = apply_lowering(spec, n, grid)
            target = (lowering_coefficient(nu, n) * wavefunction(spec, n - 1, grid)
                      if n > 0 else np.zeros_like(grid))
            worst_action = max(worst_action, np.max(np.abs(down - target)))
            if n < wn.n_max:
                up = apply_raising(spec, n, grid)
                worst_action = max(worst_action, np.max(np.abs(
                    up - raising_coefficient(nu, n) * wavefunction(spec, n + 1, grid))))
        worst_edge = max(worst_edge, np.max(np.abs(
            apply_raising(spec, wn.n_max, grid))))
    ok = worst_action <= 1e-8 and worst_edge <= 1e-10
    _report(3, ok, f"ladder action {worst_action:.2e} (tol 1e-8), "
                   f"edge annihilation {worst_edge:.2e} (tol 1e-10)")
    assert ok


def test_criterion_4_closed_forms_vs_oracle():
    worst_match = 0.0
    worst_identity = 0.0
    for q in (2, 3, 5, 10):
        spec = PotentialSpec.for_integer_q(q)
        nu = 2 * q + 1
        s_closed = sinh_matrix(nu).entries
        m_closed = cosh_ddx_matrix(nu).entries
        worst_match = max(
            worst_match,
            np.max(np.abs(observable_matrix(spec, SINH_ALPHA_X).entries - s_closed)),
            np.max(np.abs(observable_matrix(spec, COSH_DDX_OVER_ALPHA).entries
                          - m_closed)),
        )
        worst_identity = max(worst_identity,
                             np.max(np.abs(m_closed + m_closed.T + s_closed)))
    ok = worst_match <= 1e-8 and worst_identity <= 1e-12
    _report(4, ok, f"closed vs oracle {worst_match:.2e} (tol 1e-8), "
                   f"M + M^T + S {worst_identity:.2e} (tol 1e-12)")
    assert ok


def test_criterion_5_normalization_and_chain():
    worst_gram = 0.0
    for q in range(2, 11):
        spec = PotentialSpec.for_integer_q(q)
        gram = observable_matrix(spec, IDENTITY).entries
        worst_gram = max(worst_gram, np.max(np.abs(gram - np.eye(gram.shape[0]))))
    worst_chain = 0.0
    for nu in range(5, 43, 2):
        for n in range((nu - 1) // 2):
            product = 1.0
            for k in range(n):
                product *= raising_coefficient(nu, k)
            worst_chain = max(worst_chain,
                              abs(normalization_chain(nu, n) * product - 1.0))
    ok = worst_gram <= 1e-9 and worst_chain <= 1e-12
    _report(5, ok, f"Gram identity {worst_gram:.2e} (tol 1e-9, q <= 10), "
                   f"raising-chain normalization {worst_chain:.2e} (tol 1e-12)")
    assert ok


def test_criterion_6_expansion_consistency():
    worst_first_order = 0.0
    for nu in (7, 21, 41):
        alpha = 1.0
        worst_first_order = max(
            worst_first_order,
            np.max(np.abs(position_matrix_expansion(nu, alpha, 1).entries
                          - sinh_matrix(nu).entries / alpha)),
            np.max(np.abs(momentum_matrix_expansion(nu, alpha, 1).entries
                          - alpha * cosh_ddx_matrix(nu).entries)),
        )
    monotone = True
    for nu in (21, 41):
        spec = PotentialSpec.for_integer_q((nu - 1) // 2)
        x_oracle = observable_matrix(spec, POSITION_X).entries
        sub = np.s_[:3, :3]
        devs = [np.max(np.abs(position_matrix_expansion(nu, 1.0, order).entries[sub]
                              - x_oracle[sub]))
                for order in (1, 3, 5)]
        monotone = monotone and devs[1] <= devs[0] and devs[2] <= devs[1]
    ok = worst_first_order <= 1e-12 and monotone
    _report(6, ok, f"order-1 identities {worst_first_order:.2e} (tol 1e-12), "
                   f"x-series monotone toward oracle: {monotone}")
    assert ok


def test_criterion_7_harmonic_limits():
    nus = np.arange(21, 402, 20)
    direct_dev = [abs(boson_map_weights(int(nu), 0)[0] - 1.0) for nu in nus]
    cross_dev = [abs(boson_map_weights(int(nu), 0)[1]) for nu in nus]
    slope_direct = np.polyfit(np.log(nus), np.log(direct_dev), 1)[0]
    slope_cross = np.polyfit(np.log(nus), np.log(cross_dev), 1)[0]
    sizes = (100, 1000, 10000)
    coupling_dev = []
    for n_boson in sizes:
        vp = VibronParams(N=n_boson, omega0=1.0, lam=1.0)
        basis = pair_basis(3)
        h = su2_hamiltonian(vp, basis).entries
        i = basis.pairs.index((2, 0))
        j = basis.pairs.index((1, 1))
        coupling_dev.append(abs(h[i, j] - np.sqrt(2.0)))
    slope_coupling = np.polyfit(np.log(sizes), np.log(coupling_dev), 1)[0]
    ok = all(abs(s + 1.0) <= 0.1 for s in (slope_direct, slope_cross, slope_coupling))
    _report(7, ok, f"decay slopes: direct {slope_direct:.3f}, cross {slope_cross:.3f}, "
                   f"coupling {slope_coupling:.3f} (target -1 +/- 0.1)")
    assert ok


def test_criterion_8_vibron_comparison():
    spec3 = PotentialSpec.for_integer_q(3)
    report0 = compare_models(spec3, 0.0)
    coincide = max(max(d) for d in report0.deviations.values())
    clause_zero = coincide <= 1e-9

    spec10 = PotentialSpec.for_integer_q(10)
    report10 = compare_models(spec10, 0.02)
    crude_dev = report10.max_low_polyad_deviation["crude"]
    extended_dev = report10.max_low_polyad_deviation["zA-zB"]
    clause_extended = extended_dev < crude_dev

    omega = interaction_frequency(spec10)
    crude = approx_interaction(21, 0.02, omega, 1.0, "crude").entries
    poly = polyad_operator(pair_basis(10)).entries
    commutator = np.max(np.abs(crude @ poly - poly @ crude))
    clause_polyad = commutator <= 1e-12

    ok = clause_zero and clause_extended and clause_polyad
    _report(8, ok,
            f"lambda=0 coincidence {coincide:.2e} (tol 1e-9): "
            f"{'ok' if clause_zero else 'FAIL'}; "
            f"extended vs crude low-polyad deviation {extended_dev:.4f} vs "
            f"{crude_dev:.4f} (extended must be smaller): "
            f"{'ok' if clause_extended else 'FAIL'}; "
            f"polyad commutator {commutator:.2e} (tol 1e-12): "
            f"{'ok' if clause_polyad else 'FAIL'}")
    assert clause_zero and clause_polyad
    # The first-order mixing weights lost this by ~2x (0.0441 vs 0.0218):
    # their 1/nu corrections are wrong.  The extended model now uses weights
    # that match the x/p bosons to order 1/nu (consistent_boson_ops).
    assert clause_extended, (
        "extended (zA-zB) model does not beat the crude model on low-polyad "
        f"eigenvalues at q=10, lambda=0.02: {extended_dev:.4f} vs {crude_dev:.4f}")


def test_criterion_9_cli_contract(tmp_path):
    # The child imports the same package as this process, installed or not.
    src = str(Path(mptsu2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "mptsu2.cli", *argv],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout

    # Determinism: byte-identical reruns across separate processes.
    code_a, out_a = run("vibron", "--q", "3", "--lambda", "0.05",
                        "--model", "compare", "--format", "json")
    code_b, out_b = run("vibron", "--q", "3", "--lambda", "0.05",
                        "--model", "compare", "--format", "json")
    deterministic = code_a == code_b == 0 and out_a == out_b

    # JSON round-trip, field for field.
    _, spectrum_out = run("spectrum", "--q", "3", "--format", "json")
    payload = json.loads(spectrum_out)
    round_trip = json.loads(json.dumps(payload)) == payload

    # Exit-code table: 0 success, 1 verification failure, 2 usage, 3 internal.
    codes = (
        run("spectrum", "--q", "2")[0],
        run("verify", "--q", "10", "--suite", "states",
            "--oracle-order", "2", "--oracle-panels", "1")[0],
        run("matelem", "--q", "3", "--op", "x", "--method", "closed")[0],
        run("spectrum", "--q", "2", "--out", str(tmp_path / "missing" / "x.csv"))[0],
    )
    table_ok = codes == (0, 1, 2, 3)

    ok = deterministic and round_trip and table_ok
    _report(9, ok, f"deterministic: {deterministic}, json round-trip: {round_trip}, "
                   f"exit codes {codes} (want (0, 1, 2, 3))")
    assert ok
