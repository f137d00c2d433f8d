"""Reference checks for CLI outputs, computed independently of the CLI process.

Every command's output is compared with a reference built from the public
``mptsu2`` API (closed forms, exact identities, LAPACK eigenvalues) under the
tolerances the repository states.  A command fails when it exits non-zero,
its output does not parse, or it misses its reference; it counts once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from mptsu2.expansion import interaction_frequency
from mptsu2.ladder import cosh_ddx_matrix, sinh_matrix
from mptsu2.states import PotentialSpec, well_numbers
from mptsu2.vibron import (
    approx_interaction,
    diagonal_energies,
    exact_interaction,
    pair_basis,
    spectro_from_potential,
    su2_hamiltonian,
    vibron_params_from_spectro,
)

CLOSED_FORM_TOL = 1e-8   # closed form vs oracle, derivative antisymmetry
GRAM_TOL = 1e-9          # Gram matrix vs identity
SPECTRUM_TOL = 1e-9      # eigenvalues vs LAPACK on the rebuilt Hamiltonian
MAX_DIGITS = 17.0

# verify rows whose measured value is a deviation from an exact reference.
VERIFY_REFERENCE_ROWS = {
    "Gram matrix = identity": GRAM_TOL,
    "sinh closed form vs oracle": CLOSED_FORM_TOL,
    "cosh-derivative closed form vs oracle": CLOSED_FORM_TOL,
    "derivative matrix antisymmetry": CLOSED_FORM_TOL,
}

# What a malformed (but parseable) CLI output can raise while it is read.
OUTPUT_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)

COMPARE_COLUMNS = {"su2": "e_su2", "exact": "e_exact", "crude": "e_crude",
                   "zA-zB": "e_zazb"}


def correct_digits(deviation: float) -> float:
    """-log10 of a deviation, capped at double precision (17 digits).

    A non-finite deviation has no correct digits and scores -17.
    """
    if not math.isfinite(deviation):
        return -MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(max(deviation, 10.0 ** -MAX_DIGITS)))


@dataclass(frozen=True)
class Outcome:
    """Result of one command's checks; ``deviation`` is max|output - reference|."""

    cid: int
    exit_code: int
    ok: bool
    deviation: float | None
    tolerance: float | None
    detail: str

    @property
    def digits(self) -> float:
        return correct_digits(self.deviation)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _matrix(rows: list[dict]) -> np.ndarray:
    dim = math.isqrt(len(rows))
    if dim * dim != len(rows) or dim == 0:
        raise ValueError(f"{len(rows)} rows do not form a square matrix")
    m = np.full((dim, dim), np.nan)
    for r in rows:
        m[int(r["row"]), int(r["col"])] = float(r["value"])
    if np.isnan(m).any():
        raise ValueError("matrix has missing entries")
    return m


def _hamiltonian(q: int, model: str, lam: float, compare: bool) -> np.ndarray:
    """The CLI's Hamiltonian for one model, rebuilt from public assembly functions."""
    spec = PotentialSpec.for_integer_q(q)
    wn = well_numbers(spec)
    nu = int(round(wn.nu))
    basis = pair_basis(wn.n_max + 1)
    vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=lam,
                                    hbar=spec.hbar)
    su2 = su2_hamiltonian(vp, basis).entries
    if model == "su2" and not compare:
        return su2
    diag = diagonal_energies(spec, basis).entries
    if model == "su2":
        return diag + su2 - np.diag(np.diag(su2))
    if model == "exact":
        return diag + exact_interaction(spec, basis, lam).entries
    omega = interaction_frequency(spec)
    return diag + approx_interaction(nu, lam, omega, spec.hbar, model).entries


class References:
    """Reference checks; spectra are computed once per distinct command and reused."""

    def __init__(self) -> None:
        self._spectra: dict = {}

    def spectrum(self, q: int, model: str, lam: float, compare: bool) -> np.ndarray:
        key = (q, model, lam, compare)
        if key not in self._spectra:
            h = _hamiltonian(q, model, lam, compare)
            self._spectra[key] = np.linalg.eigvalsh(0.5 * (h + h.T))
        return self._spectra[key]

    def _matelem(self, cmd, payload: dict, p_by_q: dict) -> tuple[float, float]:
        m = _matrix(payload["rows"])
        nu = 2 * cmd.q + 1
        if cmd.op in ("sinh", "coshd"):
            ref = (sinh_matrix if cmd.op == "sinh" else cosh_ddx_matrix)(nu).entries
            if ref.shape != m.shape:
                raise ValueError(f"shape {m.shape} differs from closed form {ref.shape}")
            return _max_abs(m - ref), CLOSED_FORM_TOL
        if cmd.op == "p":
            return _max_abs(m + m.T), CLOSED_FORM_TOL
        # x by the commutator identity (E_n' - E_n) X = -(hbar^2 / mu) R.
        r = p_by_q.get(cmd.q)
        if r is None:
            raise ValueError("no parseable p output at the same q to pair with")
        if r.shape != m.shape:
            raise ValueError("x and p outputs differ in shape")
        well = payload["well"]
        scale = (well["alpha"] * well["hbar"]) ** 2 / (2.0 * well["mu"])
        energies = -scale * (well["q"] - np.arange(m.shape[0])) ** 2
        gaps = energies[:, None] - energies[None, :]
        return (_max_abs(gaps * m + well["hbar"] ** 2 / well["mu"] * r),
                CLOSED_FORM_TOL)

    def _vibron(self, cmd, payload: dict) -> tuple[float, float]:
        rows = payload["rows"]
        if cmd.model == "compare":
            columns = COMPARE_COLUMNS
        else:
            columns = {cmd.model: "eigenvalue"}
        dev = 0.0
        for model, column in columns.items():
            # Near-degenerate levels are listed in basis order, not ascending,
            # so the spectrum is compared as a sorted set.
            values = np.sort([float(r[column]) for r in rows])
            ref = self.spectrum(cmd.q, model, cmd.lam, cmd.model == "compare")
            if values.shape != ref.shape:
                raise ValueError(f"{model}: {values.size} eigenvalues, expected {ref.size}")
            dev = max(dev, _max_abs(values - ref))
        return dev, SPECTRUM_TOL

    @staticmethod
    def _verify(payload: dict) -> tuple[float | None, list[str]]:
        misses = []
        dev = None
        names = {r["check"] for r in payload["rows"]}
        missing = sorted(set(VERIFY_REFERENCE_ROWS) - names)
        if missing:
            misses.append(f"missing rows: {', '.join(missing)}")
        for r in payload["rows"]:
            if r["status"] == "fail":
                misses.append(f"row failed: {r['check']}")
            tol = VERIFY_REFERENCE_ROWS.get(r["check"])
            if tol is not None:
                measured = float(r["measured"])
                dev = measured if dev is None else max(dev, measured)
                if not measured <= tol:
                    misses.append(f"{r['check']} = {measured:.3g} > {tol:g}")
        return dev, misses

    def check_pass(self, commands, runs: dict) -> list[Outcome]:
        """Check one pass: ``runs`` maps command id to (exit code, stdout text)."""
        payloads: dict = {}
        parse_errors: dict = {}
        for cmd in commands:
            try:
                payloads[cmd.cid] = json.loads(runs[cmd.cid][1])
            except ValueError as exc:
                parse_errors[cmd.cid] = f"output does not parse: {exc}"
        p_by_q = {}
        for cmd in commands:
            if cmd.kind == "matelem" and cmd.op == "p" and cmd.cid in payloads:
                try:
                    p_by_q[cmd.q] = _matrix(payloads[cmd.cid]["rows"])
                except OUTPUT_ERRORS:
                    pass
        outcomes = []
        for cmd in commands:
            code = runs[cmd.cid][0]
            problems = [] if code == 0 else [f"exit code {code}"]
            dev = tol = None
            if cmd.cid in parse_errors:
                problems.append(parse_errors[cmd.cid])
            else:
                payload = payloads[cmd.cid]
                try:
                    if cmd.kind == "matelem":
                        dev, tol = self._matelem(cmd, payload, p_by_q)
                    elif cmd.kind == "vibron":
                        dev, tol = self._vibron(cmd, payload)
                    else:
                        dev, misses = self._verify(payload)
                        problems.extend(misses)
                except OUTPUT_ERRORS as exc:
                    problems.append(f"unusable output: {exc!r}")
                if tol is not None and not dev <= tol:
                    problems.append(f"deviation {dev:.3g} > {tol:g}")
            outcomes.append(Outcome(cmd.cid, code, not problems, dev, tol,
                                    "; ".join(problems) or "ok"))
        return outcomes


def failure_counts(outcomes: list[Outcome]) -> tuple[int, int]:
    """(attempted, failed) over a list of outcomes; each command counts once."""
    return len(outcomes), sum(not o.ok for o in outcomes)


def ref_digits_min(outcomes: list[Outcome]) -> float:
    """Fewest correct digits over every reference-checked output."""
    digits = [correct_digits(o.deviation) for o in outcomes
              if o.deviation is not None]
    return min(digits, default=0.0)
