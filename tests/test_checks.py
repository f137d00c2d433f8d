"""The vibron suite's structure rows: bounds read from the n x n factors.

Each row must be at least the elementwise defect of the matrix that
``PairModel.operator`` forms, so that a bound never passes what a dense scan
of the same entries would fail.  Also how the states suite evaluates levels.
"""

import json
import math

import numpy as np
import pytest

from mptsu2 import checks, cli
from mptsu2.checks import (
    _exchange_bound,
    _polyad_bound,
    _symmetry_bound,
    states_checks,
    vibron_checks,
)
from mptsu2.states import PotentialSpec, wavefunction
from mptsu2.vibron import PairModel, coupling

WELLS = [((q,), {}) for q in (3, 10, 17, 30)] + [((10,), dict(alpha=0.7, mu=1.9, hbar=1.3))]
LAMBDAS = [0.05, 0.037, -0.021]


def dense_defects(form):
    """max |H - H^T|, max |H - H swapped| and max |[H, P]| of the dense matrix."""
    h = form.operator().entries
    n = form.n
    swapped = h.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    polyad = np.add.outer(np.arange(n), np.arange(n)).ravel().astype(float)
    return {"symmetry": np.abs(h - h.T).max(),
            "exchange": np.abs(h - swapped).max(),
            "polyad": np.abs(np.subtract.outer(polyad, polyad) * h).max()}


def bounds(form):
    return {"symmetry": _symmetry_bound(form), "exchange": _exchange_bound(form),
            "polyad": _polyad_bound(form)}


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


@pytest.fixture(scope="module", params=WELLS, ids=lambda w: "-".join(
    [str(w[0][0])] + [f"{k}{v}" for k, v in w[1].items()]))
def well(request):
    args, kwargs = request.param
    return PotentialSpec.for_integer_q(*args, **kwargs)


class TestCouplingBounds:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("model", ["exact", "crude", "zA-zB"])
    def test_each_row_is_at_least_the_dense_defect(self, well, model, lam):
        form = coupling(well, model, lam)
        found, dense = bounds(form), dense_defects(form)
        for row in found:
            assert found[row] >= dense[row], row

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_polyad_and_exchange_rows_are_exactly_zero(self, well, lam):
        assert _polyad_bound(coupling(well, "crude", lam)) == 0.0
        for model in ("exact", "crude", "zA-zB"):
            assert _exchange_bound(coupling(well, model, lam)) == 0.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_exact_symmetry_row_is_near_the_dense_defect(self, well, lam):
        exact = coupling(well, "exact", lam)
        dense = dense_defects(exact)["symmetry"]
        assert _symmetry_bound(exact) <= max(2.0 * dense, 1e-14)

    def test_three_swap_invariant_terms_round_apart(self):
        # The swap maps the list onto itself, but a swapped entry sums
        # A (x) B and B (x) A around C (x) C in the other order, which rounds
        # differently: only a list of at most two terms is exactly invariant.
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 6, 6))
        form = PairModel(((1.0, a, b), (1.0, c, c), (1.0, b, a)), 0.3)
        dense = dense_defects(form)["exchange"]
        assert 0.0 < dense < 1e-14
        assert _exchange_bound(form) >= dense
        assert _exchange_bound(PairModel(((1.0, a, b), (1.0, b, a)), 0.3)) == 0.0

    def test_rows_are_the_bounds(self, well):
        rows = {r.name: r.measured for r in vibron_checks(well, 0.037)}
        assert rows["exact interaction is symmetric"] == _symmetry_bound(
            coupling(well, "exact", 0.037))
        assert rows["crude interaction commutes with polyad"] == 0.0
        assert rows["models invariant under oscillator exchange"] == 0.0


class TestPlantedDefects:
    """A planted term is caught (its row fails) and still bounded by its row."""

    Q10 = PotentialSpec.for_integer_q(10)

    def planted(self, model, size, a, b):
        """The model's coupling at lambda = 0.037 plus size * a (x) b."""
        base = coupling(self.Q10, model, 0.037)
        return PairModel(base.terms + ((size / base.scale, a, b),), base.scale)

    @pytest.mark.parametrize("i, j, k, l", [(0, 1, 0, 1), (9, 8, 0, 1), (3, 3, 2, 7)])
    def test_asymmetric_term(self, i, j, k, l):
        form = self.planted("exact", 2e-9, unit(10, i, j), unit(10, k, l))
        dense = dense_defects(form)["symmetry"]
        assert dense > 1e-10
        assert _symmetry_bound(form) >= dense

    @pytest.mark.parametrize("model", ["exact", "crude"])
    def test_term_not_invariant_under_swap(self, model):
        form = self.planted(model, 2e-9, unit(10, 0, 1), unit(10, 2, 3))
        dense = dense_defects(form)["exchange"]
        assert dense > 1e-10
        assert _exchange_bound(form) >= dense
        single = PairModel(((2e-9, unit(10, 0, 1), unit(10, 2, 3)),))
        assert _exchange_bound(single) >= dense_defects(single)["exchange"] > 1e-10

    @pytest.mark.parametrize("i, j, k, l", [(1, 0, 1, 0), (0, 2, 3, 3), (5, 4, 6, 4)])
    def test_polyad_breaking_term(self, i, j, k, l):
        form = self.planted("crude", 1e-9, unit(10, i, j), unit(10, k, l))
        dense = dense_defects(form)["polyad"]
        assert dense > 1e-12
        assert _polyad_bound(form) >= dense


class TestOverflow:
    """An entry that overflows makes its rows read inf and fail; none reads 0."""

    def test_symmetry_and_exchange_read_inf(self):
        a = np.zeros((30, 30))
        a[0, 1] = a[1, 0] = 1.0
        a[28, 29] = a[29, 28] = 1e200
        form = PairModel(((1.0, a, a),))
        with np.errstate(over="ignore"):
            assert np.isinf(form.operator().entries).any()
        assert _symmetry_bound(form) == math.inf
        assert _exchange_bound(form) == math.inf

    def test_verify_fails_the_overflowing_rows(self, capsys):
        code = cli.main(["verify", "--q", "30", "--suite", "vibron", "--lambda", "1e305",
                         "--format", "json"])
        rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert code == 1
        for name in ("exact interaction is symmetric",
                     "models invariant under oscillator exchange"):
            assert rows[name]["measured"] == math.inf and rows[name]["status"] == "fail"
        polyad = rows["crude interaction commutes with polyad"]
        assert polyad["measured"] == 0.0 and polyad["status"] == "pass"


class TestStatesSuite:
    def test_parity_row_takes_every_level_in_one_call_per_half_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(checks, "wavefunction", lambda spec, n, x: calls.append(
            (np.shape(n), len(x))) or wavefunction(spec, n, x))
        states_checks(PotentialSpec.for_integer_q(30))
        assert calls.count(((30, 1), 241)) == 2
        assert calls.count(((), 4801)) == 30  # the node row: one level a call
        assert len(calls) == 32
