"""The vibron suite's structure rows, read from the n x n factors.

The polyad row is a bound that must be at least the elementwise defect of
the matrix that ``PairModel.operator`` forms, so that it never passes what a
dense scan of the same entries would fail.  The symmetry and exchange rows
report what ``PairModel`` guarantees by construction: each dense defect is
exactly 0, and a factor that would break it is refused when the model is
built.  Also how the states suite evaluates levels.
"""

import json
import math

import numpy as np
import pytest

from mptsu2 import checks, cli
from mptsu2.checks import states_checks, vibron_checks
from mptsu2.errors import DomainError
from mptsu2.pairs import PairModel, _polyad_bound
from mptsu2.states import PotentialSpec, _ladder, wavefunction
from mptsu2.vibron import coupling

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


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def with_product(form, w, a):
    """``form`` plus the self-product w a (x) a, built anew through ``PairModel``."""
    exchange = next((b for _, b, c in form.terms if b is not c), None)
    products = tuple((v, b) for v, b, c in form.terms if b is c)
    return PairModel(exchange, products + ((w, a),), form.scale)


@pytest.fixture(scope="module", params=WELLS, ids=lambda w: "-".join(
    [str(w[0][0])] + [f"{k}{v}" for k, v in w[1].items()]))
def well(request):
    args, kwargs = request.param
    return PotentialSpec.for_integer_q(*args, **kwargs)


class TestCouplingBounds:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("model", ["exact", "crude", "zA-zB"])
    def test_each_row_is_at_least_the_dense_defect(self, well, model, lam):
        # The polyad row bounds its defect; the symmetry and exchange defects
        # are 0 by construction, as their rows read.
        form = coupling(well, model, lam)
        dense = dense_defects(form)
        assert _polyad_bound(form) >= dense["polyad"]
        assert dense["symmetry"] == dense["exchange"] == 0.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_polyad_and_exchange_rows_are_exactly_zero(self, well, lam):
        assert _polyad_bound(coupling(well, "crude", lam)) == 0.0
        rows = {r.name: r.measured for r in vibron_checks(well, lam)}
        assert rows["models invariant under oscillator exchange"] == 0.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_exact_symmetry_row_is_near_the_dense_defect(self, well, lam):
        # The row reads the construction invariant, and the dense defect of
        # the matrix as computed is exactly that.
        exact = coupling(well, "exact", lam)
        assert checks._by_construction(exact) == dense_defects(exact)["symmetry"] == 0.0

    def test_many_terms_stay_exactly_swap_invariant(self):
        # Past its first two terms a sum rounds by its order, so A (x) B,
        # C (x) C, B (x) A once rounded apart under the swap.  Every term
        # after the exchange pair maps onto itself, so any number of them
        # keeps H symmetric and swap-invariant bit for bit.
        rng = np.random.default_rng(5)
        c, a, b, e = rng.normal(size=(4, 6, 6))
        form = PairModel(c, ((1.0, a + a.T), (0.7, b - b.T), (-1.3, e + e.T)), 0.3)
        assert len(form.terms) == 5
        dense = dense_defects(form)
        assert dense["symmetry"] == dense["exchange"] == 0.0
        assert checks._by_construction(form) == 0.0

    def test_rows_are_the_bounds(self, well):
        rows = {r.name: r.measured for r in vibron_checks(well, 0.037)}
        unit = (well.alpha * well.hbar) ** 2 / well.mu  # the rows' unit, 1.0 at unit scales
        assert rows["crude interaction commutes with polyad"] == _polyad_bound(
            coupling(well, "crude", 0.037)) / unit == 0.0
        assert rows["exact interaction is symmetric"] == 0.0
        assert rows["models invariant under oscillator exchange"] == 0.0


class TestPlantedDefects:
    """A planted factor is refused, or caught (its row fails) and still bounded by its row."""

    Q10 = PotentialSpec.for_integer_q(10)

    def planted(self, model, size, a):
        """The model's coupling at lambda = 0.037 plus size * a (x) a."""
        base = coupling(self.Q10, model, 0.037)
        return with_product(base, size / base.scale, a)

    @pytest.mark.parametrize("i, j, k, l", [(0, 1, 0, 1), (9, 8, 0, 1), (3, 3, 2, 7)])
    def test_asymmetric_term(self, i, j, k, l):
        # E_ij (i != j) equals neither its transpose nor its negative.
        for p, r in {(i, j), (k, l)}:
            if p != r:
                with pytest.raises(DomainError, match="transpose"):
                    self.planted("exact", 2e-9, unit(10, p, r))

    @pytest.mark.parametrize("i, j, k, l", [(1, 0, 1, 0), (0, 2, 3, 3), (5, 4, 6, 4)])
    def test_polyad_breaking_term(self, i, j, k, l):
        # A = E_ij + E_ji + E_kl + E_lk is symmetric, and A (x) A moves the
        # polyad by the sum of two of its offsets +-(i - j), +-(k - l).
        a = unit(10, i, j) + unit(10, j, i) + unit(10, k, l) + unit(10, l, k)
        form = self.planted("crude", 1e-9, a)
        dense = dense_defects(form)["polyad"]
        assert dense > 1e-12
        assert _polyad_bound(form) >= dense

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("model", ["exact", "crude"])
    def test_planted_self_product_keeps_both_symmetries(self, model, sign):
        # A generic A = +-A^T changes H, but A (x) A maps onto itself under
        # the transpose and the swap, so both dense defects stay exactly 0.
        m = np.random.default_rng(7).normal(size=(10, 10))
        form = self.planted(model, 2e-9, m + sign * m.T)
        base = coupling(self.Q10, model, 0.037).operator().entries
        assert not np.array_equal(form.operator().entries, base)
        dense = dense_defects(form)
        assert dense["symmetry"] == dense["exchange"] == 0.0


class TestOverflow:
    """An entry that overflows makes its rows read inf and fail; none reads 0."""

    def test_symmetry_and_exchange_read_inf(self):
        a = np.zeros((30, 30))
        a[0, 1] = a[1, 0] = 1.0
        a[28, 29] = a[29, 28] = 1e200
        form = PairModel(products=((1.0, a),))
        with np.errstate(over="ignore"):
            assert np.isinf(form.operator().entries).any()
        assert checks._by_construction(form) == math.inf
        assert checks._by_construction(PairModel(products=((1.0, a * 1e-200),)), form) == math.inf

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
        calls, shapes = [], []
        monkeypatch.setattr(checks, "wavefunction", lambda spec, n, x: calls.append(
            (np.shape(n), len(x))) or wavefunction(spec, n, x))

        def ladder(spec, x, top):
            calls.append(("ladder", top, len(x)))
            for values in _ladder(spec, x, top):
                shapes.append(values.shape)
                yield values

        monkeypatch.setattr(checks, "_ladder", ladder)
        states_checks(PotentialSpec.for_integer_q(30))
        assert calls.count(((30, 1), 241)) == 2
        assert calls.count(("ladder", 29, 4801)) == 1  # the node row: one recurrence,
        assert shapes == [(4801,)] * 30  # its levels one at a time
        assert len(calls) == 3

    def test_node_row_resolves_the_top_levels_at_depth(self):
        # 4801 points on +-12 / alpha put about two points on a node spacing
        # of the top levels at q = 1000, where the row read 304.
        rows = {r.name: r for r in states_checks(PotentialSpec.for_integer_q(1000))}
        assert rows["node count equals n"].measured == 0.0


def planted(matrix, size, i=0, j=1):
    """An object whose entries are ``matrix``'s plus size * max|entries| at (i, j)."""
    m = np.array(matrix.entries)
    m[i, j] += size * np.abs(m).max()
    return type("Planted", (), {"entries": m})


def at_order(order, i, j):
    """Wraps a series builder to plant a 1e-9 defect in its matrix of one order."""
    return lambda f: lambda nu, alpha, o=1: (
        planted(f(nu, alpha, o), 1e-9, i, j) if o == order else f(nu, alpha, o))


def coupling_plus(model, a):
    """Wraps ``coupling`` to add a (x) a to one model, 1e-9 of its first term's size."""
    def wrap(f):
        def coupling(spec, name, lam, cfg):
            form = f(spec, name, lam, cfg)
            if name != model:
                return form
            big = max(np.abs(x).max() for x in form.terms[0][1:])
            return with_product(form, 1e-9 * big * big, a)
        return coupling
    return wrap


def spectra_apart(f):
    """Wraps ``compare_models`` to move one crude level 1e-9 max|E| off the exact one."""
    def compare_models(spec, lam, cfg):
        report = f(spec, lam, cfg)
        size = 1e-9 * max(abs(e) for e in report.eigenvalues["exact"])
        crude = report.deviations["crude"]
        return report._replace(deviations={**report.deviations, "crude": (size, *crude[1:])})
    return compare_models


def wiggle(f):
    """Wraps ``_ladder`` to add an alternating 1e-9 max|psi| to each level's values."""
    def ladder(spec, x, top):
        for v in f(spec, x, top):
            yield v + 1e-9 * np.abs(v).max() * (-1.0) ** np.arange(np.shape(v)[-1])
    return ladder


class TestUnitFreeRows:
    """Each row is read in the scale that is exactly 1.0 at alpha = hbar = mu = 1.

    R and momentum rows in units of alpha, x rows in units of 1 / alpha, the
    vibron rows in units of (alpha hbar)^2 / mu, and the node count ignores
    |psi| below 1e-12 sqrt(alpha); read as absolute values, these scalings
    failed rows on rounding alone.  Deep multiplets failed the commutator
    and Casimir rows the same way; they are in units of j(j+1).
    """

    SCALES = [dict(alpha=1e3), dict(alpha=1024.0, hbar=0.25, mu=8.0), dict(hbar=1e3),
              dict(alpha=1e-5), dict(alpha=1e-30), dict(alpha=1e100)]
    ALGEBRA_ROWS = ["commutator [P+,P-] = 2 P0", "commutator [P0,P-] = -P-",
                    "commutator [P0,P+] = +P+", "Casimir = j(j+1) I"]
    # Each rescaled row, the name in ``checks`` that feeds it and a wrapper
    # of that name that plants a defect of relative size 1e-9 (1e-8 for the
    # antisymmetry row, whose tolerance is 1e-8).  The symmetry and exchange
    # rows have none: no model that breaks them can be built.
    PLANTS = {
        "derivative matrix antisymmetry":
            ("derivative_matrix", lambda f: lambda spec, cfg: planted(f(spec, cfg), 1e-8)),
        "momentum expansion order 1 equals alpha cosh-derivative matrix":
            ("momentum_matrix_expansion", at_order(1, 0, 1)),
        "x expansion order 1 equals sinh matrix / alpha":
            ("position_matrix_expansion", at_order(1, 0, 1)),
        "x expansion connects opposite parity only":
            ("position_matrix_expansion", at_order(5, 0, 0)),
        "node count equals n": ("_ladder", wiggle),
        "all model spectra coincide at lambda = 0": ("compare_models", spectra_apart),
        "crude interaction commutes with polyad":
            ("coupling", coupling_plus("crude", unit(10, 1, 0) + unit(10, 0, 1))),
    }

    @pytest.mark.parametrize("model", ["exact", "crude", "zA-zB"])
    def test_planted_asymmetric_factor_is_refused_at_any_scale(self, monkeypatch, model):
        # The factor E_01 that once planted a defect in the symmetry and
        # exchange rows is refused when the coupling is built.
        monkeypatch.setattr(checks, "coupling",
                            coupling_plus(model, unit(10, 0, 1))(checks.coupling))
        for alpha in (1.0, 1e3):
            with pytest.raises(DomainError, match="transpose"):
                checks.suite_for("all", PotentialSpec.for_integer_q(10, alpha=alpha), None, 0.037)

    @pytest.mark.parametrize("q", [10, 30])
    @pytest.mark.parametrize("scale", SCALES, ids=lambda d: "-".join(
        f"{k}{v:g}" for k, v in d.items()))
    def test_full_suite_passes_at_every_scale(self, capsys, q, scale):
        flags = [a for k, v in scale.items() for a in (f"--{k}", repr(v))]
        code = cli.main(["verify", "--q", str(q), "--suite", "all", *flags])
        out = capsys.readouterr().out
        assert code == 0, [line for line in out.splitlines() if line.endswith(",fail")]

    @pytest.mark.parametrize("alpha", [1e100, 1e-100])
    def test_full_suite_passes_at_extreme_alpha(self, capsys, alpha):
        # The exact coupling once squared the interaction frequency, alpha^4.
        assert cli.main(["verify", "--q", "10", "--suite", "all", "--alpha", repr(alpha)]) == 0
        assert ",fail" not in capsys.readouterr().out

    @pytest.mark.parametrize("q", [3, 10, 30, 61, 64, 80, 120, 150, 300])
    def test_full_suite_passes_at_every_depth(self, capsys, q):
        code = cli.main(["verify", "--q", str(q), "--suite", "all", "--format", "json"])
        rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert code == 0, [name for name, r in rows.items() if r["status"] == "fail"]
        assert rows["exact interaction is symmetric"]["measured"] == 0.0

    @pytest.mark.parametrize("nu", [11, 301])
    @pytest.mark.parametrize("row", ALGEBRA_ROWS)
    def test_planted_algebra_defect_fails_at_any_depth(self, monkeypatch, row, nu):
        # Each compared product moves by 2e-12 j(j+1) at (0, 0).
        j = (nu - 1) / 2

        def moved(m):
            m = np.array(m)
            m[0, 0] += 2e-12 * j * (j + 1)
            return m

        bracket, casimir = checks._bracket, checks.casimir
        monkeypatch.setattr(checks, "_bracket", lambda a, b: moved(bracket(a, b)))
        monkeypatch.setattr(checks, "casimir", lambda t: type(
            "Planted", (), {"entries": moved(casimir(t).entries)}))
        found = {r.name: r for r in checks.algebra_checks(nu)}[row]
        assert not found.passed
        assert found.measured == pytest.approx(2e-12, rel=1e-3)

    @pytest.mark.parametrize("alpha", [1.0, 1e100, 1e-100])
    def test_planted_energy_defect_fails_at_any_scale(self, monkeypatch, alpha):
        # Read in absolute terms, rounding alone would fail the row at
        # alpha = 1e100, and no defect could fail it at 1e-100.
        energy = checks.energy
        monkeypatch.setattr(checks, "energy", lambda spec, n: energy(spec, n) * (1.0 + 1e-14))
        rows = {r.name: r for r in states_checks(PotentialSpec.for_integer_q(30, alpha=alpha))}
        found = rows["energy equals -(alpha hbar)^2 eps^2 / 2 mu"]
        assert not found.passed
        assert found.measured == pytest.approx(1e-14, rel=0.05)

    @pytest.mark.parametrize("row", list(PLANTS))
    def test_planted_relative_defect_fails_at_any_scale(self, monkeypatch, row):
        target, wrap = self.PLANTS[row]
        monkeypatch.setattr(checks, target, wrap(getattr(checks, target)))
        measured = {}
        for alpha in (1.0, 1e3):
            rows = {r.name: r for r in checks.suite_for(
                "all", PotentialSpec.for_integer_q(10, alpha=alpha), None, 0.037)}
            assert not rows[row].passed, alpha
            measured[alpha] = rows[row].measured
        assert measured[1e3] == pytest.approx(measured[1.0], rel=1e-3)
