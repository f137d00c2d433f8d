"""Spectroscopic maps, coupled-oscillator models, and the blocked LAPACK spectrum solver."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mptsu2 import cli, oracle, vibron
from mptsu2.checks import suite_for, vibron_checks
from mptsu2.errors import DomainError
from mptsu2.expansion import boson_map_weights, interaction_frequency
from mptsu2.oracle import OracleConfig, derivative_matrix, position_from_derivative
from mptsu2.pairs import _magnitude, _slab_entries, _solve, _symmetric_blocks
from mptsu2.states import PotentialSpec, energy, well_numbers
from mptsu2.vibron import (
    PairModel,
    SpectroParams,
    VibronParams,
    approx_interaction,
    compare_models,
    coupled_model,
    diagonal_energies,
    exact_interaction,
    harmonic_model,
    pair_basis,
    polyad_operator,
    spectro_from_potential,
    spectro_from_vibron,
    spectrum,
    su2_hamiltonian,
    vibron_params_from_spectro,
)
from mptsu2.vibron import _boson_creation, _creation, _exact_coupling, _su2_model

Q3 = PotentialSpec.for_integer_q(3)


def block_values(model):
    """Ascending eigenvalues of the stacks gathered by the sector solver."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(stack).ravel()
                                   for _, stack in _symmetric_blocks(model)]), kind="stable")


def sector(h, rows, sign):
    """Exchange sector ``sign`` of the dense H over ``rows``.

    Its entries are (H[ab, cd] + sign H[ab, dc]) f_ab f_cd, with f = 1/sqrt(2)
    on a = b and 1 otherwise.
    """
    n = math.isqrt(h.shape[0])
    a, b = np.divmod(rows, n)
    f2 = np.where(a == b, 0.5, 1.0)
    e = h[rows[:, None], rows] + sign * h[rows[:, None], b * n + a]
    e *= np.sqrt(f2[:, None] * f2[None, :])
    return e


def sector_bytes(h, rows):
    """The bytes of each sector the dense H may have over ``rows``: +1 only if a pair has a = b.

    Without coupling either formula gives a single pair's diagonal entry h,
    as the solver reads it: (h + h) / 2 on a = b, and h +- 0.0 otherwise.
    """
    a, b = np.divmod(rows, math.isqrt(h.shape[0]))
    return [sector(h, rows, sign).tobytes() for sign in ([1] if (a == b).any() else [1, -1])]


def sector_members(n):
    """The pairs of both sectors of a model with n levels, a <= b and a < b, sorted together."""
    a, b = np.divmod(np.arange(n * n), n)
    return sorted(np.flatnonzero(a <= b).tolist() + np.flatnonzero(a < b).tolist())


def random_factor(rng, n, density, sign=None):
    """A random n x n factor, about ``density`` nonzero; ``sign`` times its transpose if given."""
    a = rng.normal(size=(n, n))
    keep = rng.random((n, n)) < density
    if sign is None:
        return np.where(keep, a, 0.0)
    keep = np.triu(keep)
    return np.where(keep | keep.T, a + sign * a.T, 0.0)


def tridiagonal(n):
    return np.diag(np.arange(1.0, n), 1) + np.diag(np.arange(1.0, n), -1)


def unit(n, i, j):
    """E_ij: 1 at (i, j), zeros elsewhere."""
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


class TestSpectroMaps:
    def test_q2_constants(self):
        sp = spectro_from_potential(PotentialSpec.for_integer_q(2))
        assert sp.omega_e == pytest.approx(2.5, abs=1e-13)
        assert sp.xe_omega_e == pytest.approx(0.5, abs=1e-13)

    def test_q3_constants(self):
        sp = spectro_from_potential(Q3)
        assert sp.omega_e == pytest.approx(3.5, abs=1e-13)
        assert sp.xe_omega_e == pytest.approx(0.5, abs=1e-13)

    def test_alpha_scaling(self):
        base = spectro_from_potential(Q3)
        scaled = spectro_from_potential(PotentialSpec.for_integer_q(3, alpha=2.0))
        assert scaled.omega_e == pytest.approx(4.0 * base.omega_e, rel=1e-13)
        assert scaled.xe_omega_e == pytest.approx(4.0 * base.xe_omega_e, rel=1e-13)

    def test_vibron_params_q2(self):
        vp = vibron_params_from_spectro(SpectroParams(2.5, 0.5))
        assert vp.N == 4
        assert vp.energy_quantum == pytest.approx(2.0, abs=1e-13)

    def test_vibron_params_q3(self):
        vp = vibron_params_from_spectro(SpectroParams(3.5, 0.5))
        assert vp.N == 6

    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_boson_number_identity(self, q):
        spec = PotentialSpec.for_integer_q(q)
        vp = vibron_params_from_spectro(spectro_from_potential(spec))
        assert vp.N == 2 * q

    def test_round_trip_is_identity(self):
        vp = VibronParams(N=6, omega0=3.0)
        back = vibron_params_from_spectro(spectro_from_vibron(vp))
        assert back.N == vp.N
        assert back.omega0 == pytest.approx(vp.omega0, rel=1e-14)

    def test_incompatible_ladder_rejected(self):
        with pytest.raises(DomainError, match="not su\\(2\\)-compatible"):
            vibron_params_from_spectro(SpectroParams(3.3, 0.5))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SpectroParams(-1.0, 0.5)
        with pytest.raises(DomainError):
            VibronParams(N=0, omega0=1.0)
        with pytest.raises(DomainError):
            VibronParams(N=4, omega0=-1.0)


class TestSu2Hamiltonian:
    def test_coupling_element(self):
        vp = VibronParams(N=4, omega0=2.0, lam=0.05)
        basis = pair_basis(2)
        h = su2_hamiltonian(vp, basis).entries
        i = basis.pairs.index((1, 0))
        j = basis.pairs.index((0, 1))
        assert h[i, j] == pytest.approx(0.05 * 2.0, abs=1e-14)

    def test_zero_coupling_is_diagonal(self):
        vp = VibronParams(N=6, omega0=3.0, lam=0.0)
        h = su2_hamiltonian(vp, pair_basis(3)).entries
        assert np.array_equal(h, np.diag(np.diag(h)))
        assert spectrum(_su2_model(vp, 3)) == sorted(np.diag(h))

    def test_harmonic_limit_of_coupling(self):
        vp = VibronParams(N=10 ** 6, omega0=1.0, lam=1.0)
        basis = pair_basis(2)
        h = su2_hamiltonian(vp, basis).entries
        i = basis.pairs.index((1, 0))
        j = basis.pairs.index((0, 1))
        assert abs(h[i, j] - 1.0) < 1e-5

    def test_one_over_n_convergence_rate(self):
        # Deviation of the (1,1) -> (2,0) element from its harmonic limit;
        # the (0,1) element carries no 1/N correction at all.
        deviations = []
        sizes = (100, 1000, 10000)
        for n_boson in sizes:
            vp = VibronParams(N=n_boson, omega0=1.0, lam=1.0)
            basis = pair_basis(3)
            h = su2_hamiltonian(vp, basis).entries
            i = basis.pairs.index((2, 0))
            j = basis.pairs.index((1, 1))
            deviations.append(abs(h[i, j] - math.sqrt(2.0)))
        slope = np.polyfit(np.log(sizes), np.log(deviations), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_basis_larger_than_bound_count_rejected(self):
        with pytest.raises(DomainError):
            su2_hamiltonian(VibronParams(N=4, omega0=1.0), pair_basis(3))

    @pytest.mark.parametrize("q", [3, 10, 20])
    def test_whole_matrix_matches_the_coupling_formula(self, q):
        # Every off-diagonal entry, element by element; entries outside the
        # one-step exchange pattern must be exact zeros, because the blocked
        # eigensolver splits the matrix on them.
        lam = 0.05
        vp = vibron_params_from_spectro(spectro_from_potential(
            PotentialSpec.for_integer_q(q)), lam=lam)
        basis = pair_basis(q)
        h = su2_hamiltonian(vp, basis).entries
        n_boson = vp.N
        for i, (a1, a2) in enumerate(basis.pairs):
            for j, (b1, b2) in enumerate(basis.pairs):
                if i == j:
                    continue
                if (b1, b2) == (a1 + 1, a2 - 1):
                    n1, n2 = a1, a2
                elif (a1, a2) == (b1 + 1, b2 - 1):
                    n1, n2 = b1, b2
                else:
                    assert h[i, j] == 0.0
                    continue
                expected = (lam * vp.energy_quantum * math.sqrt(n2 * (n1 + 1))
                            * math.sqrt((1.0 - (n2 - 1) / n_boson)
                                        * (1.0 - n1 / n_boson)))
                assert abs(h[i, j] - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("q", [3, 10, 15])
    def test_coupling_is_the_crude_interaction(self, q):
        # lam hbar omega0 / N = lam omega-tilde / nu, so the su(2) exchange
        # and the crude boson coupling are one matrix.
        spec = PotentialSpec.for_integer_q(q)
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=0.05)
        h = su2_hamiltonian(vp, pair_basis(q)).entries
        crude = approx_interaction(2 * q + 1, 0.05, interaction_frequency(spec),
                                   spec.hbar, "crude").entries
        scale = np.max(np.abs(crude))
        assert np.max(np.abs(h - np.diag(np.diag(h)) - crude)) <= 1e-14 * scale


class TestInteractions:
    def test_exact_is_symmetric(self):
        h = exact_interaction(Q3, pair_basis(3), 0.05).entries
        assert np.max(np.abs(h - h.T)) < 1e-10

    def test_exact_parity_selection(self):
        basis = pair_basis(3)
        h = exact_interaction(Q3, basis, 0.05).entries
        for i, (a1, a2) in enumerate(basis.pairs):
            for j, (b1, b2) in enumerate(basis.pairs):
                if (a1 + b1) % 2 == 0 or (a2 + b2) % 2 == 0:
                    assert h[i, j] == 0.0

    def test_exact_exchange_element_positive_and_near_harmonic_scale(self):
        basis = pair_basis(3)
        h = exact_interaction(Q3, basis, 0.05).entries
        i = basis.pairs.index((1, 0))
        j = basis.pairs.index((0, 1))
        scale = 0.05 * interaction_frequency(Q3)
        assert h[i, j] > 0.0
        # Within 15% of the harmonic-limit element lam hbar w sqrt(n2 (n1+1));
        # the mixing-weight estimate lam hbar w (z0^2 + zeta0^2) overshoots it
        # by ~40% (frozen from measurement).
        assert h[i, j] == pytest.approx(scale, rel=0.15)
        direct, cross = boson_map_weights(7, 0)
        assert h[i, j] / (scale * (direct ** 2 + cross ** 2)) == pytest.approx(
            0.584, abs=0.02)

    def test_exact_needs_matching_basis(self):
        with pytest.raises(DomainError):
            exact_interaction(Q3, pair_basis(2), 0.05)

    def test_crude_exchange_element(self):
        omega = interaction_frequency(Q3)
        h = approx_interaction(7, 0.05, omega, 1.0, "crude").entries
        basis = pair_basis(3)
        i = basis.pairs.index((1, 0))
        j = basis.pairs.index((0, 1))
        assert h[i, j] == pytest.approx(0.05 * omega * 6.0 / 7.0, abs=1e-12)

    def test_crude_preserves_polyad(self):
        omega = interaction_frequency(Q3)
        h = approx_interaction(7, 0.05, omega, 1.0, "crude").entries
        poly = polyad_operator(pair_basis(3)).entries
        assert np.max(np.abs(h @ poly - poly @ h)) < 1e-12

    def test_extended_level_breaks_polyad(self):
        omega = interaction_frequency(Q3)
        h = approx_interaction(7, 0.05, omega, 1.0, "zA-zB").entries
        poly = polyad_operator(pair_basis(3)).entries
        assert np.max(np.abs(h @ poly - poly @ h)) > 1e-3

    def test_zero_cross_weights_reduce_to_weighted_crude(self):
        # With the cross channel silenced, only direct-weight products dress
        # the crude exchange pattern and the polyad is conserved again.
        from mptsu2.expansion import boson_map_weights as weights
        from mptsu2.ladder import build_su2_matrices, project_physical
        nu = 7
        plus = project_physical(build_su2_matrices(nu)).plus.entries
        d = plus.shape[0]
        direct = np.array([weights(nu, n)[0] if n < d - 1 else 0.0 for n in range(d)])
        create = (plus @ np.diag(direct)) / math.sqrt(nu)
        omega = interaction_frequency(Q3)
        h = omega * (np.kron(create, create.T) + np.kron(create.T, create))
        poly = polyad_operator(pair_basis(d)).entries
        assert np.max(np.abs(h @ poly - poly @ h)) < 1e-12
        crude = approx_interaction(nu, 1.0, omega, 1.0, "crude").entries
        basis = pair_basis(d)
        for i, (a1, a2) in enumerate(basis.pairs):
            for j, (b1, b2) in enumerate(basis.pairs):
                if b1 == a1 + 1 and b2 == a2 - 1:
                    assert h[j, i] == pytest.approx(
                        crude[j, i] * direct[a1] * direct[b2], rel=1e-12)

    def test_polyad_leakage_grows_with_polyad_and_dies_with_nu(self):
        leaks_low = {}
        for nu in (7, 21, 41):
            spec = PotentialSpec.for_integer_q((nu - 1) // 2)
            omega = interaction_frequency(spec)
            h = approx_interaction(nu, 1.0, omega, 1.0, "zA-zB").entries
            basis = pair_basis((nu - 1) // 2)
            poly = np.array(basis.polyads)
            breaking = np.abs(poly[:, None] - poly[None, :]) == 2
            low = (poly[:, None] <= 2) & (poly[None, :] <= 2)
            mid = ((poly[:, None] > 2) & (poly[:, None] <= 6)
                   & (poly[None, :] > 2) & (poly[None, :] <= 6))
            leaks_low[nu] = np.linalg.norm(h[breaking & low]) / omega
            if nu >= 21:
                leak_mid = np.linalg.norm(h[breaking & mid]) / omega
                assert leak_mid > leaks_low[nu]
        assert leaks_low[7] > leaks_low[21] > leaks_low[41]

    def test_unknown_level_rejected(self):
        with pytest.raises(DomainError):
            approx_interaction(7, 0.05, 3.5, 1.0, "other")


class TestInPlaceBuilders:
    """Factor forms, formed whole or gathered by block, against whole matrices."""

    @pytest.mark.parametrize("q", [3, 10, 17])
    def test_exchange_is_the_kron_formula(self, q):
        for create, scale in [(_creation(q, 2 * q), 0.037),
                              (_boson_creation(2 * q + 1, "zA-zB"), -0.021)]:
            k = np.kron(create, create.T)
            expected = k + k.T
            expected *= scale
            dense = PairModel(create, scale=scale).operator().entries
            assert dense.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("q", [3, 10, 17])
    def test_exact_coupling_is_the_kron_formula(self, q):
        spec = PotentialSpec.for_integer_q(q, alpha=0.7, mu=1.9, hbar=1.3)
        cfg = OracleConfig()
        r = derivative_matrix(spec, cfg).entries
        r = (r - r.T) * 0.5
        x = spec.alpha * position_from_derivative(spec, r)
        expected = np.kron(r, r)
        expected *= -spec.hbar ** 2 / spec.mu
        k = np.kron(x, x)
        k *= (spec.alpha * spec.hbar * well_numbers(spec).k) ** 2 / spec.mu
        expected += k
        expected *= 0.037
        assert (_exact_coupling(spec, 0.037, cfg).operator().entries.tobytes()
                == expected.tobytes())

    @pytest.mark.parametrize("lam", [0.037, 0.0])
    @pytest.mark.parametrize("model", ["su2", "exact", "crude", "zA-zB"])
    @pytest.mark.parametrize("q", [3, 10, 17, 30])
    def test_gathered_blocks_are_the_symmetrized_builder_blocks(self, q, model, lam):
        # The blocks proven from the factors are polyads (su2, crude),
        # polyad parities (exact, zA-zB) or, without coupling, single
        # levels, and the dense matrix has no nonzero entry between them.
        # Each gathered stack is the exchange sectors of those blocks, or,
        # without coupling, the 1 x 1 pair diagonal of every pair.
        spec = PotentialSpec.for_integer_q(q, alpha=0.7, mu=1.9, hbar=1.3)
        form = coupled_model(spec, model, lam)
        polyad = np.add.outer(np.arange(q), np.arange(q)).ravel()
        key = (np.arange(q * q) if lam == 0.0
               else polyad if model in ("su2", "crude") else polyad % 2)
        label = np.array([np.flatnonzero(key == k)[0] for k in key])
        assert np.array_equal(form.labels(), label)
        dense = form.operator().entries
        linked = (dense != 0.0) | (dense.T != 0.0)
        assert not linked[label[:, None] != label[None, :]].any()
        blocks = list(_symmetric_blocks(form))
        assert len(blocks) > 0
        seen = sorted(np.concatenate([idx.ravel() for idx, _ in blocks]).tolist())
        assert seen == (list(range(q * q)) if lam == 0.0 else sector_members(q))
        for idx, stack in blocks:
            assert np.all(label[idx] == label[idx[:, :1]])
            for rows, block in zip(idx, stack):
                assert block.tobytes() in sector_bytes(dense, rows)


def public_dense(spec, model, lam):
    """The model's matrix from the public dense builders, as a caller would add them."""
    q = int(round(well_numbers(spec).q))
    basis = pair_basis(q)
    if model == "su2":
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=lam, hbar=spec.hbar)
        return su2_hamiltonian(vp, basis).entries
    diag = diagonal_energies(spec, basis).entries
    if model == "exact":
        return diag + exact_interaction(spec, basis, lam).entries
    return diag + approx_interaction(2 * q + 1, lam, interaction_frequency(spec), spec.hbar,
                                     model).entries


class TestOneSymmetryProof:
    """Every model is symmetric and exchange-symmetric by construction, and solved by sector."""

    @pytest.mark.parametrize("scale", [{}, dict(alpha=0.7, mu=1.9, hbar=1.3)],
                             ids=["unit", "scaled"])
    @pytest.mark.parametrize("lam", [0.037, -0.021, 0.0])
    @pytest.mark.parametrize("model", ["su2", "exact", "crude", "zA-zB"])
    @pytest.mark.parametrize("q", [3, 10, 17, 30])
    def test_models_are_solved_as_gathered(self, q, model, lam, scale):
        # spectrum solves the exchange sectors of the gathered label blocks
        # (at lam = 0 the 1 x 1 pair diagonal) by eigvalsh.
        spec = PotentialSpec.for_integer_q(q, **scale)
        form = coupled_model(spec, model, lam)
        h = form.operator().entries
        assert np.array_equal(h, h.T)
        for idx, stack in _symmetric_blocks(form):
            for rows, block in zip(idx, stack):
                assert block.tobytes() in sector_bytes(h, rows)
        sectors = block_values(form)
        dense = np.linalg.eigvalsh(public_dense(spec, model, lam))
        assert np.max(np.abs(sectors - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(spectrum(form), sectors)

    @pytest.mark.parametrize("lam", [0.037, -0.021])
    @pytest.mark.parametrize("model", ["su2", "exact", "crude", "zA-zB"])
    @pytest.mark.parametrize("q", [3, 17, 30])
    def test_sectors_are_the_exchange_combinations(self, q, model, lam):
        # Sector s of pairs ab (a <= b, a < b for s = -1) has entries
        # (H[ab, cd] + s H[ab, dc]) f_ab f_cd, f = 1/sqrt(2) on a = b; a sector
        # with no a = b may be either.  At q = 30 the exact and zA-zB sector
        # stacks are gathered in chunks that end mid-block, and an su2 or
        # crude chunk spans several blocks.
        form = coupled_model(PotentialSpec.for_integer_q(q), model, lam)
        h = form.operator().entries
        swapped = h.reshape(q, q, q, q).transpose(1, 0, 3, 2).reshape(q * q, q * q)
        assert np.array_equal(h, swapped)
        seen = []
        for idx, stack in _symmetric_blocks(form):
            for rows, block in zip(idx, stack):
                assert block.tobytes() in sector_bytes(h, rows)
                seen.extend(rows.tolist())
        assert sorted(seen) == sector_members(q)

    @pytest.mark.parametrize("q, flag, value", [(10, "alpha", 1e3), (40, "hbar", 1e2),
                                                (10, "alpha", 1e100), (10, "alpha", 1e-100)])
    @pytest.mark.parametrize("model", ["exact", "compare"])
    def test_exact_spectra_scale_with_the_unit(self, capsys, q, flag, value, model):
        # An absolute 1e-9 gate on the exact coupling's rounding asymmetry
        # rejected alpha = 1e3 and hbar = 1e2, and the interaction frequency
        # squared overflowed at alpha = 1e100.
        def spectra(*flags):
            code = cli.main(["vibron", "--q", str(q), "--model", model, "--lambda", "0.05",
                             "--format", "json", *flags])
            assert code == 0, capsys.readouterr().err
            rows = json.loads(capsys.readouterr().out)["rows"]
            return np.array([[v for k, v in r.items() if k.startswith("e")] for r in rows])

        base, scaled = spectra(), spectra(f"--{flag}", repr(value))
        unit = value ** 2  # (alpha hbar)^2 / mu
        assert np.max(np.abs(scaled / unit - base)) <= 1e-12 * np.max(np.abs(base))

    def test_no_module_imports_a_private_vibron_name(self):
        src = Path(vibron.__file__).parent
        for path in src.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            for block in re.findall(r"from \.vibron import (\([^)]*\)|[^\n]*)", text):
                names = re.findall(r"\w+", block)
                assert not [n for n in names if n.startswith("_")], path.name


class TestSpectrumSolver:
    """``spectrum`` and its block solver, on factor forms only."""

    @pytest.mark.parametrize("dense", [np.eye(4), polyad_operator(pair_basis(2))],
                             ids=["ndarray", "OperatorMatrix"])
    def test_dense_input_rejected(self, dense):
        with pytest.raises(DomainError, match="numpy.linalg.eigvalsh"):
            spectrum(dense)

    def test_diagonal_input(self):
        # Without terms H is the pair diagonal e[n1] + e[n2].
        model = PairModel(single=np.array([3.0, -1.0, 2.0]))
        assert spectrum(model) == [-2.0, 1.0, 1.0, 2.0, 2.0, 4.0, 5.0, 5.0, 6.0]
        assert spectrum(model) == sorted(np.diag(model.operator().entries))

    def test_two_by_two(self):
        # A (x) A with n = 2, A the 2 x 2 swap: the products of its eigenvalues +-1.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        values = spectrum(PairModel(products=((1.0, swap),)))
        assert values == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-12)

    def test_residuals_on_permuted_block_diagonal(self):
        # The exchange sectors of polyad blocks of sizes 1, 2, ..., 6, ..., 2,
        # 1, several of them equal, so both single and stacked LAPACK calls
        # are exercised; each sector is scattered across the lexicographic basis.
        rng = np.random.default_rng(11)
        n = 6
        model = PairModel(np.diag(rng.normal(size=n - 1), -1), scale=0.3,
                          single=rng.normal(size=n))
        a = model.operator().entries
        norm = np.linalg.norm(a, 2)
        seen, found_sizes = [], []
        for idx, stack in _symmetric_blocks(model):
            w, v = np.linalg.eigh(stack)
            eye = np.eye(idx.shape[1])
            for rows, block, values, vectors in zip(idx, stack, w, v):
                assert block.tobytes() in sector_bytes(a, rows)
                assert np.max(np.abs(block @ vectors - vectors * values)) <= 1e-12 * norm
            assert np.max(np.abs(v.transpose(0, 2, 1) @ v - eye)) <= 1e-12
            assert np.all(np.diff(idx, axis=1) > 0)
            seen.extend(idx.ravel().tolist())
            found_sizes.extend([idx.shape[1]] * idx.shape[0])
        # The sectors split the polyads: a <= b in sector +1, a < b in -1.
        assert sorted(seen) == sector_members(n)
        i, j = np.divmod(np.arange(n * n), n)
        polyad = i + j
        sizes = np.concatenate([np.bincount(polyad[i <= j]), np.bincount(polyad[i < j])])
        assert sorted(found_sizes) == sorted(sizes[sizes > 0].tolist())
        assert np.all(np.diff(spectrum(model)) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), terms=st.integers(1, 3), exchange=st.booleans(),
           density=st.floats(0.0, 1.0), diagonal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocked_values_match_dense(self, n, terms, exchange, density, diagonal, seed):
        # The factors' nonzero patterns set the polyad steps, so the blocks
        # range from single levels through polyads and parities to one block.
        rng = np.random.default_rng(seed)
        model = PairModel(random_factor(rng, n, density) if exchange else None,
                          tuple((rng.normal(), random_factor(rng, n, density, rng.choice([1, -1])))
                                for _ in range(terms)),
                          rng.normal(), rng.normal(size=n) if diagonal else None)
        a = model.operator().entries
        dense = np.linalg.eigvalsh(a)
        assert np.max(np.abs(block_values(model) - dense)) <= 1e-12 * np.linalg.norm(a, 2)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), density=st.floats(0.0, 1.0), diagonal=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exchange_sectors_match_dense(self, n, density, diagonal, seed):
        # c (x) c^T + c^T (x) c for any c, its blocks ranging from single
        # levels to one whole block, is solved by exchange sector.
        rng = np.random.default_rng(seed)
        model = PairModel(random_factor(rng, n, density), scale=rng.normal(),
                          single=rng.normal(size=n) if diagonal else None)
        h = model.operator().entries
        dense = np.linalg.eigvalsh(h)
        assert np.max(np.abs(np.asarray(spectrum(model)) - dense)) <= 1e-12 * np.linalg.norm(h, 2)

    def test_diagonal_returned_bit_for_bit(self):
        e = np.random.default_rng(3).normal(size=7)
        model = PairModel(single=e)
        d = np.add.outer(e, e).ravel()
        # Forty-nine 1 x 1 blocks in one stacked call: each eigenvector is exactly 1.
        (idx, stack), = _symmetric_blocks(model)
        w, v = np.linalg.eigh(stack)
        assert idx.shape == (49, 1)
        assert np.array_equal(w[:, 0], d[idx[:, 0]])
        assert np.array_equal(v, np.ones((49, 1, 1)))
        assert np.array_equal(block_values(model), np.sort(d))
        assert spectrum(model) == sorted(d.tolist())

    def test_su2_spectrum_is_ascending(self):
        # Near-degenerate levels at q = 20 were once emitted in basis order.
        values = spectrum(coupled_model(PotentialSpec.for_integer_q(20), "su2", 0.03))
        assert np.all(np.diff(values) >= 0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 4, 4))
        model = PairModel(c, ((1.0, a + a.T), (0.5, b - b.T)), single=rng.normal(size=4))
        assert np.max(np.abs(np.asarray(spectrum(model))
                             - np.linalg.eigvalsh(model.operator().entries))) < 1e-11

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError, match="transpose"):
            PairModel(products=((1.0, np.array([[0.0, 1.0], [0.0, 0.0]])),))

    def test_antisymmetric_pair_rejected(self):
        # An antisymmetric A would make A (x) I antisymmetric, but A is
        # taken only as A (x) A, which is symmetric; a factor with both an
        # antisymmetric and a symmetric part is refused.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = PairModel(products=((1.0, a),)).operator().entries
        assert np.array_equal(h, h.T)
        with pytest.raises(DomainError, match="transpose"):
            PairModel(products=((1.0, a + np.eye(2)),))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 14, 15, 30])
    def test_one_block_gathers_as_two_exactly_symmetric_sectors(self, n):
        # Dense factors move the polyad by odd steps, so H is one block,
        # gathered whole however large, in its two exchange sectors.  Each
        # is symmetric bit for bit as gathered, with nothing symmetrized,
        # and is the dense sector formula; the 1e-11 term is antisymmetric.
        rng = np.random.default_rng(n)
        c, a, b = rng.normal(size=(3, n, n))
        model = PairModel(c, ((1.0, a + a.T), (1e-11, b - b.T)), single=rng.normal(size=n))
        blocks = list(_symmetric_blocks(model))
        assert len(blocks) == (n > 0) + (n > 1)
        for idx, stack in blocks:
            dense = model.operator().entries
            assert np.array_equal(dense, dense.T)
            assert idx.shape[0] == 1
            assert np.array_equal(stack, stack.transpose(0, 2, 1))
            first, second = np.divmod(idx[0], n)
            sign = 1 if (first == second).any() else -1
            assert stack[0].tobytes() == sector(dense, idx[0], sign).tobytes()
        assert sorted(i for idx, _ in blocks for i in idx.ravel().tolist()) == sector_members(n)

    # (i, j, k, l): factors E_ij and E_kl whose polyad step (i - j) + (k - l)
    # is even, so their pattern keeps the parity blocks of T (x) T.
    PLANTS = [(0, 1, 0, 1), (1, 0, 1, 0), (13, 13, 13, 11),
              (0, 1, 1, 0), (13, 12, 0, 1), (12, 13, 13, 12)]

    @staticmethod
    def chunked_with(product):
        """T (x) T at n = 20 plus the self-product ``product``, which must keep its parity blocks.

        The even parity block's sector +1, its 110 pairs a <= b, is a stack
        gathered _slab_entries(d) // 110 = 74 rows at a time, and the plants'
        rows (i, i) fall in both of its chunks.
        """
        n = 20
        t = tridiagonal(n)
        base = PairModel(products=((1.0, t),), single=np.arange(float(n)))
        idx, = [idx for idx, _ in _symmetric_blocks(base) if idx.shape == (1, 110)]
        rows = np.searchsorted(idx[0], [i * (n + 1) for i, *_ in TestSpectrumSolver.PLANTS])
        assert len(set((rows // (_slab_entries(n * n) // 110)).tolist())) > 1
        model = PairModel(products=((1.0, t), product), single=base.single)
        assert np.array_equal(model.labels(), base.labels())
        return model

    @pytest.mark.parametrize("i, j, k, l", PLANTS)
    def test_asymmetry_found_in_every_slab(self, i, j, k, l):
        # E_ij with i != j equals neither its transpose nor its negative, so
        # no model holds it, wherever its rows would be gathered.
        t = tridiagonal(20)
        for p, r in {(i, j), (k, l)}:
            if p != r:
                with pytest.raises(DomainError, match="transpose"):
                    PairModel(products=((1.0, t), (2e-9, unit(20, p, r))),
                              single=np.arange(20.0))

    @pytest.mark.parametrize("i, j, k, l", PLANTS)
    def test_overflowing_product_found_in_every_chunk(self, i, j, k, l):
        # Every product and the factor magnitude are finite; the sector +1
        # entry H[ii, jj] + H[ii, jj] of row (i, i) is inf.
        pattern = unit(20, i, j) + unit(20, j, i) + unit(20, k, l) + unit(20, l, k)
        model = self.chunked_with((1e308, np.minimum(pattern, 1.0)))
        assert math.isfinite(_magnitude(model))
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite"):
            spectrum(model)

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 4, 4))
        symmetric, antisymmetric, single = a + a.T, b - b.T, rng.normal(size=4)
        model = PairModel(c, ((1.0, symmetric), (1e-12, antisymmetric)), 0.7, single)
        arrays = [c, symmetric, antisymmetric, single]
        before = [x.tobytes() for x in arrays]
        spectrum(model)
        assert [x.tobytes() for x in arrays] == before
        assert all(x.flags.writeable for x in arrays)
        for x in arrays:
            x.setflags(write=False)
        spectrum(model)
        assert [x.tobytes() for x in arrays] == before
        assert not any(x.flags.writeable for x in arrays)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected(self, value, where):
        a = np.array([[0.0, 0.0], [0.0, 1.0]])
        a[where] = a[where[::-1]] = value
        with pytest.raises(DomainError, match="non-finite"):
            spectrum(PairModel(products=((1.0, a),)))

    def test_degenerate_eigenvalues_ordered_stably(self):
        model = PairModel(single=np.array([1.0, 1.0, -0.5]))
        values = spectrum(model)
        assert values == [-1.0] + [0.5] * 4 + [2.0] * 4
        # Equal values keep basis order, so their dominant indices ascend.
        assert _solve(model)[1].tolist() == [8, 2, 5, 6, 7, 0, 1, 3, 4]


class TestFactorFormGates:
    """``PairModel`` and ``spectrum``: factors checked when built, entries per block."""

    @pytest.mark.parametrize("scale", [0.1, 0.0])
    def test_inf_against_a_zero_factor_rejected(self, scale):
        # inf * 0 is NaN in the dense matrix: a (x) a sets H[00, 10] to
        # a[0, 1] a[0, 0], between the parity blocks, where no gathered block
        # sees it.  At zero scale the blocks are single levels.
        a = np.array([[0.0, math.inf], [math.inf, 0.0]])
        model = PairModel(products=((1.0, a),), scale=scale, single=np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match="non-finite"):
            spectrum(model)

    def test_nan_in_the_pair_diagonal_rejected(self):
        model = PairModel(_creation(3), scale=0.05, single=np.array([0.0, math.nan, 2.0]))
        with pytest.raises(DomainError, match="non-finite"):
            spectrum(model)

    def test_asymmetric_factor_rejected(self):
        a = tridiagonal(4)
        a[0, 1] += 2e-9
        with pytest.raises(DomainError, match="transpose"):
            PairModel(products=((1.0, a),), single=np.arange(4.0))

    def test_odd_steps_make_one_block(self):
        # T + I moves a level by -1, 0 and +1, so (T + I) (x) (T + I) moves
        # the polyad by -2 to 2: gcd 1, a single block, in its two sectors.
        n = 5
        a = tridiagonal(n) + np.eye(n)
        model = PairModel(products=((1.0, a),), scale=0.3, single=np.linspace(0.0, 2.0, n))
        assert not model.labels().any()
        first, second = np.divmod(np.arange(n * n), n)
        assert [idx.tolist() for idx, _ in _symmetric_blocks(model)] == [
            [np.flatnonzero(first < second).tolist()], [np.flatnonzero(first <= second).tolist()]]
        dense = np.linalg.eigvalsh(model.operator().entries)
        values = np.asarray(spectrum(model))
        assert np.max(np.abs(values - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestCompareModels:
    def test_zero_coupling_coincides(self):
        report = compare_models(Q3, 0.0)
        assert max(max(d) for d in report.deviations.values()) < 1e-9
        base = [energy(Q3, n1) + energy(Q3, n2)
                for n1 in range(3) for n2 in range(3)]
        assert np.allclose(sorted(base), report.eigenvalues["exact"], atol=1e-12)

    @pytest.mark.parametrize("q", [3, 10])
    def test_su2_column_equals_crude_column(self, q):
        # The omega0 sqrt(N)-normalized coupling and the omega-tilde
        # sqrt(nu)-normalized one are algebraically identical, so the su2
        # column is the crude solve itself.
        report = compare_models(PotentialSpec.for_integer_q(q), 0.05)
        assert report.eigenvalues["su2"] == report.eigenvalues["crude"]
        assert report.deviations["su2"] == report.deviations["crude"]

    def test_crude_beats_fully_harmonic_description(self):
        report = compare_models(Q3, 0.05)
        basis = pair_basis(3)
        harmonic = np.linalg.eigvalsh(harmonic_model(Q3, basis, 0.05).entries)
        exact = np.asarray(report.eigenvalues["exact"])
        low = [i for i, p in enumerate(report.polyads) if p <= 2]
        harmonic_dev = max(abs(harmonic[i] - exact[i]) for i in low)
        assert report.max_low_polyad_deviation["crude"] <= harmonic_dev

    def test_exchange_symmetry_of_all_models(self):
        basis = pair_basis(3)
        perm = np.zeros((9, 9))
        for i, (n1, n2) in enumerate(basis.pairs):
            perm[basis.pairs.index((n2, n1)), i] = 1.0
        omega = interaction_frequency(Q3)
        diag = diagonal_energies(Q3, basis).entries
        vp = vibron_params_from_spectro(spectro_from_potential(Q3), lam=0.05)
        candidates = [
            su2_hamiltonian(vp, basis).entries,
            diag + exact_interaction(Q3, basis, 0.05).entries,
            diag + approx_interaction(7, 0.05, omega, 1.0, "crude").entries,
            diag + approx_interaction(7, 0.05, omega, 1.0, "zA-zB").entries,
        ]
        for h in candidates:
            assert np.max(np.abs(perm @ h @ perm.T - h)) < 1e-10

    def test_polyads_and_shape(self):
        report = compare_models(Q3, 0.05)
        assert report.dim == 9
        assert sorted(report.polyads)[0] == 0
        assert set(report.eigenvalues) == {"su2", "exact", "crude", "zA-zB"}

    @pytest.mark.parametrize("lam", [0.037, -0.021])
    @pytest.mark.parametrize("q", [10, 17])
    def test_polyads_are_those_of_the_parity_block_eigenvectors(self, q, lam):
        # The exact model is solved by exchange sector; its labels are read
        # as eigh of its whole parity blocks, cut from the dense matrix, gives them.
        spec = PotentialSpec.for_integer_q(q)
        form = coupled_model(spec, "exact", lam)
        h, label = form.operator().entries, form.labels()
        values = np.empty(q * q)
        dominant = np.empty(q * q, dtype=int)
        for first in np.unique(label):
            rows = np.flatnonzero(label == first)
            w, v = np.linalg.eigh(h[rows[:, None], rows])
            values[rows] = w
            dominant[rows] = rows[np.argmax(np.abs(v), axis=0)]
        dominant = dominant[np.argsort(values, kind="stable")]
        assert compare_models(spec, lam).polyads == tuple((dominant // q + dominant % q).tolist())

    def test_requires_q_at_least_three(self):
        with pytest.raises(DomainError):
            compare_models(PotentialSpec.for_integer_q(2), 0.05)


def traced_peak(call) -> int:
    """tracemalloc peak above the start of a warm second call."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestResourceUse:
    """Each d/dx contraction and each dense d x d temporary costs q^2 or q^4."""

    @staticmethod
    def count_ddx(monkeypatch):
        calls = []
        contract = oracle._contract
        monkeypatch.setattr(oracle, "_contract",
                            lambda spec, obs, *rest: calls.append(obs.name)
                            or contract(spec, obs, *rest))
        return calls

    def test_exact_interaction_builds_one_derivative_matrix(self, monkeypatch):
        calls = self.count_ddx(monkeypatch)
        exact_interaction(Q3, pair_basis(3), 0.05)
        assert calls == ["ddx"]

    def test_full_verify_suite_builds_three_derivative_matrices(self, monkeypatch):
        # matelem, expansion (x), and the exact coupling at lambda; the
        # lambda = 0 row's models are their pair diagonals.
        calls = self.count_ddx(monkeypatch)
        suite_for("all", PotentialSpec.for_integer_q(8), None)
        assert calls.count("ddx") == 3

    def test_zero_coupling_comparison_builds_no_coupling(self, monkeypatch):
        # No oracle matrix and no boson coupling: at lambda = 0 every model
        # is read off its pair diagonal.
        def refuse(*args, **kwargs):
            raise AssertionError("a coupling was built at lambda = 0")

        monkeypatch.setattr(vibron, "derivative_matrix", refuse)
        monkeypatch.setattr(vibron, "_boson_creation", refuse)
        for q in (3, 10):
            report = compare_models(PotentialSpec.for_integer_q(q), 0.0)
            assert max(max(d) for d in report.deviations.values()) == 0.0
        with pytest.raises(AssertionError, match="lambda = 0"):
            compare_models(Q3, 0.05)

    @pytest.mark.parametrize("run", ["compare_models", "vibron_checks"])
    def test_peak_memory_is_at_most_four_dense_matrices(self, run):
        spec = PotentialSpec.for_integer_q(20)
        call = {"compare_models": lambda: compare_models(spec, 0.03),
                "vibron_checks": lambda: vibron_checks(spec)}[run]
        call()
        dense = (20 * 20) ** 2 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * dense

    @pytest.mark.parametrize("run", ["compare_models", "vibron_checks"])
    def test_one_dense_matrix_at_zero_coupling(self, run):
        # No d x d array is kept alive on these paths: the models stay in
        # factor form, the checks read only the n x n factors, and every
        # temporary is one chunk of gathered blocks.
        spec = PotentialSpec.for_integer_q(20)
        call = {"compare_models": lambda: compare_models(spec, 0.0),
                "vibron_checks": lambda: vibron_checks(spec)}[run]
        call()
        dense = (20 * 20) ** 2 * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * dense


    @pytest.mark.parametrize("run, bound", [
        ("compare_models lam=0", 0.5),
        ("vibron_checks", 0.25),
        ("compare_models lam=0.03", 1.5),
        ("cli vibron exact", 1.5),
    ])
    def test_factor_forms_build_no_dense_matrix(self, run, bound, capsys):
        # Measured in dense q = 20 arrays: the checks bound the couplings from
        # their n x n factors and solve at zero coupling, the solver holds
        # the stacked parity blocks of the exact model and LAPACK's
        # eigenvectors of them.
        spec = PotentialSpec.for_integer_q(20)
        argv = ["vibron", "--q", "20", "--model", "exact", "--lambda", "0.03",
                "--format", "json"]
        call = {"compare_models lam=0": lambda: compare_models(spec, 0.0),
                "vibron_checks": lambda: vibron_checks(spec),
                "compare_models lam=0.03": lambda: compare_models(spec, 0.03),
                "cli vibron exact": lambda: cli.main(argv)}[run]
        peak = traced_peak(call)
        capsys.readouterr()
        assert peak <= bound * (20 * 20) ** 2 * 8

    @pytest.mark.parametrize("builder", ["su2", "exact", "crude", "zA-zB", "harmonic"])
    def test_dense_builders_hold_one_dense_matrix(self, builder):
        # Each later Kronecker term is added in row slabs, so the sum is the
        # only d x d array (a whole second term would make it 2.02).
        q = 30
        spec, basis = PotentialSpec.for_integer_q(q), pair_basis(q)
        omega = interaction_frequency(spec)
        vp = vibron_params_from_spectro(spectro_from_potential(spec), lam=0.03)
        call = {"su2": lambda: su2_hamiltonian(vp, basis),
                "exact": lambda: exact_interaction(spec, basis, 0.03),
                "crude": lambda: approx_interaction(2 * q + 1, 0.03, omega, 1.0, "crude"),
                "zA-zB": lambda: approx_interaction(2 * q + 1, 0.03, omega, 1.0, "zA-zB"),
                "harmonic": lambda: harmonic_model(spec, basis, 0.03)}[builder]
        assert traced_peak(call) <= 1.25 * (q * q) ** 2 * 8

    @pytest.mark.parametrize("model, q, lam", [("su2", 200, 0.0), ("exact", 200, 0.0),
                                               ("crude", 200, 0.0), ("zA-zB", 200, 0.0),
                                               ("exact", 60, 0.05)])
    def test_blocks_gather_in_bounded_memory(self, model, q, lam):
        # Each stack is gathered _slab_entries(d) entries at a time, so besides
        # the largest stack nothing holds more than a few chunks.  At lambda = 0
        # each of the d = q^2 pairs is a 1 x 1 block read off the pair
        # diagonal, so the stacked blocks themselves are d doubles.  Each
        # stack is dropped before the next is gathered, as the solver does.
        form = coupled_model(PotentialSpec.for_integer_q(q), model, lam)
        largest = max(stack.nbytes for _, stack in _symmetric_blocks(form))

        def gather():
            for idx, stack in _symmetric_blocks(form):
                del stack

        peak = traced_peak(gather)
        assert peak - largest <= 20 * _slab_entries(q * q) * 8
        if lam == 0.0:
            assert peak <= 8 * q * q * 8

    def test_sector_solve_holds_less_than_a_parity_block(self):
        # The exact model's parity blocks hold d / 2 pairs each, its exchange
        # sectors about d / 4, solved without eigenvectors.
        q = 50
        form = coupled_model(PotentialSpec.for_integer_q(q), "exact", 0.05)
        assert traced_peak(lambda: spectrum(form)) < (q * q // 2) ** 2 * 8

    def test_factor_solve_holds_no_pair_pattern(self):
        # The blocks are read off the factors, so no d x d array of any
        # dtype is formed; a boolean pattern alone would be 1/8 of a dense one.
        spec = PotentialSpec.for_integer_q(30)
        peak = traced_peak(lambda: spectrum(coupled_model(spec, "su2", 0.03)))
        assert peak <= (30 * 30) ** 2 * 8 / 8


class TestDeepWells:
    @pytest.mark.parametrize("q", [15, 20])
    def test_extended_beats_crude_without_intruders(self, q):
        spec = PotentialSpec.for_integer_q(q)
        basis = pair_basis(q)
        lam = 0.02
        omega = interaction_frequency(spec)
        diag = diagonal_energies(spec, basis).entries
        exact = np.linalg.eigvalsh(
            diag + exact_interaction(spec, basis, lam, OracleConfig()).entries)
        # At this coupling polyads 0, 1 and 2 are the six lowest levels.
        low_dev = {}
        for level in ("crude", "zA-zB"):
            values = np.linalg.eigvalsh(
                diag + approx_interaction(2 * q + 1, lam, omega, spec.hbar, level).entries)
            low_dev[level] = np.max(np.abs(values[:6] - exact[:6]))
            if level == "zA-zB":
                assert values[0] >= exact[0] - 1e-6
        assert low_dev["zA-zB"] < low_dev["crude"]
