"""su(2) ladder algebra, closed-form matrices, and differential ladder action."""

import math

import numpy as np
import pytest

from mptsu2.errors import DomainError
from mptsu2.ladder import (
    apply_lowering,
    apply_raising,
    build_su2_matrices,
    casimir,
    cosh_ddx_matrix,
    hamiltonian_diagonal,
    lowering_coefficient,
    normalization_chain,
    project_physical,
    raising_coefficient,
    sinh_matrix,
)
from mptsu2.states import (TWO_OSC_KIND, OperatorMatrix, PotentialSpec, energy, wavefunction,
                           well_numbers)

ALL_NU = tuple(range(3, 43, 2))


def _frozen(a):
    a.setflags(write=False)
    return a


class TestOperatorMatrix:
    PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_frozen_owned_float64_is_adopted(self):
        a = _frozen(np.arange(16.0).reshape(4, 4).copy())
        assert OperatorMatrix(a, self.PAIRS, TWO_OSC_KIND).entries is a

    @pytest.mark.parametrize("source", [
        np.arange(16.0).reshape(4, 4).copy(),  # writeable: its owner could change it
        _frozen(np.arange(16.0).reshape(4, 4).copy()).T,  # a view owns no data
        _frozen(np.arange(16, dtype=np.float32).reshape(4, 4).copy()),
        np.arange(16.0).reshape(4, 4).tolist(),
    ], ids=["writeable", "view", "float32", "list"])
    def test_anything_else_is_copied_read_only(self, source):
        m = OperatorMatrix(source, self.PAIRS, TWO_OSC_KIND)
        assert m.entries is not source
        assert m.entries.dtype == np.float64
        assert not m.entries.flags.writeable
        assert np.array_equal(m.entries, np.asarray(source, dtype=float))

    def test_writeable_input_is_not_frozen(self):
        a = np.arange(16.0).reshape(4, 4)
        OperatorMatrix(a, self.PAIRS, TWO_OSC_KIND)
        assert a.flags.writeable


class TestCoefficients:
    def test_lowering_annihilates_ground(self):
        assert lowering_coefficient(5, 0) == 0.0

    def test_lowering_values(self):
        assert lowering_coefficient(5, 1) == pytest.approx(2.0, abs=1e-15)
        assert lowering_coefficient(7, 2) == pytest.approx(math.sqrt(10.0), abs=1e-15)

    def test_raising_vanishes_at_ladder_top(self):
        assert raising_coefficient(5, 4) == 0.0

    def test_raising_values(self):
        assert raising_coefficient(5, 0) == pytest.approx(2.0, abs=1e-15)
        assert raising_coefficient(7, 1) == pytest.approx(math.sqrt(10.0), abs=1e-15)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            lowering_coefficient(5, 5)
        with pytest.raises(DomainError):
            raising_coefficient(5, -1)
        with pytest.raises(DomainError):
            build_su2_matrices(6)


class TestSu2Matrices:
    def test_smallest_multiplet_explicit(self):
        triple = build_su2_matrices(3)
        expected = np.array([[0.0, 0.0, 0.0],
                             [math.sqrt(2.0), 0.0, 0.0],
                             [0.0, math.sqrt(2.0), 0.0]])
        assert np.array_equal(triple.plus.entries, expected)
        assert np.array_equal(triple.minus.entries, expected.T)
        assert np.array_equal(np.diag(triple.zero.entries), [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("nu", ALL_NU)
    def test_commutation_relations(self, nu):
        triple = build_su2_matrices(nu)
        p, m, z = triple.plus.entries, triple.minus.entries, triple.zero.entries
        assert np.max(np.abs(p @ m - m @ p - 2.0 * z)) < 1e-12
        assert np.max(np.abs(z @ m - m @ z + m)) < 1e-12
        assert np.max(np.abs(z @ p - p @ z - p)) < 1e-12

    @pytest.mark.parametrize("nu", ALL_NU)
    def test_casimir_is_constant(self, nu):
        triple = build_su2_matrices(nu)
        j = triple.j
        dev = casimir(triple).entries - j * (j + 1.0) * np.eye(nu)
        assert np.max(np.abs(dev)) < 1e-12

    def test_casimir_examples(self):
        assert casimir(build_su2_matrices(5)).entries[0, 0] == pytest.approx(6.0)
        assert casimir(build_su2_matrices(3)).entries[0, 0] == pytest.approx(2.0)
        assert casimir(build_su2_matrices(21)).entries[0, 0] == pytest.approx(110.0)

    @pytest.mark.parametrize("nu", ALL_NU)
    def test_projection_traceless(self, nu):
        assert np.trace(build_su2_matrices(nu).zero.entries) == pytest.approx(0.0)

    def test_physical_projection_dimensions(self):
        assert project_physical(build_su2_matrices(5)).plus.dim == 2
        assert project_physical(build_su2_matrices(7)).plus.dim == 3

    def test_physical_projection_drops_outgoing_transition(self):
        phys = project_physical(build_su2_matrices(7))
        # Transitions out of the bound space are simply absent.
        assert phys.plus.entries[2, 1] != 0.0
        assert np.all(phys.plus.entries[:, 2] == 0.0)

    def test_casimir_requires_full_multiplet(self):
        with pytest.raises(DomainError):
            casimir(project_physical(build_su2_matrices(7)))

    @pytest.mark.parametrize("nu", [5, 9, 21])
    def test_physical_commutator_defect_sits_at_edge_only(self, nu):
        # Truncation drops the raised component of the last bound state, i.e.
        # the P- P+ term on that state, so [P+, P-] = 2 P0 holds everywhere
        # except that corner, which gains the lost raising weight squared.
        phys = project_physical(build_su2_matrices(nu))
        p, m, z = phys.plus.entries, phys.minus.entries, phys.zero.entries
        defect = p @ m - m @ p - 2.0 * z
        edge = phys.plus.dim - 1
        expected = raising_coefficient(nu, edge) ** 2
        assert defect[edge, edge] == pytest.approx(expected, rel=1e-14)
        defect[edge, edge] = 0.0
        assert np.max(np.abs(defect)) < 1e-12


class TestHamiltonianDiagonal:
    def test_q2(self):
        spec = PotentialSpec.for_integer_q(2)
        assert np.allclose(np.diag(hamiltonian_diagonal(spec).entries), [-2.0, -0.5])

    def test_q3(self):
        spec = PotentialSpec.for_integer_q(3)
        assert np.allclose(np.diag(hamiltonian_diagonal(spec).entries),
                           [-4.5, -2.0, -0.5])

    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_bitwise_equal_to_energy(self, q):
        spec = PotentialSpec.for_integer_q(q)
        diag = np.diag(hamiltonian_diagonal(spec).entries)
        assert all(diag[n] == energy(spec, n) for n in range(len(diag)))
        assert all(a < b for a, b in zip(diag, diag[1:]))

    def test_fractional_q_rejected(self):
        with pytest.raises(DomainError):
            hamiltonian_diagonal(PotentialSpec(D=2.0, alpha=1.0))


class TestNormalizationChain:
    def test_empty_product(self):
        assert normalization_chain(5, 0) == pytest.approx(1.0, abs=1e-15)

    def test_examples(self):
        assert normalization_chain(5, 1) == pytest.approx(0.5, abs=1e-13)
        assert normalization_chain(7, 2) == pytest.approx(
            1.0 / (math.sqrt(6.0) * math.sqrt(10.0)), abs=1e-13)

    @pytest.mark.parametrize("nu", range(5, 43, 2))
    def test_inverse_of_raising_product(self, nu):
        for n in range((nu - 1) // 2):
            product = 1.0
            for k in range(n):
                product *= raising_coefficient(nu, k)
            assert abs(normalization_chain(nu, n) * product - 1.0) < 1e-12

    def test_range_check(self):
        with pytest.raises(DomainError):
            normalization_chain(7, 3)


class TestClosedFormMatrices:
    def test_sinh_smallest(self):
        m = sinh_matrix(5).entries
        assert m[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-13)
        assert m[1, 0] == pytest.approx(math.sqrt(0.5), abs=1e-13)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_sinh_seven(self):
        assert sinh_matrix(7).entries[0, 1] == pytest.approx(0.5, abs=1e-13)

    def test_cosh_ddx_values(self):
        m = cosh_ddx_matrix(7).entries
        assert m[0, 1] == pytest.approx(1.0, abs=1e-13)
        assert m[1, 0] == pytest.approx(-1.5, abs=1e-13)
        assert cosh_ddx_matrix(5).entries[0, 1] == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=1e-13)

    @pytest.mark.parametrize("nu", range(5, 43, 2))
    def test_symmetry_and_zero_diagonal(self, nu):
        s = sinh_matrix(nu).entries
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 0.0)
        assert np.all(np.diag(cosh_ddx_matrix(nu).entries) == 0.0)

    @pytest.mark.parametrize("nu", range(5, 43, 2))
    def test_integration_by_parts_identity(self, nu):
        s = sinh_matrix(nu).entries
        m = cosh_ddx_matrix(nu).entries
        assert np.max(np.abs(m + m.T + s)) < 1e-12

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            sinh_matrix(3)


class TestLadderAction:
    GRID = np.linspace(-6.0, 6.0, 241)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_lowering_reproduces_states(self, q):
        spec = PotentialSpec.for_integer_q(q)
        wn = well_numbers(spec)
        nu = int(wn.nu)
        for n in range(wn.n_max + 1):
            got = apply_lowering(spec, n, self.GRID)
            want = (lowering_coefficient(nu, n) * wavefunction(spec, n - 1, self.GRID)
                    if n > 0 else np.zeros_like(self.GRID))
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_raising_reproduces_states(self, q):
        spec = PotentialSpec.for_integer_q(q)
        wn = well_numbers(spec)
        nu = int(wn.nu)
        for n in range(wn.n_max):
            got = apply_raising(spec, n, self.GRID)
            want = raising_coefficient(nu, n) * wavefunction(spec, n + 1, self.GRID)
            assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_raising_annihilates_last_bound_state(self, q):
        spec = PotentialSpec.for_integer_q(q)
        wn = well_numbers(spec)
        assert np.max(np.abs(apply_raising(spec, wn.n_max, self.GRID))) < 1e-10

    def test_requires_integer_well(self):
        with pytest.raises(DomainError):
            apply_lowering(PotentialSpec(D=2.0, alpha=1.0), 0, 0.5)
