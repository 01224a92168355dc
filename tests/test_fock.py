import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import enumerate_states, ladder_matrices

from phi4lab import (
    BasisTooLarge,
    ConfigError,
    apply_dgamma_omega,
    apply_h0perp_inverse,
    apply_mode_annihilation,
    apply_mode_creation,
    apply_number,
    apply_smeared,
    build_grid,
    enumerate_basis,
    load_vector,
    project_vacuum,
    save_vector,
)
from phi4lab.fock import OperatorHandle
from phi4lab.spectral import estimate_operator_norm

from conftest import make_two_mode


def rand_vec(basis, seed=0, interior=None):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if interior is not None:
        v[~basis.interior_mask(interior)] = 0.0
    return v / np.linalg.norm(v)


class TestEnumeration:
    def test_dimensions(self):
        assert enumerate_basis(1, 2).dim == 3
        assert enumerate_basis(2, 2).dim == 6
        assert enumerate_basis(3, 8).dim == 165

    def test_single_mode_states(self):
        basis = enumerate_basis(1, 2)
        assert basis.states.tolist() == [[0], [1], [2]]

    @given(m=st.integers(1, 4), n=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_dimension_is_binomial(self, m, n):
        assert enumerate_basis(m, n).dim == math.comb(m + n, m)

    def test_order_matches_independent_enumeration(self):
        basis = enumerate_basis(3, 5)
        assert [tuple(s) for s in basis.states] == enumerate_states(3, 5)

    def test_index_bijection(self):
        basis = enumerate_basis(2, 3)
        for i, s in enumerate(basis.states):
            assert basis.index_of(s) == i

    @given(m=st.integers(1, 4), n=st.integers(0, 6))
    @example(m=1, n=0)
    @example(m=4, n=0)
    @settings(max_examples=40, deadline=None)
    def test_rank_equals_enumeration_order(self, m, n):
        basis = enumerate_basis(m, n)
        states = np.array(enumerate_states(m, n), dtype=np.int64).reshape(-1, m)
        assert basis.rank(states).tolist() == list(range(basis.dim))

    @pytest.mark.parametrize(
        "occupation", [(1, 0), (1, 0, 0, 0), (-1, 1, 0), (2, 0, -1), (2, 1, 1), (0, 0, 4)]
    )
    def test_index_of_rejects_occupations_outside_the_basis(self, occupation):
        basis = enumerate_basis(3, 3)
        with pytest.raises(ConfigError):
            basis.index_of(occupation)
        with pytest.raises(ConfigError):
            basis.unit(occupation)

    def test_too_large(self):
        with pytest.raises(BasisTooLarge) as err:
            enumerate_basis(10, 30, max_dim=1000)
        assert err.value.dim == math.comb(40, 10)


class TestLadders:
    def test_creation_on_vacuum(self):
        basis = enumerate_basis(1, 3)
        out = apply_mode_creation(basis, 0, basis.vacuum())
        assert out[basis.index_of((1,))] == 1.0
        assert np.count_nonzero(out) == 1

    def test_creation_at_cap_drops_with_weight(self):
        basis = enumerate_basis(1, 4)
        v = basis.unit((4,))
        out, dropped = apply_mode_creation(basis, 0, v, with_dropped=True)
        assert np.all(out == 0.0)
        assert dropped == pytest.approx(5.0)  # (n_max + 1) * ||v||^2

    def test_ladders_on_the_vacuum_only_basis(self):
        grid = build_grid(1, 1.0, modes=np.array([[0.5]]), weights=np.array([1.0]))
        basis = enumerate_basis(1, 0)
        vac = basis.vacuum()
        out, dropped = apply_mode_creation(basis, 0, vac, with_dropped=True)
        assert np.all(out == 0.0) and dropped == 1.0
        assert np.all(apply_smeared(basis, grid, np.ones(1), vac, "segal") == 0.0)

    def test_annihilation_of_vacuum(self):
        basis = enumerate_basis(2, 3)
        for i in range(2):
            assert np.all(apply_mode_annihilation(basis, i, basis.vacuum()) == 0.0)

    def test_annihilation_amplitude(self):
        basis = enumerate_basis(1, 3)
        out = apply_mode_annihilation(basis, 0, basis.unit((2,)))
        assert out[basis.index_of((1,))] == pytest.approx(math.sqrt(2.0))

    def test_adjointness_against_dense(self):
        # <a+ u, v> = <u, a v> for the truncated pair, on the whole space
        basis = enumerate_basis(2, 3)
        _, ann, cre = ladder_matrices(2, 3)
        rng = np.random.default_rng(3)
        for i in range(2):
            u = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            lhs = np.vdot(apply_mode_creation(basis, i, u), v)
            rhs = np.vdot(u, apply_mode_annihilation(basis, i, v))
            assert lhs == pytest.approx(rhs, rel=1e-14)
            # and the dense matrices implement the same maps
            assert np.allclose(apply_mode_creation(basis, i, v), cre[i] @ v, atol=1e-15)
            assert np.allclose(apply_mode_annihilation(basis, i, v), ann[i] @ v, atol=1e-15)

    def test_mode_ccr_on_interior(self):
        basis = enumerate_basis(2, 4)
        v = rand_vec(basis, seed=5, interior=2)
        for i in range(2):
            for j in range(2):
                comm = apply_mode_annihilation(
                    basis, i, apply_mode_creation(basis, j, v)
                ) - apply_mode_creation(basis, j, apply_mode_annihilation(basis, i, v))
                expected = v if i == j else np.zeros_like(v)
                assert np.linalg.norm(comm - expected) < 1e-12


class TestSmeared:
    def setup_method(self):
        self.grid, _, self.basis = make_two_mode(n_max=5)

    def test_create_norm_on_vacuum(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f /= math.sqrt(np.sum(self.grid.weights * np.abs(f) ** 2))
        out = apply_smeared(self.basis, self.grid, f, self.basis.vacuum(), "create")
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-13)

    def test_segal_norm_on_vacuum(self):
        f = np.array([0.3 + 0.1j, -0.8j])
        fnorm = math.sqrt(np.sum(self.grid.weights * np.abs(f) ** 2))
        out = apply_smeared(self.basis, self.grid, f, self.basis.vacuum(), "segal")
        assert np.linalg.norm(out) == pytest.approx(fnorm / math.sqrt(2.0), rel=1e-13)

    def test_smeared_ccr_reproduces_weighted_pairing(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rand_vec(self.basis, seed=2, interior=2)
        comm = apply_smeared(
            self.basis, self.grid, f, apply_smeared(self.basis, self.grid, g, v, "create"), "annihilate"
        ) - apply_smeared(
            self.basis, self.grid, g, apply_smeared(self.basis, self.grid, f, v, "annihilate"), "create"
        )
        pairing = np.sum(self.grid.weights * np.conj(f) * g)
        assert np.linalg.norm(comm - pairing * v) < 1e-12 * abs(pairing)

    @pytest.mark.parametrize("which", ["annihilate", "create", "segal"])
    def test_block_rows_equal_single_vector_calls(self, which):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        block = rng.standard_normal((5, self.basis.dim)) + 1j * rng.standard_normal((5, self.basis.dim))
        out = apply_smeared(self.basis, self.grid, f, block, which)
        assert out.shape == block.shape
        for row, v in zip(out, block):
            assert np.array_equal(row, apply_smeared(self.basis, self.grid, f, v, which))

    def test_nonfinite_smearing_rejected(self):
        with pytest.raises(ConfigError):
            apply_smeared(
                self.basis, self.grid, np.array([np.inf, 0.0]), self.basis.vacuum(), "create"
            )


class TestDiagonals:
    def setup_method(self):
        self.grid, _, self.basis = make_two_mode(n_max=4)

    def test_free_action_on_vacuum(self):
        assert np.all(apply_dgamma_omega(self.basis, self.grid, self.basis.vacuum()) == 0.0)

    def test_free_action_single_particle(self):
        v = self.basis.unit((1, 0))
        out = apply_dgamma_omega(self.basis, self.grid, v)
        assert out[self.basis.index_of((1, 0))] == pytest.approx(self.grid.omega[0])

    def test_free_action_additive(self):
        v = self.basis.unit((1, 1))
        out = apply_dgamma_omega(self.basis, self.grid, v)
        assert out[self.basis.index_of((1, 1))] == pytest.approx(self.grid.omega.sum())

    def test_number_examples(self):
        basis = enumerate_basis(1, 3)
        assert np.all(apply_number(basis, basis.vacuum()) == 0.0)
        out = apply_number(basis, basis.unit((3,)))
        assert out[basis.index_of((3,))] == 3.0

    def test_number_equals_ladder_sum(self):
        basis = enumerate_basis(2, 4)
        v = rand_vec(basis, seed=9)
        lhs = np.vdot(v, apply_number(basis, v)).real
        rhs = sum(
            np.linalg.norm(apply_mode_annihilation(basis, i, v)) ** 2 for i in range(2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_reduced_inverse_examples(self):
        grid = build_grid(1, 2.0, modes=np.array([[0.0]]), weights=np.array([1.0]))
        basis = enumerate_basis(1, 3)
        assert np.all(apply_h0perp_inverse(basis, grid, basis.vacuum()) == 0.0)
        out = apply_h0perp_inverse(basis, grid, basis.unit((1,)))
        assert out[basis.index_of((1,))] == pytest.approx(0.5)

    def test_reduced_inverse_is_right_inverse_off_vacuum(self):
        v = rand_vec(self.basis, seed=11)
        perp = project_vacuum(self.basis, v, "P0perp")
        back = apply_dgamma_omega(
            self.basis, self.grid, apply_h0perp_inverse(self.basis, self.grid, v)
        )
        assert np.linalg.norm(back - perp) < 1e-13

    def test_reduced_inverse_shift_validation(self):
        with pytest.raises(ConfigError):
            apply_h0perp_inverse(self.basis, self.grid, rand_vec(self.basis), shift=10.0)

    def test_projections(self):
        v = rand_vec(self.basis, seed=13)
        p0 = project_vacuum(self.basis, v, "P0")
        pp = project_vacuum(self.basis, v, "P0perp")
        assert np.all(p0 + pp == v)
        assert np.all(project_vacuum(self.basis, self.basis.vacuum(), "P0") == self.basis.vacuum())
        assert np.all(project_vacuum(self.basis, self.basis.vacuum(), "P0perp") == 0.0)


class TestHandleContract:
    def test_hermiticity_invariant(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        rng = np.random.default_rng(21)
        norm_est = estimate_operator_norm(ham.hi, basis.dim)
        for _ in range(10):
            u = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            defect = abs(np.vdot(u, ham.hi(v)) - np.vdot(ham.hi(u), v))
            assert defect <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * max(norm_est, 1.0)

    def test_linearity(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        rng = np.random.default_rng(22)
        u = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.5j
        lhs = ham.hi(alpha * u + beta * v)
        rhs = alpha * ham.hi(u) + beta * ham.hi(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(lhs) + 1.0)

    def test_handle_callable(self):
        handle = OperatorHandle(apply=lambda v: 2.0 * v, dim=3, descriptor="twice")
        assert np.all(handle(np.ones(3)) == 2.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        basis = enumerate_basis(2, 3)
        v = rand_vec(basis, seed=33)
        path = tmp_path / "vec.f4vec"
        save_vector(path, basis, v)
        loaded_basis, w = load_vector(path, basis)
        assert np.array_equal(w, v)
        assert loaded_basis is basis

    def test_roundtrip_without_basis(self, tmp_path):
        basis = enumerate_basis(3, 2)
        v = rand_vec(basis, seed=34)
        path = tmp_path / "vec.f4vec"
        save_vector(path, basis, v)
        loaded_basis, w = load_vector(path)
        assert loaded_basis.num_modes == 3 and loaded_basis.n_max == 2
        assert np.array_equal(w, v)

    def test_header_mismatch_rejected(self, tmp_path):
        basis = enumerate_basis(2, 3)
        path = tmp_path / "vec.f4vec"
        save_vector(path, basis, rand_vec(basis))
        with pytest.raises(ConfigError):
            load_vector(path, enumerate_basis(2, 4))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.f4vec"
        path.write_bytes(b"not a vector file at all")
        with pytest.raises(ConfigError):
            load_vector(path)
