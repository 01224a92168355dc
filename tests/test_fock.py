import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import enumerate_states, handle_matrix, ladder_matrices

from phi4lab import (
    BasisTooLarge,
    ConfigError,
    apply_h0perp_inverse,
    apply_mode_annihilation,
    apply_smeared,
    build_grid,
    enumerate_basis,
    load_vector,
    save_vector,
)
from phi4lab.fock import OperatorHandle
from phi4lab.hamiltonian import HamiltonianSet

from conftest import make_two_mode


def rand_vec(basis, seed=0, interior=None):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    if interior is not None:
        v[basis.grade_end(basis.n_max - interior) :] = 0.0
    return v / np.linalg.norm(v)


def create(basis, i, v):
    """Truncated a_i^+ v: the smeared creation of the unit smearing e_i on unit weights."""
    modes = np.arange(basis.num_modes, dtype=float)[:, None]
    grid = build_grid(1, 1.0, modes=modes, weights=np.ones(basis.num_modes))
    return apply_smeared(basis, grid, np.eye(basis.num_modes)[i], v, "create")


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

    @given(m=st.integers(1, 9), n=st.integers(0, 12))
    @example(m=9, n=6)  # the verify-wide basis, dim 5,005
    @example(m=1, n=0)
    @example(m=4, n=0)
    @settings(max_examples=40, deadline=None)
    def test_order_matches_independent_enumeration(self, m, n):
        assume(math.comb(m + n, m) <= 5005)
        basis = enumerate_basis(m, n)
        assert basis.states.tolist() == [list(s) for s in enumerate_states(m, n)]
        assert basis.states.dtype == np.int32
        assert basis.states.flags.c_contiguous and not basis.states.flags.writeable
        assert np.array_equal(basis.grades, basis.states.sum(axis=1))
        assert not basis.grades.flags.writeable

    @given(m=st.integers(1, 5), n=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_interior_is_a_prefix(self, m, n):
        basis = enumerate_basis(m, n)
        for reach in range(n + 2):
            end = basis.grade_end(n - reach)
            assert (basis.grades[:end] <= n - reach).all() and (basis.grades[end:] > n - reach).all()
            assert end == math.comb(m + max(n - reach, -1), m)

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
        out = create(basis, 0, basis.vacuum())
        assert out[basis.index_of((1,))] == 1.0
        assert np.count_nonzero(out) == 1

    def test_creation_at_cap_is_dropped(self):
        basis = enumerate_basis(1, 4)
        assert np.all(create(basis, 0, basis.unit((4,))) == 0.0)

    def test_ladders_on_the_vacuum_only_basis(self):
        grid = build_grid(1, 1.0, modes=np.array([[0.5]]), weights=np.array([1.0]))
        basis = enumerate_basis(1, 0)
        vac = basis.vacuum()
        assert np.all(apply_smeared(basis, grid, np.ones(1), vac, "create") == 0.0)
        assert np.all(apply_smeared(basis, grid, np.ones(1), vac, "segal") == 0.0)

    @given(m=st.integers(1, 5), n=st.integers(0, 8))
    @example(m=1, n=0)
    @example(m=4, n=0)
    @settings(max_examples=30, deadline=None)
    def test_table_entries(self, m, n):
        basis = enumerate_basis(m, n)
        t, states, dim = basis.ladders, basis.states, basis.dim
        assert np.array_equal(basis.rank(states[t.src] - np.eye(m, dtype=int)[t.mode]), t.dst)
        assert np.array_equal(t.amp, np.sqrt(states[t.src, t.mode]))
        assert np.all(np.diff(t.dst.astype(np.int64) * dim + t.src) > 0)  # strictly by (dst, src)
        per_dst = np.bincount(t.dst, minlength=dim)
        per_src = np.bincount(t.src, minlength=dim)
        assert np.array_equal(t.dst_ptr, np.concatenate(([0], np.cumsum(per_dst))))
        assert np.array_equal(t.segal_ptr, np.concatenate(([0], np.cumsum(per_dst + per_src))))
        rows = np.repeat(np.arange(dim), np.diff(t.segal_ptr))
        assert np.all(np.diff(t.segal_cols)[rows[1:] == rows[:-1]] > 0)  # sorted within each row
        if dim <= 500:  # the dense oracle holds 2M (dim, dim) matrices
            _, ann, cre = ladder_matrices(m, n)
            pattern = sum(np.abs(a) for a in ann + cre) > 0
            segal = scipy.sparse.csr_matrix((np.ones(len(rows)), t.segal_cols, t.segal_ptr), (dim, dim))
            assert np.array_equal(segal.toarray() > 0, pattern)

    def test_each_mode_is_a_strided_slice_of_the_table(self):
        basis = enumerate_basis(3, 4)
        t, lower = basis.ladders, math.comb(3 + 4 - 1, 3)
        for i in range(3):
            assert np.all(t.mode[2 - i :: 3] == i)
            assert np.array_equal(t.dst[2 - i :: 3], np.arange(lower))

    def test_mode_annihilation_rejects_a_mode_outside_the_basis(self):
        basis = enumerate_basis(2, 3)
        for i in (-1, 2):
            with pytest.raises(ConfigError, match="not one of the 2 modes"):
                apply_mode_annihilation(basis, i, basis.vacuum())

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
            lhs = np.vdot(create(basis, i, u), v)
            rhs = np.vdot(u, apply_mode_annihilation(basis, i, v))
            assert lhs == pytest.approx(rhs, rel=1e-14)
            # and the dense matrices implement the same maps
            assert np.allclose(create(basis, i, v), cre[i] @ v, atol=1e-15)
            assert np.allclose(apply_mode_annihilation(basis, i, v), ann[i] @ v, atol=1e-15)

    def test_annihilation_keeps_the_dtype_of_its_input(self):
        # a real vector stays float64, the complex path of its cast bit for bit
        basis = enumerate_basis(2, 4)
        v = np.random.default_rng(6).standard_normal(basis.dim)
        for i in range(2):
            real, cast = apply_mode_annihilation(basis, i, v), apply_mode_annihilation(basis, i, v.astype(complex))
            assert real.dtype == np.float64 and cast.dtype == complex
            assert np.array_equal(real, cast.real) and not cast.imag.any()

    def test_mode_ccr_on_interior(self):
        basis = enumerate_basis(2, 4)
        v = rand_vec(basis, seed=5, interior=2)
        for i in range(2):
            for j in range(2):
                comm = apply_mode_annihilation(basis, i, create(basis, j, v)) - create(
                    basis, j, apply_mode_annihilation(basis, i, v)
                )
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

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_segal_is_the_scaled_sum_of_the_ladder_pair(self, imag):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(2) + imag * 1j * rng.standard_normal(2)
        dense = {
            which: handle_matrix(
                OperatorHandle(
                    lambda v, w=which: apply_smeared(self.basis, self.grid, f, v, w), self.basis.dim
                )
            )
            for which in ("annihilate", "create", "segal")
        }
        expected = (dense["annihilate"] + dense["create"]) / math.sqrt(2.0)
        assert np.count_nonzero(expected) > 0
        assert np.allclose(dense["segal"], expected, rtol=1e-15, atol=0.0)

    def test_real_smearing_gives_a_real_matrix(self):
        origin = self.grid.smearing_at(np.zeros(self.grid.dimension))
        for f, dtype in ((origin, np.float64), (origin + 0.5j, np.complex128)):
            apply_smeared(self.basis, self.grid, f, self.basis.vacuum(), "segal")
            assert self.basis._smeared["segal", np.dtype(dtype)][1].dtype == dtype
        # separate slots: the complex smearing left the real matrix in place
        held = self.basis._smeared["segal", np.dtype(np.float64)][0]
        assert np.array_equal(held, np.sqrt(self.grid.weights) / math.sqrt(2.0) * origin.real)

    @pytest.mark.parametrize("which", ["annihilate", "create", "segal"])
    def test_block_rows_equal_single_vector_calls(self, which):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        block = rng.standard_normal((5, self.basis.dim)) + 1j * rng.standard_normal((5, self.basis.dim))
        for smearing in (f, f.real):  # a complex128 and a float64 matrix
            out = apply_smeared(self.basis, self.grid, smearing, block, which)
            assert out.shape == block.shape
            for row, v in zip(out, block):
                assert np.array_equal(row, apply_smeared(self.basis, self.grid, smearing, v, which))

    def test_nonfinite_smearing_rejected(self):
        with pytest.raises(ConfigError):
            apply_smeared(
                self.basis, self.grid, np.array([np.inf, 0.0]), self.basis.vacuum(), "create"
            )


class TestSmearedMemo:
    """apply_smeared keeps one matrix per action and dtype on the basis.

    Each records the scaled smearing its data holds and is refilled in place
    when a call brings another.  Every call must equal, bit for bit, the same
    call on a freshly enumerated basis, whose slots are empty.
    """

    def setup_method(self):
        self.grid, _, self.basis = make_two_mode(n_max=5)
        rng = np.random.default_rng(6)
        self.f, self.g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.v = rand_vec(self.basis, seed=7)

    def check(self, f, which, grid=None):
        grid = self.grid if grid is None else grid
        out = apply_smeared(self.basis, grid, f, self.v, which)
        fresh = enumerate_basis(self.basis.num_modes, self.basis.n_max)
        assert np.array_equal(out, apply_smeared(fresh, grid, f, self.v, which))
        # the slot of this action (creation shares annihilation's) holds this
        # call's smearing, and the data a freshly built matrix has; the
        # transpose kept beside the matrix reads the same data
        slot = ("segal" if which == "segal" else "annihilate", np.dtype(complex))
        held, op, op_t, _ = self.basis._smeared[slot]
        scale = np.sqrt(grid.weights) / (math.sqrt(2.0) if which == "segal" else 1.0)
        assert np.array_equal(held, scale * f)
        assert scipy.sparse.issparse(op)
        assert np.shares_memory(op.data, op_t.data)
        assert np.array_equal(op.data, fresh._smeared[slot][1].data)
        return out

    @pytest.mark.parametrize("which", ["annihilate", "create", "segal"])
    def test_alternating_smearings(self, which):
        for f in (self.f, self.g, self.f, self.f):
            self.check(f, which)

    def test_switching_action_for_one_smearing(self):
        for which in ("annihilate", "create", "segal", "segal", "annihilate", "create"):
            self.check(self.f, which)
        assert sorted(key[0] for key in self.basis._smeared) == ["annihilate", "segal"]
        # one refill serves a(g) and a+(g): creation leaves the slot a(g) filled as it was
        self.check(self.g, "annihilate")
        filled = self.basis._smeared["annihilate", np.dtype(complex)]
        self.check(self.g, "create")
        assert self.basis._smeared["annihilate", np.dtype(complex)] is filled

    def test_smearing_mutated_in_place(self):
        f = self.f.copy()
        before = self.check(f, "segal")
        f[0] += 0.5
        assert not np.array_equal(self.check(f, "segal"), before)

    def test_grids_with_different_weights_share_a_basis(self):
        other = build_grid(
            1, 1.0, self.grid.uv_cutoff, modes=self.grid.modes, weights=np.array([0.5, 2.0])
        )
        outs = [self.check(self.f, "segal", grid) for grid in (self.grid, other, self.grid)]
        assert not np.array_equal(outs[0], outs[1])

    def test_validation_runs_after_a_hit(self):
        self.check(self.f, "segal")
        self.check(self.f, "segal")
        for bad in (np.array([np.nan, 0.0]), np.array([np.inf, 1.0]), np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(ConfigError):
                apply_smeared(self.basis, self.grid, bad, self.v, "segal")
        with pytest.raises(ConfigError):
            apply_smeared(self.basis, self.grid, self.f, self.v, "field")
        self.check(self.f, "segal")

    @pytest.mark.parametrize("which", ["annihilate", "create", "segal"])
    def test_refill_leaves_earlier_results_unchanged(self, which):
        for f, g in ((self.f, self.g), (self.f.real, self.g.real)):  # complex128 and float64
            out = apply_smeared(self.basis, self.grid, f, self.v, which)
            kept = out.copy()
            apply_smeared(self.basis, self.grid, g, self.v, which)
            assert np.array_equal(out, kept)


class TestPrefixProducts:
    """A vector shorter than the basis stands for the one that is zero beyond it."""

    @given(
        m=st.integers(1, 4),
        n_max=st.integers(0, 8),
        which=st.sampled_from(["annihilate", "create", "segal"]),
        real=st.booleans(),
        rows=st.sampled_from([None, 1, 3]),
        boundary=st.booleans(),
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @example(m=4, n_max=8, which="segal", real=True, rows=3, boundary=True, cut=0.5, seed=0)
    @example(m=2, n_max=3, which="annihilate", real=False, rows=None, boundary=False, cut=0.0, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_prefix_call_is_the_leading_rows_of_the_full_call(
        self, m, n_max, which, real, rows, boundary, cut, seed
    ):
        basis = enumerate_basis(m, n_max)
        grid = build_grid(1, 1.0, modes=np.arange(m, dtype=float)[:, None], weights=np.linspace(0.5, 1.5, m))
        # a length on a grade boundary, or anywhere in 0..dim
        n = basis.grade_end(round(cut * n_max)) if boundary else round(cut * basis.dim)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(m) + (0.0 if real else 1j) * rng.standard_normal(m)
        shape = (n,) if rows is None else (rows, n)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        padded = np.zeros((*shape[:-1], basis.dim), complex)
        padded[..., :n] = v
        whole = apply_smeared(basis, grid, f, padded, which)
        prefix = apply_smeared(basis, grid, f, v, which)
        grade = int(basis.grades[n - 1]) if n else -1
        k = basis.dim if n == basis.dim else basis.grade_end(grade - 1 if which == "annihilate" else grade + 1)
        assert prefix.shape == (*shape[:-1], k)

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        assert np.array_equal(bits(prefix), bits(whole[..., :k]))
        assert not whole[..., k:].any()


class TestDiagonals:
    def setup_method(self):
        self.grid, quad, self.basis = make_two_mode(n_max=4)
        ham = HamiltonianSet(self.basis, self.grid, quad)
        self.h0, self.esum = ham.h0, ham.esum

    def test_free_action_on_vacuum(self):
        assert np.all(self.h0(self.basis.vacuum()) == 0.0)

    def test_free_action_single_particle(self):
        v = self.basis.unit((1, 0))
        out = self.h0(v)
        assert out[self.basis.index_of((1, 0))] == pytest.approx(self.grid.omega[0])

    def test_free_action_additive(self):
        v = self.basis.unit((1, 1))
        out = self.h0(v)
        assert out[self.basis.index_of((1, 1))] == pytest.approx(self.grid.omega.sum())

    def test_number_examples(self):
        basis = enumerate_basis(1, 3)
        assert np.all(basis.grades * basis.vacuum() == 0.0)
        out = basis.grades * basis.unit((3,))
        assert out[basis.index_of((3,))] == 3.0

    def test_number_equals_ladder_sum(self):
        basis = enumerate_basis(2, 4)
        v = rand_vec(basis, seed=9)
        lhs = np.vdot(v, basis.grades * v).real
        rhs = sum(
            np.linalg.norm(apply_mode_annihilation(basis, i, v)) ** 2 for i in range(2)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_reduced_inverse_examples(self):
        grid = build_grid(1, 2.0, modes=np.array([[0.0]]), weights=np.array([1.0]))
        basis = enumerate_basis(1, 3)
        esum = basis.states @ grid.omega
        assert np.all(apply_h0perp_inverse(esum, basis.vacuum()) == 0.0)
        out = apply_h0perp_inverse(esum, basis.unit((1,)))
        assert out[basis.index_of((1,))] == pytest.approx(0.5)

    def test_reduced_inverse_is_right_inverse_off_vacuum(self):
        # the inverse must ignore the vacuum entry, however large
        mostly_vacuum = rand_vec(self.basis, seed=12) + 5.0 * self.basis.vacuum()
        for v in (rand_vec(self.basis, seed=11), mostly_vacuum):
            perp = v.copy()
            perp[0] = 0.0
            out = apply_h0perp_inverse(self.esum, v)
            assert out[0] == 0.0
            assert np.array_equal(out, apply_h0perp_inverse(self.esum, perp))
            assert np.linalg.norm(self.h0(out) - perp) < 1e-13 * np.linalg.norm(v)

    def test_reduced_inverse_shift_validation(self):
        with pytest.raises(ConfigError):
            apply_h0perp_inverse(self.esum, rand_vec(self.basis), shift=10.0)


class TestHandleContract:
    def test_hermiticity_invariant(self, two_mode_model):
        grid, quad, basis, ham = two_mode_model
        rng = np.random.default_rng(21)
        norm_est = np.linalg.norm(handle_matrix(ham.hi), 2)
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
        handle = OperatorHandle(apply=lambda v: 2.0 * v, dim=3)
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
