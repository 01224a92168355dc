"""Parity sectors of H(kappa) against the dense oracle.

phi^4 changes the boson number by 0, +-2 or +-4, so H(kappa) has no matrix
element between even and odd states.  The sector handles of ``HamiltonianSet``
(``ham.even``, ``ham.odd``) must equal the dense diagonal blocks, compose to
the full handle, and carry the solvers: the ground state in the even block,
the pull-through resolvents in the odd block.
"""

import numpy as np
import pytest

from oracles import DenseModel, handle_matrix

from phi4lab import (
    ConfigError,
    CutoffSpec,
    build_grid,
    build_spatial_quadrature,
    enumerate_basis,
    ground_state,
    solve_shifted,
)
from phi4lab import hamiltonian
from phi4lab.hamiltonian import HamiltonianSet
from phi4lab.verify import check_pull_through

from conftest import field_handle, make_reference


def make_planar(n_max=4):
    grid = build_grid(2, 1.0, CutoffSpec("indicator", (10.0,)), kmax=1.0, modes_per_axis=2)
    quad = build_spatial_quadrature(2, CutoffSpec("indicator", (1.0,)), 3)
    return grid, quad, enumerate_basis(grid.num_modes, n_max)


MODELS = {"reference": make_reference, "planar": make_planar}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    grid, quad, basis = MODELS[request.param]()
    return grid, quad, basis, HamiltonianSet(basis, grid, quad), DenseModel(grid, quad, basis.n_max)


def rand_vec(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_sectors_split_the_basis_by_grade_parity(model):
    grid, quad, basis, ham, _ = model
    even, odd = ham.even, ham.odd
    assert np.all(basis.grades[even.index] % 2 == 0) and np.all(basis.grades[odd.index] % 2 == 1)
    assert np.array_equal(np.sort(np.concatenate([even.index, odd.index])), np.arange(basis.dim))
    assert even.index[0] == 0  # the vacuum leads the even sector
    assert np.array_equal(even.esum, ham.esum[even.index])
    assert np.array_equal(odd.phases, ham.phases[odd.index])


@pytest.mark.parametrize("kappa", [0.05, 0.3])
def test_dense_hamiltonian_has_no_parity_changing_block(model, kappa):
    _, _, _, ham, dense = model
    hk = dense.hk(kappa)
    assert np.all(hk[np.ix_(ham.even.index, ham.odd.index)] == 0.0)
    assert np.all(hk[np.ix_(ham.odd.index, ham.even.index)] == 0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.3])
def test_sector_handles_equal_the_dense_blocks(model, kappa):
    _, _, _, ham, dense = model
    hk = dense.hk(kappa)
    for sector in (ham.even, ham.odd):
        block = hk[np.ix_(sector.index, sector.index)]
        got = handle_matrix(sector.hkappa(kappa))
        assert np.abs(got - block).max() <= 1e-14 * max(1.0, np.abs(block).max())


def test_origin_block_is_the_segal_field_at_the_origin(model):
    grid, _, basis, ham, _ = model
    field = handle_matrix(field_handle(basis, grid, np.zeros(grid.dimension)))
    block = ham.origin_block
    assert block.dtype == np.float64
    assert np.array_equal(block.toarray(), field[np.ix_(ham.odd.index, ham.even.index)].real)
    assert np.array_equal(block.T.toarray(), field[np.ix_(ham.even.index, ham.odd.index)].real)
    assert not field.imag.any()
    assert block.nnz == len(basis.ladders.src)


def test_field_powers_are_the_dense_field_powers_at_every_node(model):
    _, _, basis, ham, dense = model
    v = rand_vec(basis.dim, seed=8)
    columns = np.stack([rand_vec(basis.dim, seed=20 + j) for j in range(len(ham.nodes))], axis=1)
    fields = [dense.phi(x) for x in ham.nodes]
    for power in range(1, 5):
        for given, column in ((v, lambda j: v), (columns, lambda j: columns[:, j])):
            got = ham.field_powers(given, power)
            assert got.shape == (basis.dim, len(ham.nodes))
            for j, field in enumerate(fields):
                want = np.linalg.matrix_power(field, power) @ column(j)
                assert np.abs(got[:, j] - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_full_handle_is_the_two_sectors_composed(model):
    _, _, basis, ham, _ = model
    v = rand_vec(basis.dim, seed=5)
    for kappa in (0.0, 0.05, 0.3):
        full = ham.hkappa(kappa)(v)
        composed = sum(s.embed(s.hkappa(kappa)(v[s.index])) for s in (ham.even, ham.odd))
        assert np.abs(full - composed).max() <= 1e-14 * np.abs(full).max()
    with pytest.raises(ConfigError, match="nonnegative"):
        ham.even.hkappa(-0.1)


def test_sector_matvecs_are_float64_block_products(monkeypatch):
    grid, quad, basis = make_reference()
    ham = HamiltonianSet(basis, grid, quad)
    sectors = (ham.even, ham.odd)
    calls, products = [], []
    monkeypatch.setattr(hamiltonian, "apply_smeared", lambda *a: calls.append(a))
    for cls in (hamiltonian.scipy.sparse.csr_matrix, hamiltonian.scipy.sparse.csc_matrix):
        monkeypatch.setattr(
            cls, "__matmul__", lambda op, x, _m=cls.__matmul__: products.append(op.dtype) or _m(op, x)
        )
    for sector in sectors:
        sector.hkappa(0.05)(rand_vec(sector.dim, seed=7))
    assert calls == [] and products == [np.float64] * 8


def test_sector_handles_refuse_vectors_of_another_length():
    # a sector vector is no basis prefix: every handle names both lengths
    grid, quad, basis = make_reference(n_max=8)
    ham = HamiltonianSet(basis, grid, quad)
    for name, sector in (("even", ham.even), ("odd", ham.odd)):
        for handle in (sector.h0, sector.hi, sector.hkappa(0.0), sector.hkappa(0.05)):
            for length in (10, sector.dim + 1):
                needle = f"the {name} sector holds {sector.dim} states, the vector {length} entries"
                with pytest.raises(ConfigError, match=needle):
                    handle(np.zeros(length, complex))


def test_embed_is_zero_off_the_sector(model):
    _, _, basis, ham, _ = model
    v = rand_vec(ham.odd.dim, seed=6)
    full = ham.odd.embed(v)
    assert full.shape == (basis.dim,)
    assert np.array_equal(full[ham.odd.index], v) and not full[ham.even.index].any()


def test_depth_zero_has_an_empty_odd_sector():
    grid, quad, basis = make_reference(n_max=0)
    ham = HamiltonianSet(basis, grid, quad)
    assert ham.odd.dim == 0 and ham.even.dim == 1
    assert ham.odd.hkappa(0.05)(np.zeros(0, complex)).shape == (0,)
    state = ground_state(ham.even.hkappa(0.05), ham.even.dim, seed=1)
    state.vector = ham.even.embed(state.vector)
    assert state.e0 == pytest.approx(0.0, abs=1e-14)  # <vac, HI vac> needs two quanta
    outcomes = check_pull_through(state, 0.05, ham)
    assert len(outcomes) == basis.num_modes
    assert all(o.context["cg_iterations"] == 0 for o in outcomes)


def test_depth_one_even_sector_is_the_vacuum():
    grid, quad, basis = make_reference(n_max=1)
    ham = HamiltonianSet(basis, grid, quad)
    assert np.array_equal(ham.even.index, [0])
    assert np.array_equal(ham.odd.index, np.arange(1, basis.dim))
    dense = DenseModel(grid, quad, 1).hk(0.05)
    assert abs(handle_matrix(ham.even.hkappa(0.05))[0, 0] - dense[0, 0]) <= 1e-15
    state = ground_state(ham.even.hkappa(0.05), 1, seed=1)
    assert state.e0 == pytest.approx(dense[0, 0].real, abs=1e-15) and state.iterations == 2


class TestSolversInTheirSectors:
    @pytest.fixture(scope="class")
    def reference(self):
        grid, quad, basis = make_reference()
        ham = HamiltonianSet(basis, grid, quad)
        return grid, quad, basis, ham, DenseModel(grid, quad, basis.n_max)

    @pytest.mark.parametrize("kappa", [0.05, 0.2])
    def test_even_ground_state_matches_dense(self, reference, kappa):
        _, _, _, ham, dense = reference
        e_dense, vec_dense, _ = dense.ground(kappa)
        even = ham.even
        e_block = np.linalg.eigvalsh(dense.hk(kappa)[np.ix_(even.index, even.index)])
        for seed in (3, 7, 11):
            res = ground_state(even.hkappa(kappa), even.dim, seed=seed)
            assert abs(res.e0 - e_dense) <= 1e-12, seed
            assert abs(res.gap_estimate - (e_block[1] - e_block[0])) <= 1e-8, seed
            overlap = abs(np.vdot(vec_dense, even.embed(res.vector)))
            assert overlap == pytest.approx(1.0, abs=1e-10)
        # the even-sector gap is not the full one: the first excited state is odd
        full = np.linalg.eigvalsh(dense.hk(kappa))
        assert e_block[1] - e_block[0] > full[1] - full[0] + 0.5

    def test_odd_pull_through_solve_equals_the_full_solve(self, reference):
        grid, _, basis, ham, _ = reference
        kappa = 0.05
        even, odd = ham.even, ham.odd
        state = ground_state(even.hkappa(kappa), even.dim, tol=1e-12, seed=7)
        psi = even.embed(state.vector)
        sources = ham.field_powers(psi, 3) * ham.coef
        for i in range(basis.num_modes):
            omega = float(grid.omega[i])
            rhs = sources @ np.exp(-1j * (ham.nodes @ grid.modes[i]))
            assert not rhs[even.index].any()  # phi^3 of an even vector is odd
            shift = omega - state.e0
            full, _, _ = solve_shifted(
                ham.hkappa(kappa), shift, rhs, precond=ham.esum + omega, emin=state.e0, tol=1e-14
            )
            part, _, _ = solve_shifted(
                odd.hkappa(kappa), shift, rhs[odd.index], precond=odd.esum + omega,
                emin=state.e0, tol=1e-14,
            )
            assert np.abs(odd.embed(part) - full).max() <= 1e-12 * np.abs(full).max()
