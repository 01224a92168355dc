"""Parity sectors of H(kappa) against the dense oracle.

phi^4 changes the boson number by 0, +-2 or +-4, so H(kappa) has no matrix
element between even and odd states.  The sector handles of ``HamiltonianSet``
(``ham.even``, ``ham.odd``) must equal the dense diagonal blocks, compose to
the full handle, and carry the solvers: the ground state in the even block,
the pull-through resolvents in the odd block.
"""

import dataclasses
from pathlib import Path

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
from phi4lab import hamiltonian, verify
from phi4lab.config import build_model, parse_config
from phi4lab.hamiltonian import HamiltonianSet, mirror_fold
from phi4lab.verify import check_pull_through

from conftest import field_handle, make_reference


def make_planar(n_max=4):
    grid = build_grid(2, 1.0, CutoffSpec("indicator", (10.0,)), kmax=1.0, modes_per_axis=2)
    quad = build_spatial_quadrature(2, CutoffSpec("indicator", (1.0,)), 3)
    return grid, quad, enumerate_basis(grid.num_modes, n_max)


def make_asymmetric(n_max=8):
    """The reference grid with the spatial cutoff [-1, 0.5]: no node has its mirror."""
    grid, _, basis = make_reference(n_max)
    return grid, build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 0.5)), 9), basis


MODELS = {"reference": make_reference, "planar": make_planar}
ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
SHIPPED_CONFIGS += sorted((ROOT / "phi4bench" / "configs").glob("*.ini"))


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
    # a float64 column takes the mirror fold, a complex one the per-node path
    _, _, _, ham, dense = model
    hk = dense.hk(kappa)
    for sector in (ham.even, ham.odd):
        block = hk[np.ix_(sector.index, sector.index)]
        for dtype in (complex, np.float64):
            got = handle_matrix(sector.hkappa(kappa), dtype)
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


# ---------------------------------------------------------------------------
# the mirror fold: real arithmetic in the sectors of a mirror-symmetric model


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_every_shipped_config_is_mirror_symmetric(path):
    # a quadrature change that loses the symmetry would silently lose the real path
    grid, quad, basis = build_model(dataclasses.replace(parse_config(path), n_max=2))
    ham = HamiltonianSet(basis, grid, quad)
    assert ham.fold is not None and ham.even.real and ham.odd.real
    assert ham.even.hkappa(0.05).real and ham.odd.hi.real and not ham.hkappa(0.05).real


@pytest.mark.parametrize("n", [9, 13, 21, 25, 41])
def test_symmetric_quadrature_nodes_are_exact_mirrors(n):
    # np.linspace(-1, 1, n) misses the mirror by an ulp at 13, 21, 25 and 41 nodes
    grid, _, basis = make_reference(n_max=2)
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), n)
    nodes = quad.nodes[:, 0]
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.abs(nodes - np.linspace(-1.0, 1.0, n)).max() <= 1.2e-16
    assert n != 9 or np.array_equal(nodes, np.linspace(-1.0, 1.0, 9))
    assert HamiltonianSet(basis, grid, quad).fold is not None


def test_the_fold_takes_one_node_per_mirror_pair(model):
    ham = model[3]
    fold = ham.fold
    at_origin = ~ham.nodes[fold.index].any(axis=1)
    assert at_origin.sum() == 1 and len(fold.index) == (len(ham.nodes) + 1) // 2
    assert np.array_equal(fold.coef, np.where(at_origin, 1.0, 2.0) * ham.coef[fold.index])
    assert fold.coef.sum() == pytest.approx(ham.coef.sum(), rel=1e-15)


def test_one_ulp_off_a_mirror_weight_fails_the_mirror_test(model):
    grid, quad, basis, ham, _ = model
    j = int(np.flatnonzero(ham.nodes.any(axis=1))[0])  # a node off the origin
    coef = ham.coef.copy()
    coef[j] = np.nextafter(coef[j], np.inf)
    assert mirror_fold(ham.nodes, ham.coef) is not None and mirror_fold(ham.nodes, coef) is None
    k = int(np.flatnonzero((quad.nodes == ham.nodes[j]).all(axis=1))[0])
    weights = quad.weights.copy()
    weights[k] = np.nextafter(weights[k], np.inf)
    off = HamiltonianSet(basis, grid, dataclasses.replace(quad, weights=weights))
    assert off.fold is None and not off.even.real and not off.odd.hkappa(0.05).real


def test_real_sector_handles_agree_with_the_complex_path(model, monkeypatch):
    # one column per mirror pair and per node at the origin, each two float64 columns,
    # in the sectors and on the full space
    _, _, _, ham, _ = model
    widths = []
    for cls in (hamiltonian.scipy.sparse.csr_matrix, hamiltonian.scipy.sparse.csc_matrix):
        monkeypatch.setattr(
            cls, "__matmul__", lambda op, x, _m=cls.__matmul__: widths.append(x.shape[1]) or _m(op, x)
        )
    rng = np.random.default_rng(4)
    for space in (ham.even, ham.odd, ham):
        v = rng.standard_normal(space.hi.dim)
        for handle in (space.hi, space.hkappa(0.05)):
            widths.clear()
            real = handle(v)
            assert real.dtype == np.float64 and widths == [2 * len(ham.fold.index)] * 4
            widths.clear()
            per_node = handle(v.astype(complex))
            assert widths == [2 * len(ham.nodes)] * 4
            assert np.abs(real - per_node).max() <= 1e-14 * np.abs(per_node).max()


def test_the_folded_source_is_the_per_node_source(model):
    # the pull-through source of a real psi: real by construction, not by dropping
    # the roundoff imaginary part of the per-node sum
    grid, _, basis, ham, _ = model
    psi = ham.even.embed(np.random.default_rng(5).standard_normal(ham.even.dim))
    sources = ham.field_powers(psi, 3) * ham.coef
    for i in range(basis.num_modes):
        phase = np.exp(-1j * (ham.nodes @ grid.modes[i]))
        per_node, folded = sources @ phase, ham.node_sum(psi, 3, phase)
        assert folded.dtype == np.float64
        assert np.abs(folded - per_node).max() <= 1e-14 * np.abs(per_node).max()
        assert np.array_equal(ham.node_sum(psi.astype(complex), 3, phase), per_node)


def test_the_checks_of_a_real_ground_state_read_only_the_folded_phase_table(monkeypatch):
    # every node sum of check_state takes the fold: the sectors', the full space's and
    # the pull-through sources
    params = parse_config(ROOT / "configs" / "reference.ini")
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    state = ground_state(ham.even.hkappa(params.coupling), ham.even.dim, tol=params.eig_tol, seed=params.seed)
    state.vector = ham.even.embed(state.vector)
    widths = []
    monkeypatch.setattr(
        hamiltonian,
        "_field_powers",
        lambda phases, *rest, _f=hamiltonian._field_powers: widths.append(phases.shape[1]) or _f(phases, *rest),
    )
    _, outcomes = verify.check_state(state, params.coupling, ham, params)
    assert all(o.passed for o in outcomes)
    assert len(widths) >= 4 and set(widths) == {len(ham.fold.index)} and len(ham.fold.index) < len(ham.nodes)


def test_the_suite_fails_on_a_dropped_imaginary_part():
    # pyproject's filterwarnings: a complex-to-float64 cast is an error, not a warning
    out = np.zeros(2)
    with pytest.raises(np.exceptions.ComplexWarning):
        out[:] = np.array([1.0 + 1.5e-13j, 1.0])


def test_ground_state_and_pull_through_run_real(monkeypatch):
    grid, quad, basis = make_reference()
    ham = HamiltonianSet(basis, grid, quad)
    kinds = []
    monkeypatch.setattr(
        verify, "solve_shifted", lambda h, s, rhs, **kw: kinds.append(rhs.dtype) or solve_shifted(h, s, rhs, **kw)
    )
    state = ground_state(ham.even.hkappa(0.05), ham.even.dim, tol=1e-11, seed=7)
    assert state.vector.dtype == np.float64
    state.vector = ham.even.embed(state.vector)
    assert state.vector.dtype == np.float64
    outcomes = check_pull_through(state, 0.05, ham)
    assert kinds == [np.float64] * basis.num_modes
    assert all(o.passed and o.context["cg_residual"] <= 1e-12 for o in outcomes)


def test_an_asymmetric_cutoff_keeps_the_complex_path():
    grid, quad, basis = make_asymmetric()
    ham, dense = HamiltonianSet(basis, grid, quad), DenseModel(grid, quad, basis.n_max)
    assert ham.fold is None and not ham.even.real and not ham.odd.real
    v = np.random.default_rng(6).standard_normal(ham.even.dim)
    assert np.array_equal(ham.even.hi(v), ham.even.hi(v.astype(complex)))
    hk = dense.hk(0.05)
    assert np.abs(hk.imag).max() > 1e-3  # the dense oracle is complex Hermitian here
    for sector in (ham.even, ham.odd):
        block = hk[np.ix_(sector.index, sector.index)]
        assert np.abs(handle_matrix(sector.hkappa(0.05)) - block).max() <= 1e-14 * np.abs(block).max()
    state = ground_state(ham.even.hkappa(0.05), ham.even.dim, tol=1e-11, seed=7)
    assert state.vector.dtype == complex
    assert abs(state.e0 - dense.ground(0.05)[0]) <= 1e-12
    state.vector = ham.even.embed(state.vector)
    outcomes = check_pull_through(state, 0.05, ham)
    # bit for bit the numbers of the per-node path, recorded before the fold existed
    assert (state.e0, state.iterations) == (0.44610311297894256, 74)
    assert [o.measured for o in outcomes] == [0.08091520830334364, 0.07994884460036301, 0.08091520830334357]
