"""Parity sectors of H(kappa) against the dense oracle.

phi^4 changes the boson number by 0, +-2 or +-4, so H(kappa) has no matrix
element between even and odd states.  The sector handles of ``HamiltonianSet``
(``ham.even``, ``ham.odd``) must equal the dense diagonal blocks, compose to
the full handle, and carry the solvers: the ground state in the even block,
the pull-through resolvents in the odd block.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import DenseModel, handle_matrix

from phi4lab import (
    ConfigError,
    CutoffSpec,
    build_grid,
    compute_constants,
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


def build_sectors(name):
    """A model of ``MODELS``, or the reference model at depth n (``depth-n``), with its set
    and dense oracle.  Its sectors are assembled, or with ``-matrix-free`` built as those
    of a model over the assembly budget."""
    base = name.removesuffix("-matrix-free")
    grid, quad, basis = make_reference(n_max=int(base[6:])) if base.startswith("depth-") else MODELS[base]()
    ham = HamiltonianSet(basis, grid, quad)
    with pytest.MonkeyPatch.context() as patch:
        if name.endswith("-matrix-free"):
            patch.setattr(hamiltonian, "_sector_interactions", lambda ham: None)
        assert ham.even.real and ham.odd.real  # both sectors are built here
    return grid, quad, basis, ham, DenseModel(grid, quad, basis.n_max)


PATHS = ("", "-matrix-free")


@pytest.fixture(scope="module", params=[m + p for p in PATHS for m in sorted(MODELS)])
def paths(request):
    return build_sectors(request.param)


@pytest.fixture(scope="module", params=[m + p for p in PATHS for m in (*sorted(MODELS), "depth-0", "depth-1")])
def sectors(request):
    # depth 0 has an empty odd sector, depth 1 an even sector of the vacuum alone
    return build_sectors(request.param)


def rand_vec(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_sectors_split_the_basis_by_grade_parity(sectors):
    grid, quad, basis, ham, _ = sectors
    even, odd = ham.even, ham.odd
    assert np.all(basis.grades[even.index] % 2 == 0) and np.all(basis.grades[odd.index] % 2 == 1)
    assert np.array_equal(np.sort(np.concatenate([even.index, odd.index])), np.arange(basis.dim))
    assert even.index[0] == 0  # the vacuum leads the even sector
    assert np.array_equal(even.esum, ham.esum[even.index])
    # a matrix-free sector keeps its rows of the phase table; an assembled one its HI
    # matrix, and not the phase rows it no longer reads
    for sector in (even, odd):
        if sector.matrix is None:
            assert np.array_equal(sector.phases, ham.phases[sector.index])
        else:
            assert sector.matrix.shape == (sector.dim, sector.dim) and not hasattr(sector, "phases")


@pytest.mark.parametrize("kappa", [0.05, 0.3])
def test_dense_hamiltonian_has_no_parity_changing_block(model, kappa):
    _, _, _, ham, dense = model
    hk = dense.hk(kappa)
    assert np.all(hk[np.ix_(ham.even.index, ham.odd.index)] == 0.0)
    assert np.all(hk[np.ix_(ham.odd.index, ham.even.index)] == 0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.3])
def test_sector_handles_equal_the_dense_blocks(sectors, kappa):
    # an assembled sector takes a complex column through its float64 view; a matrix-free
    # one takes a float64 column through the mirror fold, a complex one per node
    _, _, _, ham, dense = sectors
    hk = dense.hk(kappa)
    for sector in (ham.even, ham.odd):
        block = hk[np.ix_(sector.index, sector.index)]
        for dtype in (complex, np.float64):
            got = handle_matrix(sector.hkappa(kappa), dtype)
            assert np.abs(got - block).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(block).max(initial=0.0))


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


def test_full_handle_is_the_two_sectors_composed(sectors):
    _, _, basis, ham, _ = sectors
    v = rand_vec(basis.dim, seed=5)
    for kappa in (0.0, 0.05, 0.3):
        full = ham.hkappa(kappa)(v)
        composed = sum(s.embed(s.hkappa(kappa)(v[s.index])) for s in (ham.even, ham.odd))
        assert np.abs(full - composed).max() <= 1e-14 * np.abs(full).max()
    with pytest.raises(ConfigError, match="nonnegative"):
        ham.even.hkappa(-0.1)


def test_sector_matvecs_are_float64_block_products(monkeypatch):
    # an assembled sector's matvec is one float64 product of its HI matrix, on a float64
    # vector or on the float64 view of a complex one; a matrix-free sector's is four
    # float64 products of origin_block or its transpose
    assembled, free = (build_sectors(name)[3] for name in ("reference", "reference-matrix-free"))
    calls, products = [], []
    monkeypatch.setattr(hamiltonian, "apply_smeared", lambda *a: calls.append(a))
    for cls in (hamiltonian.scipy.sparse.csr_matrix, hamiltonian.scipy.sparse.csc_matrix):
        monkeypatch.setattr(
            cls, "__matmul__", lambda op, x, _m=cls.__matmul__: products.append((op, x.dtype)) or _m(op, x)
        )
    block = free.origin_block
    for ham in (assembled, free):
        for sector in (ham.even, ham.odd):
            for v in (rand_vec(sector.dim, seed=7), rand_vec(sector.dim, seed=7).real):
                products.clear()
                sector.hkappa(0.05)(v)
                assert all(op.dtype == dtype == np.float64 for op, dtype in products)
                if ham is assembled:
                    assert len(products) == 1 and products[0][0] is sector.matrix
                    continue
                shapes = [block.shape, block.T.shape] if sector is ham.even else [block.T.shape, block.shape]
                assert [op.shape for op, _ in products] == shapes * 2
                assert all(np.shares_memory(op.data, block.data) for op, _ in products)
    assert calls == []


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


def test_real_sector_handles_agree_with_the_complex_path(paths, monkeypatch):
    # in an assembled sector, one product of its matrix: a float64 vector as it is, a complex
    # one as two float64 columns; in a matrix-free sector and on the full space, four field
    # products, of a float64 vector on one column per mirror pair and per node at the origin,
    # each two float64 columns, and of a complex one on one column per node
    _, _, _, ham, _ = paths
    shapes = []
    for cls in (hamiltonian.scipy.sparse.csr_matrix, hamiltonian.scipy.sparse.csc_matrix):
        monkeypatch.setattr(
            cls, "__matmul__", lambda op, x, _m=cls.__matmul__: shapes.append(x.shape) or _m(op, x)
        )
    rng = np.random.default_rng(4)
    dim = ham.basis.dim
    for space in (ham.even, ham.odd, ham):
        v = rng.standard_normal(space.hi.dim)
        full = v if space is ham else space.embed(v)
        index = np.arange(dim) if space is ham else space.index
        if space is not ham and space.matrix is not None:
            real_shapes, complex_shapes = [(space.dim,)], [(space.dim, 2)]
        else:
            rows = [dim] * 4 if space is ham else [space.dim, dim - space.dim] * 2
            real_shapes = [(r, 2 * len(ham.fold.index)) for r in rows]
            complex_shapes = [(r, 2 * len(ham.nodes)) for r in rows]
        for handle, full_handle in ((space.hi, ham.hi), (space.hkappa(0.05), ham.hkappa(0.05))):
            shapes.clear()
            real = handle(v)
            assert real.dtype == np.float64 and shapes == real_shapes
            shapes.clear()
            cast = handle(v.astype(complex))
            assert shapes == complex_shapes
            per_node = full_handle(full.astype(complex))[index]  # the full space's complex path
            for got in (real, cast):
                assert np.abs(got - per_node).max() <= 1e-14 * np.abs(per_node).max()


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
    # every node sum of check_state takes the fold: the pull-through sources, and where the
    # sectors are matrix-free the sectors' and the full space's
    params = parse_config(ROOT / "configs" / "reference.ini")
    grid, quad, basis = build_model(params)
    widths, products = [], []
    monkeypatch.setattr(
        hamiltonian,
        "_field_powers",
        lambda phases, *rest, _f=hamiltonian._field_powers: widths.append(phases.shape[1]) or _f(phases, *rest),
    )
    monkeypatch.setattr(
        hamiltonian,
        "_real_product",
        lambda m, x, _f=hamiltonian._real_product: products.append((m, x.dtype)) or _f(m, x),
    )
    for free in (False, True):
        ham = HamiltonianSet(basis, grid, quad)
        if free:
            monkeypatch.setattr(hamiltonian, "_sector_interactions", lambda ham: None)
        state = ground_state(ham.even.hkappa(params.coupling), ham.even.dim, tol=params.eig_tol, seed=params.seed)
        state.vector = ham.even.embed(state.vector)
        widths.clear(), products.clear()
        _, outcomes = verify.check_state(state, params.coupling, ham, params)
        assert all(o.passed for o in outcomes) and len(ham.fold.index) < len(ham.nodes)
        if free:
            assert products == [] and len(widths) >= 4 and set(widths) == {len(ham.fold.index)}
            continue
        # the node sums left are the pull-through sources, one per mode, through the fold
        assert widths == [len(ham.fold.index)] * basis.num_modes
        # every HI product is a float64 product of a sector's matrix: per mode the commutator's,
        # the certificate's and one per CG iteration, plus HI psi and the eigenprojection's HI
        matrices = (ham.even.matrix, ham.odd.matrix)
        cg = sum(o.context.get("cg_iterations", 0) for o in outcomes)
        assert cg > 0 and len(products) == 2 * basis.num_modes + cg + 2
        assert all(any(m is s for s in matrices) and dtype == np.float64 for m, dtype in products)


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


# ---------------------------------------------------------------------------
# the assembled sectors: HI on each sector as one real CSR matrix, built once


def test_the_sector_matrices_are_the_dense_interaction_blocks(model):
    # real, exactly symmetric, and within the budget: no more entries than one
    # matrix-free sector product makes complex multiply-adds
    _, _, _, ham, dense = model
    hi = dense.hi()
    budget = 4 * len(ham.fold.index) * ham.origin_block.nnz
    for sector in (ham.even, ham.odd):
        matrix = sector.matrix
        assert matrix.dtype == np.float64 and matrix.nnz <= budget
        assert (matrix != matrix.T).nnz == 0
        block = hi[np.ix_(sector.index, sector.index)]
        assert np.abs(matrix.toarray() - block).max() <= 1e-14 * np.abs(block).max()


def test_the_hbound_rows_by_parity_equal_the_per_vector_products():
    # check_hbound's interior blocks: each parity part of five complex rows is one
    # product, through the float64 view, of the first columns of its sector's matrix
    grid, quad, basis = make_reference(n_max=12)
    ham = HamiltonianSet(basis, grid, quad)
    for block in verify._interior_blocks(basis, verify.INEQUALITY_REACH, 10, seed=3):
        assert block.shape == (verify.BLOCK_ROWS, basis.grade_end(basis.n_max - verify.INEQUALITY_REACH))
        got, want = ham.hi_rows(block), np.stack([ham.hi(v) for v in block])
        reach = basis.grade_end(basis.n_max - verify.INEQUALITY_REACH + 4)  # the prefix HI reaches
        assert got.dtype == complex and got.shape == want.shape == (len(block), reach)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # a float64 vector of one parity, of both, and a prefix of each
    rng = np.random.default_rng(8)
    for v in (ham.even.embed(rng.standard_normal(ham.even.dim)), ham.odd.embed(rng.standard_normal(ham.odd.dim))):
        for u in (v, v + v[::-1], v[: basis.grade_end(7)]):
            got, want = ham.hi_rows(u), ham.hi(u.astype(complex))
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            got, want = ham.hkappa_rows(0.05, u), ham.hkappa(0.05)(u.astype(complex))
            assert got.dtype == np.float64 and np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_the_hbound_of_an_assembled_model_matches_the_per_vector_check(monkeypatch):
    grid, quad, basis = make_reference(n_max=12)
    fam = verify.optimize_epsilon(0.05, 0.58, grid, quad)
    assembled = verify.check_hbound(fam, HamiltonianSet(basis, grid, quad), count=20, seed=3)
    monkeypatch.setattr(hamiltonian, "_sector_interactions", lambda ham: None)
    per_vector = verify.check_hbound(fam, HamiltonianSet(basis, grid, quad), count=20, seed=3)
    assert assembled.status == per_vector.status == "pass"
    slack = (assembled.context["min_slack"], per_vector.context["min_slack"])
    assert slack[0] == pytest.approx(slack[1], rel=1e-13)
    assert assembled.measured == pytest.approx(per_vector.measured, rel=1e-12)


def test_a_wide_model_keeps_the_matrix_free_sectors():
    # the 2-D model of verify_wide.ini: the sector matrices would store 6.0 (even) and
    # 1.8 (odd) times the budget, so neither is assembled
    params = parse_config(ROOT / "phi4bench" / "configs" / "verify_wide.ini")
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    assert ham.fold is not None and ham.even.real and ham.odd.real
    assert ham._interactions is None and ham.even.matrix is None and ham.odd.matrix is None
    assert np.array_equal(ham.odd.phases, ham.phases[ham.odd.index])
    v = np.random.default_rng(2).standard_normal(ham.even.dim)
    want = ham.hi(ham.even.embed(v).astype(complex))[ham.even.index]
    assert np.abs(ham.even.hi(v) - want).max() <= 1e-14 * np.abs(want).max()
    block = next(verify._interior_blocks(basis, 4, 5, seed=1))
    assert np.array_equal(ham.hi_rows(block), np.stack([ham.hi(v) for v in block]))
    hk = ham.hkappa(0.05)
    assert np.array_equal(ham.hkappa_rows(0.05, block[0]), hk(block[0]))


def test_a_refused_assembly_holds_about_its_budget():
    # verify_wide.ini's model at depth 8 (dim 24,310): B^T B alone stores 0.73 of the
    # budget, so the count of its square runs in row blocks and stops once past the budget,
    # each entry 8 bytes of value and 4 of column index
    params = parse_config(ROOT / "phi4bench" / "configs" / "verify_wide.ini")
    grid, quad, basis = build_model(dataclasses.replace(params, n_max=8))
    ham = HamiltonianSet(basis, grid, quad)
    budget = 4 * len(ham.fold.index) * ham.origin_block.nnz
    tracemalloc.start()
    try:
        assert hamiltonian._sector_interactions(ham) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 12 * budget


def test_both_sectors_are_assembled_or_neither():
    # five modes at depth 8: the odd sector would fit its budget (0.66), the even one not (1.23)
    grid = build_grid(1, 1.0, CutoffSpec("indicator", (-10.0, 10.0)), kmax=3.0, modes_per_axis=5)
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 9)
    ham = HamiltonianSet(enumerate_basis(grid.num_modes, 8), grid, quad)
    assert ham.fold is not None and ham._interactions is None
    assert ham.even.matrix is None and ham.odd.matrix is None and ham.odd.real


def test_an_asymmetric_model_assembles_no_sector():
    grid, quad, basis = make_asymmetric()
    ham = HamiltonianSet(basis, grid, quad)
    assert ham.fold is None and ham._interactions is None
    for sector in (ham.even, ham.odd):
        assert sector.matrix is None and np.array_equal(sector.phases, ham.phases[sector.index])
    block = next(verify._interior_blocks(basis, 4, 5, seed=1))
    assert np.array_equal(ham.hi_rows(block), np.stack([ham.hi(v) for v in block]))


def test_set_up_and_the_theory_constants_build_no_sector(monkeypatch):
    # the benchmark's set-up applies HI to the complex vacuum, and the constants apply it
    # to complex vectors: both stay on the full space's per-node path
    built = []
    monkeypatch.setattr(hamiltonian, "_sector_interactions", lambda ham: built.append(ham))
    params = parse_config(ROOT / "phi4bench" / "configs" / "deep_solve.ini")
    grid, quad, basis = build_model(dataclasses.replace(params, n_max=10))
    ham = HamiltonianSet(basis, grid, quad)
    ham.hi(basis.vacuum())
    compute_constants(ham)
    assert built == [] and not {"even", "odd", "_interactions"} & set(vars(ham))


def test_the_deep_solve_model_is_assembled_within_its_budget():
    params = parse_config(ROOT / "phi4bench" / "configs" / "deep_solve.ini")
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    budget = 4 * len(ham.fold.index) * ham.origin_block.nnz
    even, odd = ham._interactions
    assert (even.nnz, odd.nnz) == (53566, 45795) and max(even.nnz, odd.nnz) <= 0.6 * budget
    assert even is ham.even.matrix and odd is ham.odd.matrix
    assert "origin_block" not in vars(ham)  # kept until the assembly, which no longer reads it


@pytest.mark.parametrize("modes", [20, 21])
def test_the_keys_of_delta_fit_an_int64_up_to_20_modes(modes):
    # at depth 1 and 41 nodes both sectors fit their budget; past 20 modes a balanced
    # base-9 key of delta overflows an int64, so the sectors stay matrix-free
    grid = build_grid(1, 1.0, CutoffSpec("indicator", (-100.0, 100.0)), kmax=10.0, modes_per_axis=modes)
    quad = build_spatial_quadrature(1, CutoffSpec("indicator", (-1.0, 1.0)), 41)
    basis = enumerate_basis(modes, 1)
    ham, dense = HamiltonianSet(basis, grid, quad), DenseModel(grid, quad, 1)
    block = ham.origin_block
    budget = 4 * len(ham.fold.index) * block.nnz
    assert hamiltonian._weighted_square(ham, block, block.T.tocsr(), 1, budget) is not None
    assert (ham._interactions is not None) == (modes == 20) and ham.odd.real
    hk = dense.hk(0.05)
    for sector in (ham.even, ham.odd):
        block = hk[np.ix_(sector.index, sector.index)]
        got = handle_matrix(sector.hkappa(0.05), np.float64)
        assert np.abs(got - block).max() <= 1e-14 * np.abs(block).max()
