"""Tests of the benchmark itself: tracer, span arithmetic, golden and determinism checks."""

import copy
import dataclasses
import json
import sys

import pytest

import phi4lab
import phi4lab.cli
import phi4lab.fock
import phi4lab.spectral
from phi4bench import goldens, run, spans
from phi4bench.workloads import ROOT, WORKLOADS


def _phi4lab_bindings():
    """Every attribute of every loaded phi4lab module and traced class."""
    owners = [m for k, m in sys.modules.items() if k == "phi4lab" or k.startswith("phi4lab.")]
    owners += [phi4lab.hamiltonian.HamiltonianSet, phi4lab.fock.OperatorHandle]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _phi4lab_bindings()
    original = phi4lab.fock.apply_smeared
    with spans.Tracer():
        for module in (phi4lab, phi4lab.fock, phi4lab.hamiltonian, phi4lab.verify):
            assert module.apply_smeared is not original
            assert module.apply_smeared.__wrapped__ is original
        assert phi4lab.cli.ground_state.__wrapped__ is phi4lab.spectral.ground_state.__wrapped__
    after = _phi4lab_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_matvecs_are_attributed_to_enclosing_spans():
    from phi4lab.config import build_model, parse_config
    from phi4lab.hamiltonian import HamiltonianSet

    params = dataclasses.replace(parse_config(WORKLOADS["deep-solve"].config), n_max=6)
    grid, quad, basis = build_model(params)
    ham = HamiltonianSet(basis, grid, quad)
    with spans.Tracer() as tracer:
        state = phi4lab.spectral.ground_state(ham.hkappa(0.05), basis.dim, seed=7)
    stats = spans.summarize(tracer.spans)
    assert stats["spectral.ground_state"]["calls"] == 1
    assert stats["spectral.ground_state"]["matvecs"] == state.iterations
    assert stats["hamiltonian.matvec"]["calls"] == state.iterations
    assert stats["fock.apply_smeared"]["calls"] > 0
    assert stats["spectral.ground_state"]["self_s"] < stats["spectral.ground_state"]["s"]
    assert phi4lab.spectral.ground_state(ham.hkappa(0.05), basis.dim, seed=7).e0 == state.e0
    assert len(tracer.spans) == sum(st["calls"] for st in stats.values())


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        [spans.MATVEC, 6.0, 6.5, 3],
        ["a", 8.0, 9.0, 0],  # nested under a span of the same name
    ]
    stats = spans.summarize(tree)
    assert stats["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0, "matvecs": 1}
    assert stats["b"] == {"calls": 2, "s": 5.0, "self_s": 3.5, "matvecs": 1}
    assert stats["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0, "matvecs": 0}
    assert stats[spans.MATVEC]["self_s"] == 0.5
    assert spans.covered([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    metrics = spans.layer_metrics(stats, overhead=0.25)
    assert metrics["spectral.ground_state.calls"] == 0
    assert metrics[spans.CG_ITERS] == 0.0
    assert metrics[spans.OVERHEAD] == 0.25


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_matches_itself(name):
    golden = goldens.load()["workloads"][name]
    assert goldens.compare(WORKLOADS[name], copy.deepcopy(golden), golden) == []


def test_golden_check_rejects_perturbed_e0_and_exit_code():
    workload = WORKLOADS["deep-solve"]
    golden = goldens.load()["workloads"]["deep-solve"]
    eig_tol, _ = goldens.solver_tolerances(workload.config)
    assert golden["e0"] == 0.5794307120869768
    observed = dict(golden, e0=golden["e0"] + 0.5 * eig_tol)
    assert goldens.compare(workload, observed, golden) == []
    observed = dict(golden, e0=golden["e0"] + 2 * eig_tol)
    assert any(m.startswith("e0 = ") for m in goldens.compare(workload, observed, golden))
    observed = dict(golden, exit_code=1)
    assert goldens.compare(workload, observed, golden) == ["exit code 1, expected 0"]
    checks = copy.deepcopy(golden["checks"])
    checks[0][2] = float("nan")
    misses = goldens.compare(workload, dict(golden, checks=checks), golden)
    assert len(misses) == 2 and all(m.startswith(checks[0][0]) for m in misses)


def test_failures_flag_nondeterministic_rounds():
    observed = {"exit_code": 0, "checks": [["ccr", "pass", 1e-15]]}
    rounds = [
        {"traced": True, "observed": observed, "misses": [], "counts": {"x.calls": 3}},
        {"traced": False, "observed": copy.deepcopy(observed), "misses": []},
        {"traced": True, "observed": observed, "misses": [], "counts": {"x.calls": 4}},
        {"traced": False, "observed": {"exit_code": 0, "checks": [["ccr", "pass", 2e-15]]}, "misses": []},
    ]
    misses = run.failures(rounds)
    assert misses[0] == [] and misses[1] == []
    assert misses[2] == ["call or matvec counts differ from the first traced round"]
    assert misses[3] == ["output differs from the first round with the same seed"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert all(m["unit"] == spans.metric_unit(m["name"]) for m in spec["per_layer"])
