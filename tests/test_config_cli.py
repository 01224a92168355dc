import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phi4lab
from phi4lab import ConfigError, config, load_vector, parse_config, render_config
from phi4lab.cli import main
from phi4lab.theory import optimize_epsilon

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


def write_config(tmp_path, **overrides):
    """Small explicit single-mode config with optional key overrides."""
    text = {
        "model": {"dimension": 1, "mass": 1.0},
        "grid": {"modes": "0", "weights": "1"},
        "uv_cutoff": {"kind": "tabulated", "table": "0 1"},
        "spatial_cutoff": {"kind": "indicator", "parameters": "-0.5 0.5"},
        "quadrature": {"nodes_per_axis": 1},
        "truncation": {"n_max": 8},
        "coupling": {"kappa": 0.1, "kappa_list": "0.1 0.05"},
        "solver": {"eig_tol": 1e-10, "lin_tol": 1e-12, "max_iter": 20000, "seed": 3, "pull_tol": 1e-6},
        "epsilon": {"policy": "optimized"},
        "output": {"directory": str(tmp_path / "out")},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        if value is None:
            text[section].pop(key, None)
        else:
            text[section][key] = value
    lines = []
    for section, entries in text.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path = tmp_path / "config.ini"
    path.write_text("\n".join(lines))
    return path


class TestConfigParsing:
    def test_reference_config(self):
        params = parse_config(REFERENCE)
        assert params.dimension == 1
        assert params.mass == 1.0
        assert params.kmax == 3.0
        assert params.modes_per_axis == 3
        assert params.n_max == 8
        assert params.kappa == 0.05
        assert params.kappa_list == tuple(0.2 * 0.5**i for i in range(7))
        assert params.eig_tol == 1e-10
        assert params.seed == 7

    def test_round_trip(self, tmp_path):
        params = parse_config(REFERENCE)
        echoed = tmp_path / "echo.ini"
        echoed.write_text(render_config(params))
        again = parse_config(echoed)
        assert again == params

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"grid.kmax": 3.0},  # explicit modes beside the uniform rule's kmax
            {"epsilon.policy": "fixed", "epsilon.value": 0.01},
            {"output.dump_vectors": "true"},
            {"coupling.kappa": None, "coupling.kappa_list": None},  # empty [coupling]
            {"output.directory": "out%1"},  # values are literal, no '%' interpolation
            # ' ; ' separates modes and table entries and starts no comment
            {"grid.modes": "-1 ; 0 ; 1", "grid.weights": "1 1 1", "uv_cutoff.table": "0 1 ; 2 0.5"},
        ],
        ids=[
            "modes", "modes-and-kmax", "fixed-epsilon", "dump-vectors", "empty-coupling", "percent",
            "three-modes",
        ],
    )
    def test_round_trip_explicit_modes(self, tmp_path, overrides):
        params = parse_config(write_config(tmp_path, **overrides))
        echoed = tmp_path / "echo.ini"
        echoed.write_text(render_config(params))
        assert parse_config(echoed) == params

    @pytest.mark.parametrize(
        "dotted,value,needle",
        [
            ("model.mass", -1.0, "[model] mass"),
            ("truncation.n_max", -2, "[truncation] n_max"),
            ("solver.eig_tol", 0.0, "[solver] eig_tol"),
            ("coupling.kappa_list", "0.05 0.1", "[coupling] kappa_list"),
            ("quadrature.nodes_per_axis", 0, "[quadrature] nodes_per_axis"),
            ("model.dimension", "two", "[model] dimension"),
            ("output.dump_vectors", "ture", "[output] dump_vectors"),
            ("truncation.n_mx", 20, "[truncation] n_mx: unknown key"),
            ("spatial_cutoff.radius", 1, "[spatial_cutoff] radius: unknown key"),
            ("grid.modes", None, "[grid] weights"),  # weights without modes
            ("uv_cutoff.table", "0 1 ; 2", "[uv_cutoff] table"),  # an entry is no pair
            # every number is finite
            ("grid.kmax", "inf", "[grid] kmax: must be finite"),
            ("spatial_cutoff.parameters", "inf", "[spatial_cutoff] parameters: must be finite"),
            ("spatial_cutoff.parameters", "nan nan", "[spatial_cutoff] parameters: must be finite"),
            ("uv_cutoff.table", "nan nan", "[uv_cutoff] table: must be finite"),
            ("coupling.kappa", "inf", "[coupling] kappa: must be finite"),
            # a cutoff section holds only the keys its kind reads
            ("uv_cutoff.parameters", "1", "[uv_cutoff] parameters: not read by kind = tabulated"),
            ("spatial_cutoff.table", "0 1", "[spatial_cutoff] table: not read by kind = indicator"),
            ("spatial_cutoff.table_file", "nosuch.txt", "[spatial_cutoff] table_file: not read by kind"),
            ("uv_cutoff.table_file", "nosuch.txt", "[uv_cutoff] table_file: table is set too"),
        ],
    )
    def test_field_precise_errors(self, tmp_path, dotted, value, needle):
        path = write_config(tmp_path, **{dotted: value})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert needle in str(err.value)
        assert main(["info", "--config", str(path)]) == 2

    def test_key_table_names_every_field_once(self):
        names = [row[0] for row in config._KEYS]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(config.ModelParams))
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize(
        "word,value", [("on", True), ("Yes", True), ("1", True), ("off", False), ("0", False)]
    )
    def test_dump_vectors_takes_boolean_words(self, tmp_path, word, value):
        path = write_config(tmp_path, **{"output.dump_vectors": word})
        assert parse_config(path).dump_vectors is value

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text in ("[mystery]\nx = 1\n", "[DEFAULT]\nseed = 3\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match="unknown section"):
                parse_config(path)

    def test_geometric_kappa_list(self, tmp_path):
        path = write_config(tmp_path, **{"coupling.kappa_list": "geometric 0.4 0.5 3"})
        params = parse_config(path)
        assert params.kappa_list == (0.4, 0.2, 0.1)

    def test_tabulated_cutoff_from_file(self, tmp_path):
        table = tmp_path / "chi.txt"
        table.write_text("0.0 1.0\n2.0 1.0\n")
        path = write_config(tmp_path, **{"uv_cutoff.kind": "tabulated", "uv_cutoff.table": None})
        text = path.read_text().replace("[uv_cutoff]", "[uv_cutoff]\ntable_file = chi.txt")
        path.write_text(text)
        params = parse_config(path)
        assert params.uv_cutoff.kind == "tabulated"
        # every bad table names its key and exits 2, with no warning on the way: not numeric,
        # ragged, not increasing, three columns, not finite, empty
        for bad in ("0 1\n2 abc\n", "0 1\n2\n", "2 1\n0 1\n", "0 1 1\n2 1 1\n", "0 1\n2 inf\n", ""):
            table.write_text(bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=r"\[uv_cutoff\] table_file"):
                    parse_config(path)
                assert main(["info", "--config", str(path)]) == 2


class TestCli:
    def test_info_prints_reference_dimension(self, capsys):
        assert main(["info", "--config", str(REFERENCE)]) == 0
        out = capsys.readouterr().out
        assert "basis dimension: 165" in out
        assert "c1 = 21.533126292" in out

    def test_info_unity_config_echoes_cbos_16(self, tmp_path, capsys):
        # explicit modes default to unit weights, so omitting them changes nothing
        for weights in ("1", None):
            path = write_config(tmp_path, **{"grid.weights": weights})
            assert main(["info", "--config", str(path)]) == 0
            out = capsys.readouterr().out
            assert "c_bos = 16" in out
            assert "d_bos = 1" in out

    def test_solve_zero_coupling_all_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa": 0.0})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0, out
        doc = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert doc["all_passed"]
        assert doc["ground_state"]["e0"] == pytest.approx(0.0, abs=1e-10)

    def test_solve_writes_vector_dump(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"output.dump_vectors": "true", "coupling.kappa": 0.1})
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        dumps = list((tmp_path / "o").glob("*.f4vec"))
        assert len(dumps) == 1
        basis, vec = load_vector(dumps[0])
        assert basis.num_modes == 1 and basis.n_max == 8
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)

    def test_sweep_csv_shape_and_determinism(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": "0.1 0.05 0.025"})
        code1 = main(["sweep", "--config", str(path), "--out", str(tmp_path / "a")])
        code2 = main(["sweep", "--config", str(path), "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert code1 == code2
        csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
        csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert csv_a != csv_b  # config echo embeds the differing output dir
        data_a = [l for l in csv_a.decode().splitlines() if not l.startswith("#")]
        data_b = [l for l in csv_b.decode().splitlines() if not l.startswith("#")]
        assert data_a == data_b
        header = data_a[0].split(",")
        assert header == [
            "kappa", "e0", "residual", "c1_kappa", "e_abs", "e_over_kappa",
            "rayleigh_bound", "paper_bound", "n_expect", "c_eps_kappa",
            "overlap", "pullthrough_resid", "top_grade_weight",
        ]
        assert len(data_a) == 4  # header + 3 rows

    def test_sweep_identical_outdir_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": "0.1 0.05"})
        out = tmp_path / "same"
        main(["sweep", "--config", str(path), "--out", str(out)])
        first = (out / "sweep.csv").read_bytes()
        main(["sweep", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        assert (out / "sweep.csv").read_bytes() == first

    def test_sweep_empty_list_header_only(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": ""})
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 and data[0].startswith("kappa,")

    def test_verify_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "[PASS]" in out
        doc = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert doc["all_passed"]

    def test_verify_coupling_needed_only_for_the_inequality_checks(self, tmp_path, capsys):
        empty = {"coupling.kappa": None, "coupling.kappa_list": None}
        path = write_config(tmp_path, **empty)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "[coupling] kappa" in capsys.readouterr().err
        # below n_max 8 verify runs the identity checks alone, which take no coupling
        path = write_config(tmp_path, **empty, **{"truncation.n_max": 6})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("policy", ["optimized", "fixed"])
    def test_verify_judges_the_inequality_checks_at_the_policys_epsilon(self, policy, tmp_path, capsys):
        path = write_config(tmp_path, **{"epsilon.policy": policy, "epsilon.value": 0.01})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        params = parse_config(path)
        grid, quad, _ = config.build_model(params)
        expected = 0.01 if policy == "fixed" else optimize_epsilon(params.kappa, 0.0, grid, quad).epsilon
        checks = {c["name"]: c for c in json.loads((tmp_path / "o" / "verify.json").read_text())["checks"]}
        assert checks["h-bound"]["context"]["epsilon"] == expected
        assert checks["cubic-field-bound"]["context"]["epsilon"] == expected

    def test_sweep_row_keeps_the_records_solve_writes(self, tmp_path, capsys):
        path = write_config(tmp_path)  # kappa = 0.1, the first kappa_list entry
        out = tmp_path / "o"
        for command in ("sweep", "solve"):
            main([command, "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        sweep, solve = (json.loads((out / f"{kind}.json").read_text()) for kind in ("sweep", "solve"))
        extras = sweep["rows"][0]["extras"]
        assert sweep["rows"][0]["kappa"] == solve["kappa"] == 0.1
        assert list(extras) == ["epsilon_star", "ground_state", "checks"]
        assert extras["ground_state"] == solve["ground_state"]
        assert extras["checks"] == solve["checks"][: len(extras["checks"])]

    def test_report_renders_the_newest_stored_report(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        for command in ("sweep", "solve"):
            main([command, "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        for newest, older in (("solve", "sweep"), ("sweep", "solve")):
            os.utime(out / f"{older}.json", ns=(10**18, 10**18))
            os.utime(out / f"{newest}.json", ns=(2 * 10**18, 2 * 10**18))
            assert main(["report", "--config", str(path), "--out", str(out)]) == 0
            assert capsys.readouterr().out.startswith(f"phi4lab {newest} report\n")

    def test_report_rerenders_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": "0.1 0.05"})
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        code = main(["report", "--config", str(path), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert code == 0
        assert "phi4lab sweep report" in out

    def test_report_rerenders_what_the_command_printed(self, tmp_path, capsys):
        # at kappa = 0.2 the reference e0 = 1.426 lies above min omega = 1, so
        # solve skips the eigenprojection identities and reports why
        path = tmp_path / "reference.ini"
        path.write_text(REFERENCE.read_text().replace("kappa = 0.05", "kappa = 0.2"))
        reason = "reason: ground energy 1.426"
        for command in ("solve", "verify"):
            doc = tmp_path / command / f"{command}.json"
            assert main([command, "--config", str(path), "--out", str(doc.parent)]) == 0
            printed = capsys.readouterr().out
            assert main(["report", "--config", str(path), "--input", str(doc)]) == 0
            rendered = capsys.readouterr().out
            if command == "solve":
                rendered += f"report written to {doc}\n"
                assert reason in printed and reason in rendered
            assert printed == rendered

    def test_report_rejects_a_file_that_is_no_report(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"kind": "solve",')
        no_e0 = tmp_path / "no_e0.json"
        no_e0.write_text(json.dumps({"kind": "solve", "ground_state": {"residual": 0.0}}))
        for path in (malformed, no_e0):
            assert main(["report", "--config", str(REFERENCE), "--input", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: ") and str(path) in line

    def test_document_key_order(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        for command in ("solve", "verify", "sweep"):
            main([command, "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        solve, verify, sweep = (
            json.loads((out / f"{kind}.json").read_text()) for kind in ("solve", "verify", "sweep")
        )
        header = ["kind", "versions", "config_echo", "seed"]
        assert list(solve) == header + [
            "kappa", "ground_state", "constants", "checks", "all_passed",
        ]
        assert list(solve["ground_state"]) == [
            "e0", "residual", "iterations", "restarts", "gap_estimate",
            "near_degenerate", "top_grade_weight",
        ]
        assert list(solve["checks"][0]) == [
            "name", "status", "measured", "threshold", "context", "caveat",
        ]
        assert list(verify) == header + ["checks", "all_passed"]
        assert list(sweep) == header + ["constants", "rows", "summary"]
        assert list(sweep["rows"][0]) == [
            "kappa", "e0", "residual", "c1_kappa", "e_abs", "e_over_kappa",
            "rayleigh_bound", "paper_bound", "n_expect", "c_eps_kappa",
            "overlap", "pullthrough_resid", "top_grade_weight", "failed", "extras",
        ]
        assert list(sweep["summary"]) == [
            "tail_ratios_decreasing", "ratio_final_over_first", "quadratic_fit",
            "fit_over_a", "fit_within_factor3", "degraded", "failures",
        ]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["info", "--config", "/nonexistent.ini"]) == 2
        assert "error" in capsys.readouterr().err
        not_utf8 = write_config(tmp_path)  # a Latin-1 comment: unreadable whatever the locale
        not_utf8.write_bytes("# café\n".encode("latin-1") + not_utf8.read_bytes())
        assert main(["info", "--config", str(not_utf8)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"model.mass": -5.0})
        assert main(["info", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "[model] mass" in err

    def test_seed_override_changes_echo(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": "0.1 0.05"})
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "99"])
        capsys.readouterr()
        doc = json.loads((tmp_path / "o" / "sweep.json").read_text())
        assert doc["seed"] == 99
        assert "seed = 99" in doc["config_echo"]

    def test_no_subcommand_mutates_config(self, tmp_path, capsys):
        path = write_config(tmp_path, **{"coupling.kappa_list": "0.1 0.05"})
        before = path.read_bytes()
        main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        main(["info", "--config", str(path)])
        capsys.readouterr()
        assert path.read_bytes() == before

    def test_solve_imports_no_scipy_solver_modules(self, tmp_path):
        # importing scipy.sparse.linalg adds about 10 MB of resident memory to
        # a solve, so the solvers stay in phi4lab.spectral
        script = (
            "import sys\n"
            "from phi4lab.cli import main\n"
            f"code = main(['solve', '--config', {str(REFERENCE)!r}, '--out', {str(tmp_path)!r}])\n"
            "print(code, sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
        )
        src = str(Path(phi4lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.splitlines()[-1] == "0 []", run.stdout + run.stderr
