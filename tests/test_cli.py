import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fermigate
from boundary_reference import bc_id
from fermigate.cli import (
    RunConfig,
    emit_report,
    main,
    parse_config,
    parse_grids,
    parse_report,
    run,
)
from fermigate.basis import BoundarySpec
from fermigate.errors import ConfigError, SpecError
from fermigate.manybody import solve_mb_eig
from fermigate.slater import NoInteraction, build_problem
from fermigate.verify import (
    _SPECS,
    CheckResult,
    VerificationReport,
    _decode,
    clear_cache,
    dict_to_bc,
    dict_to_interaction,
    make_scenario,
    real,
    rows,
    run_scenario,
    spec_to_dict,
)

PI2 = np.pi**2


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield


MINIMAL = """
[run]
command = solve-single

[problem]
bc = dirichlet
n_cells = 200
"""


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.command == "solve-single"
        assert config.k == 6
        assert config.seed == 0
        assert config.bc.kind == "dirichlet-both"
        assert config.out_format == "json"

    def test_quasiperiodic_zero_alpha_rejected(self):
        text = MINIMAL.replace("bc = dirichlet", "bc = quasiperiodic\nalpha = 0")
        with pytest.raises(ConfigError, match="alpha must be nonzero"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[problem\] coupling: unknown key"):
            parse_config(MINIMAL + "coupling = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[extras\]: unknown section"):
            parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")

    def test_type_mismatch_names_field_and_type(self):
        text = MINIMAL.replace("n_cells = 200", "n_cells = many")
        with pytest.raises(ConfigError, match=r"\[problem\] n_cells: expected int, got 'many'"):
            parse_config(text)

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError, match=r"\[run\] command"):
            parse_config("[problem]\nn_cells = 8\n")

    def test_bad_command_rejected(self):
        with pytest.raises(ConfigError, match=r"\[run\] command"):
            parse_config("[run]\ncommand = explode\n")

    def test_delta_potential_parsed(self):
        text = MINIMAL + "\n[potential]\nkind = delta\nx0 = 0.5\nstrength = -10\n"
        config = parse_config(text)
        assert config.potential.x0 == 0.5
        assert config.potential.strength == -10.0

    def test_delta_x0_out_of_range(self):
        text = MINIMAL + "\n[potential]\nkind = delta\nx0 = 1.5\nstrength = 1\n"
        with pytest.raises(ConfigError, match=r"\[potential\] x0"):
            parse_config(text)

    def test_sampled_preset_and_length(self):
        text = MINIMAL + "\n[potential]\nkind = sampled\nvalues = ramp\n"
        config = parse_config(text)
        assert len(config.potential.values) == 201
        bad = MINIMAL + "\n[potential]\nkind = sampled\nvalues = 1.0, 2.0\n"
        with pytest.raises(ConfigError, match="nodal values"):
            parse_config(bad)

    def test_interaction_parsed(self):
        text = MINIMAL + "\n[interaction]\nkind = delta-contact\nstrength = 5\n"
        assert parse_config(text).interaction.g == 5.0

    def test_grids_validation(self):
        assert parse_grids("40,80") == (40, 80)
        with pytest.raises(ConfigError, match="n,2n"):
            parse_grids("40,70")
        with pytest.raises(ConfigError, match="n,2n"):
            parse_grids("forty")


# section and INI key names of each spec, as the README documents them
_INI_HOME = {
    "bc": ("problem", {"kind": "bc", "a": "line_a", "b": "line_b"}),
    "v": ("potential", {}),
    "w": ("interaction", {}),
}
_CONFIG_FIELD = {"bc": "bc", "v": "potential", "w": "interaction"}


def _ini_value(x) -> str:
    if not isinstance(x, list):
        return repr(x) if isinstance(x, float) else x
    if x and isinstance(x[0], list):
        return ";\n    ".join(_ini_value(row) for row in x)  # one kernel row per line
    return ", ".join(repr(v) for v in x)


@st.composite
def _spec_dict(draw, param, kind, n_cells):
    """A dict for one table kind, its list fields sized for n_cells."""
    finite = st.floats(-2.0, 2.0, allow_nan=False)
    d = {"kind": kind}
    for key, _, coerce in _SPECS[param][kind][1]:
        if coerce is real:
            d[key] = draw(finite)
        elif coerce is rows:
            m = n_cells + 1
            a = np.array(draw(st.lists(finite, min_size=m * m, max_size=m * m))).reshape(m, m)
            d[key] = ((a + a.T) / 2).tolist()
        else:
            size = n_cells + 1 if key == "values" else n_cells
            d[key] = draw(st.lists(finite, min_size=size, max_size=size))
    return d


@pytest.mark.parametrize("param, kind", [(p, k) for p in _SPECS for k in _SPECS[p]])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_spec_round_trip_through_table_and_ini(param, kind, data):
    n_cells = data.draw(st.integers(4, 7))
    d = data.draw(_spec_dict(param, kind, n_cells))
    try:
        spec = _decode(param, d)
    except SpecError:  # a value the constructor rejects, e.g. Delta.x0 outside [0, 1]
        assume(False)
    encoded = spec_to_dict(spec)
    if kind in ("dirichlet-left", "dirichlet-right", "quasiperiodic"):
        # an input alias is written as its preset's canonical kind
        assert encoded["kind"] == "line"
    else:
        assert encoded == d and list(encoded) == list(d)
    assert _decode(param, encoded) == spec
    section, names = _INI_HOME[param]
    body = "".join(f"{names.get(k, k)} = {_ini_value(v)}\n" for k, v in d.items())
    head = f"[run]\ncommand = solve-many\n[problem]\nn_cells = {n_cells}\n"
    text = head + (body if section == "problem" else f"[{section}]\n{body}")
    assert getattr(parse_config(text), _CONFIG_FIELD[param]) == spec


@pytest.mark.parametrize(
    "bc",
    [BoundarySpec.dirichlet_both(), BoundarySpec.free(), BoundarySpec.line(2.0, -3.0),
     BoundarySpec.dirichlet_left(), BoundarySpec.dirichlet_right(), BoundarySpec.quasiperiodic(-0.3)],
    ids=bc_id,
)
def test_every_boundary_round_trips(bc):
    assert dict_to_bc(spec_to_dict(bc)) == bc


def test_readme_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    main_config, kernel_section = re.findall(r"```ini\n(.*?)```", readme, re.S)
    config = parse_config(main_config)
    assert (config.bc.kind, config.potential.x0, config.interaction.g) == ("dirichlet-both", 0.5, 5.0)
    head = "[run]\ncommand = solve-many\n[problem]\nn_cells = 4\n"
    assert parse_config(head + kernel_section).interaction.values[1] == (1.0, 2.0, 1.0, 0.0, 0.0)


def _kernel_rows(n_cells):
    x = np.linspace(0.0, 1.0, n_cells + 1)
    return (30.0 * np.exp(-np.subtract.outer(x, x) ** 2 / 0.05)).tolist()


def test_ini_sampled_kernel_solves_like_dict_kernel(tmp_path):
    n_cells, values = 8, _kernel_rows(8)
    text = f"""
[run]
command = solve-many
[problem]
n_cells = {n_cells}
n_particles = 2
[interaction]
kind = sampled-kernel
values = {_ini_value(values)}
[solver]
k = 3
"""
    config = dataclasses.replace(parse_config(text), out_path=str(tmp_path / "k.json"))
    kernel = dict_to_interaction({"kind": "sampled-kernel", "values": values})
    assert config.interaction == kernel
    assert run(config) == 0
    got = json.loads((tmp_path / "k.json").read_text())["eigenvalues"]
    dirichlet = BoundarySpec.dirichlet_both()
    ref = solve_mb_eig(build_problem(None, kernel, dirichlet, n_cells, 2).operator, 3).eigenvalues
    np.testing.assert_allclose(got, ref, rtol=1e-11)
    free = solve_mb_eig(build_problem(None, NoInteraction(), dirichlet, n_cells, 2).operator, 3).eigenvalues
    assert abs(got[0] - free[0]) > 1.0  # the kernel was not dropped on the way


def test_ini_sampled_kernel_errors_name_the_field():
    head = "[run]\ncommand = solve-many\n[problem]\nn_cells = 4\n[interaction]\nkind = sampled-kernel\n"
    asym = np.arange(25.0).reshape(5, 5).tolist()
    with pytest.raises(ConfigError, match=r"\[interaction\] values: kernel samples must be symmetric"):
        parse_config(head + f"values = {_ini_value(asym)}\n")
    with pytest.raises(ConfigError, match=r"\[interaction\] values: need 5 nodal values, got 9"):
        parse_config(head + f"values = {_ini_value(_kernel_rows(8))}\n")
    with pytest.raises(ConfigError, match=r"\[interaction\] values: expected rows"):
        parse_config(head + "values = 1 x; x 1\n")
    with pytest.raises(ConfigError, match=r"\[interaction\] values: required field is missing"):
        parse_config(head)


def test_sampled_kernel_rejects_non_finite_samples():
    # NaN passed the symmetry test and reached H_N, where the solve failed
    values = _kernel_rows(4)
    values[1][2] = values[2][1] = float("nan")
    with pytest.raises(SpecError, match="kernel samples must be finite") as info:
        dict_to_interaction({"kind": "sampled-kernel", "values": values})
    assert info.value.field == "values"
    head = "[run]\ncommand = solve-many\n[problem]\nn_cells = 4\n[interaction]\nkind = sampled-kernel\n"
    with pytest.raises(ConfigError, match=r"\[interaction\] values: kernel samples must be finite"):
        parse_config(head + f"values = {_ini_value(values)}\n")


# one non-finite value in a field of each spec that reads reals: (param, dict, field)
_NON_FINITE = {
    "sampled": ("v", {"kind": "sampled", "values": [0.0, 1.0, float("nan"), 2.0, 3.0]}, "values"),
    "delta": ("v", {"kind": "delta", "x0": 0.5, "strength": float("inf")}, "strength"),
    "hminusone": ("v", {"kind": "hminusone", "alpha": 1.0, "cells": [0.0, -float("inf"), 0.0, 0.0]}, "cells"),
    "delta-contact": ("w", {"kind": "delta-contact", "strength": float("nan")}, "strength"),
    "line-a": ("bc", {"kind": "line", "a": float("nan"), "b": 1.0}, "a"),
    "line-b": ("bc", {"kind": "line", "a": 1.0, "b": -float("inf")}, "b"),
    "quasiperiodic": ("bc", {"kind": "quasiperiodic", "alpha": float("inf")}, "alpha"),
}


@pytest.mark.parametrize("name", list(_NON_FINITE))
def test_non_finite_value_is_a_spec_error_naming_its_field(name, tmp_path, capsys):
    # past decode, line(nan, 1) would fail in assembly as a solver error
    # (exit 2) instead of a config error naming the field (exit 1)
    param, d, field = _NON_FINITE[name]
    with pytest.raises(SpecError, match="expected real") as info:
        _decode(param, d)
    assert info.value.field == field
    section, names = _INI_HOME[param]
    body = "".join(f"{names.get(k, k)} = {_ini_value(v)}\n" for k, v in d.items())
    text = "[run]\ncommand = solve-many\n[problem]\nn_cells = 4\n"
    text += body if section == "problem" else f"[{section}]\n{body}"
    config = tmp_path / "nonfinite.ini"
    config.write_text(text)
    assert main(["solve-many", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 1
    assert f"[{section}] {names.get(field, field)}: expected real" in capsys.readouterr().err


@pytest.mark.parametrize(
    "d, preset",
    [
        ({"kind": "dirichlet-left"}, BoundarySpec.dirichlet_left()),
        ({"kind": "dirichlet-right"}, BoundarySpec.dirichlet_right()),
        ({"kind": "quasiperiodic", "alpha": 1.0}, BoundarySpec.quasiperiodic(1.0)),
        ({"kind": "quasiperiodic", "alpha": -1.0}, BoundarySpec.quasiperiodic(-1.0)),
        ({"kind": "quasiperiodic", "alpha": 0.5}, BoundarySpec.line(0.5, 1.0)),
    ],
    ids=["dirichlet-left", "dirichlet-right", "periodic", "antiperiodic", "quasiperiodic0.5"],
)
def test_old_kind_names_decode_to_their_presets(d, preset, tmp_path):
    assert dict_to_bc(d) == preset
    canonical = {"kind": "line", "a": preset.a, "b": preset.b}
    assert spec_to_dict(dict_to_bc(d)) == canonical
    body = "".join(f"{_INI_HOME['bc'][1].get(k, k)} = {_ini_value(v)}\n" for k, v in d.items())
    config = tmp_path / "alias.ini"
    config.write_text(f"[run]\ncommand = solve-single\n[problem]\nn_cells = 8\n{body}")
    out = tmp_path / "out.json"
    assert main(["solve-single", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["problem"]["bc"] == canonical


def _sample_reports():
    checks = (
        CheckResult("alpha", 1.2345678901234e-05, 2e-3, "le", True, ""),
        CheckResult("beta", 0.5, 0.25, "le", False, "too big"),
    )
    r1 = VerificationReport(
        scenario="demo",
        expected="pass",
        checks=checks,
        environment={"n_cells": 40, "values": [1.0, 2.0 / 3.0]},
        overall=False,
    )
    r2 = VerificationReport(
        scenario="empty", expected="pass", checks=(), environment={}, overall=True
    )
    return [r1, r2]


class TestEmitReport:
    def test_json_round_trip_identity(self):
        data = emit_report(_sample_reports(), "json")
        parsed = parse_report(data)
        from fermigate.cli import _emit_json

        again = (_emit_json(parsed) + "\n").encode()
        assert again == data

    def test_twelve_significant_digits(self):
        data = emit_report(_sample_reports(), "json").decode()
        assert "1.2345678901234e-05" not in data  # 13 digits never appear
        assert "1.23456789012e-05" in data

    def test_empty_check_list_flagged(self):
        data = parse_report(emit_report(_sample_reports(), "json"))
        empty = data["scenarios"][1]
        assert empty["overall"] is True
        assert empty["environment"]["no_checks"] is True

    def test_csv_shape(self):
        lines = emit_report(_sample_reports(), "csv").decode().strip().split("\n")
        assert lines[0] == "scenario,check,measured,comparator,threshold,passed,note"
        assert lines[1].startswith("demo,alpha,")
        assert lines[-1].startswith("empty,,")

    def test_overall_is_conjunction(self):
        data = parse_report(emit_report(_sample_reports(), "json"))
        assert data["overall"] is False

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit_report(_sample_reports(), "yaml")


@settings(max_examples=30, deadline=None)
@given(
    st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
    )
)
def test_float_format_round_trip_stable(x):
    from fermigate.cli import _format_float

    s = _format_float(x)
    assert _format_float(float(s)) == s


class TestCommands:
    def test_solve_single_writes_json(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        config = parse_config(MINIMAL)
        import dataclasses

        config = dataclasses.replace(config, out_path=str(out))
        assert run(config) == 0
        data = json.loads(out.read_text())
        assert data["eigenvalues"][0] == pytest.approx(PI2, rel=2e-3)
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6  # one line per eigenvalue

    def test_solve_many_csv_lambda1(self, tmp_path):
        out = tmp_path / "eigs.csv"
        text = """
[run]
command = solve-many
[problem]
bc = dirichlet
n_cells = 40
n_particles = 2
[output]
format = csv
"""
        import dataclasses

        config = dataclasses.replace(parse_config(text), out_path=str(out))
        assert run(config) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "k,lambda,residual"
        lam1 = float(rows[1].split(",")[1])
        assert lam1 == pytest.approx(5 * PI2, rel=2e-2)

    def test_solver_failure_exit_code(self):
        text = """
[run]
command = solve-many
[problem]
bc = dirichlet
n_cells = 6
n_particles = 50
"""
        assert run(parse_config(text)) == 2

    @pytest.mark.parametrize("command, target", [
        ("solve-many", "build_problem"),
        ("solve-single", "solve_sp_eig"),
    ])
    def test_memory_error_is_a_solver_failure(self, command, target, monkeypatch, capsys, tmp_path):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.0 GiB")

        monkeypatch.setattr(f"fermigate.cli.{target}", exhausted)
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\ncommand = {command}\n[problem]\nn_cells = 6\nn_particles = 2\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == "solver failure: MemoryError: Unable to allocate 12.0 GiB\n"

    def test_verify_single_scenario_exit_zero(self, tmp_path, capsys):
        config = RunConfig(
            command="verify",
            scenarios=("sp_free_spectra",),
            out_path=str(tmp_path / "report.json"),
        )
        assert run(config) == 0
        out = capsys.readouterr().out
        assert "PASS sp_free_spectra/dirichlet_lambda1_rel_err" in out

    def test_verify_deterministic_bytes(self, tmp_path):
        paths = []
        for i in (1, 2):
            p = tmp_path / f"r{i}.json"
            config = RunConfig(
                command="verify", scenarios=("sp_free_spectra",), out_path=str(p), seed=7
            )
            assert run(config) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_report_command_on_verify_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        config = RunConfig(
            command="verify", scenarios=("sp_free_spectra",), out_path=str(report_path)
        )
        assert run(config) == 0
        capsys.readouterr()
        rep_config = RunConfig(
            command="report", report_input=str(report_path), out_path=str(tmp_path / "fmt")
        )
        assert run(rep_config) == 0
        out = capsys.readouterr().out
        assert "sp_free_spectra" in out
        assert (tmp_path / "fmt" / "checks.csv").exists()

    def test_report_command_on_solve_artifact(self, tmp_path, capsys):
        solve_path = tmp_path / "solve.json"
        text = """
[run]
command = solve-many
[problem]
bc = dirichlet
n_cells = 12
n_particles = 2
"""
        import dataclasses

        config = dataclasses.replace(parse_config(text), out_path=str(solve_path))
        assert run(config) == 0
        capsys.readouterr()
        rep = RunConfig(
            command="report", report_input=str(solve_path), out_path=str(tmp_path / "fmt")
        )
        assert run(rep) == 0
        assert (tmp_path / "fmt" / "density.csv").exists()
        assert (tmp_path / "fmt" / "simplex_sample.csv").exists()
        density = (tmp_path / "fmt" / "density.csv").read_text().strip().split("\n")
        assert density[0] == "x,rho"

    def test_report_command_on_infinite_measured_value(self, tmp_path, capsys):
        # JSON carries the infinity as the string "Infinity"
        check = CheckResult("ratio", float("inf"), 1.0, "le", False, "")
        rep = VerificationReport("unbounded", "pass", (check,), {}, False)
        src = tmp_path / "report.json"
        src.write_bytes(emit_report([rep], "json"))
        config = RunConfig(command="report", report_input=str(src), out_path=str(tmp_path / "fmt"))
        assert run(config) == 0
        assert "- ratio: inf le 1" in capsys.readouterr().out
        assert (tmp_path / "fmt" / "checks.csv").read_bytes() == emit_report([rep], "csv")

    def test_report_command_on_nan_measured_value(self, tmp_path, capsys):
        # JSON carries NaN as the string "NaN", as it does infinities
        check = CheckResult("ratio", float("nan"), 1.0, "le", False, "")
        rep = VerificationReport("undefined", "pass", (check,), {"value": float("nan")}, False)
        src = tmp_path / "report.json"
        src.write_bytes(emit_report([rep], "json"))
        data = json.loads(src.read_text(), parse_constant=_reject_constant)
        assert data["scenarios"][0]["environment"]["value"] == "NaN"
        config = RunConfig(command="report", report_input=str(src), out_path=str(tmp_path / "fmt"))
        assert run(config) == 0
        assert "- ratio: nan le 1" in capsys.readouterr().out
        assert (tmp_path / "fmt" / "checks.csv").read_bytes() == emit_report([rep], "csv")

    def test_verify_report_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert all(s["overall"] for s in data["scenarios"])

    def test_report_checks_csv_matches_verify_csv(self, tmp_path):
        args = ["verify", "--seed", "1", "--scenario", "sp_free_spectra",
                "--scenario", "single_particle_gaps_antiperiodic_free"]
        assert main(args + ["--out", str(tmp_path / "r.json")]) == 0
        assert main(args + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["report", str(tmp_path / "r.json"), "--out", str(tmp_path / "fmt")]) == 0
        assert (tmp_path / "fmt" / "checks.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


class TestMain:
    def test_config_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\ncommand = solve-single\n[problem]\nbc = quasiperiodic\nalpha = 0\n")
        assert main(["solve-single", "--config", str(bad)]) == 1
        assert "alpha must be nonzero" in capsys.readouterr().err

    def test_missing_config_file_exit_one(self, capsys):
        assert main(["verify", "--config", "/nonexistent.ini"]) == 1

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL)
        assert main(["solve-many", "--config", str(cfg)]) == 1
        assert "command line says" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "o.json"
        assert main(["solve-single", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        assert out.exists()


def _verify_in_subprocess(out: Path, blas_threads: int) -> dict:
    """Run `fermigate verify` on two scenarios with a fixed OpenBLAS thread count.

    OpenBLAS reads its thread count when numpy loads, so each count needs
    its own process.
    """
    src = str(Path(fermigate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "fermigate.cli", "verify", "--scenario", "slater_sum_dirichlet_n2_free",
           "--scenario", "nondegeneracy_local", "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_reports_agree_across_blas_thread_counts(tmp_path):
    # round-off moves with the thread count, so bytes may differ; verdicts may not
    one, two = (_verify_in_subprocess(tmp_path / f"r{t}.json", t) for t in (1, 2))
    assert one["overall"] and one["overall"] == two["overall"]
    assert [s["name"] for s in one["scenarios"]] == [s["name"] for s in two["scenarios"]]
    for a, b in zip(one["scenarios"], two["scenarios"]):
        assert a["overall"] == b["overall"] and a["error"] is None and b["error"] is None
        assert [(c["name"], c["passed"], c["note"]) for c in a["checks"]] == [
            (c["name"], c["passed"], c["note"]) for c in b["checks"]
        ]
    envs = {s["name"]: (s["environment"], t["environment"])
            for s, t in zip(one["scenarios"], two["scenarios"])}
    for name, key in (("slater_sum_dirichlet_n2_free", "many_body"),
                      ("slater_sum_dirichlet_n2_free", "orbital_sums"),
                      ("nondegeneracy_local", "lambda1")):
        a, b = (np.asarray(e[key]) for e in envs[name])
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=0)


class TestNegativeControlAutoSet:
    def test_parity_sets_expected_flag(self):
        s = make_scenario(
            "nondegeneracy_nonlocal_periodic_n3",
            {"bc": {"kind": "quasiperiodic", "alpha": 1.0}, "n_particles": 2, "grids": [12, 24]},
        )
        assert s.expected == "negative-control"
        rep = run_scenario(s)
        assert rep.overall  # control confirmed: degenerate as demanded
