"""Command-line front end: config parsing, dispatch, report emission.

Configs are INI-style key-value documents with a strict schema: unknown
sections or keys are rejected, and every type error names the offending
field.  Reports are emitted as JSON with all floating-point numbers at 12
significant digits (byte-identical across runs at a fixed seed) or as CSV
with one check per row.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .basis import (
    BoundarySpec,
    PotentialSpec,
    assemble_overlap,
    assemble_potential,
    assemble_stiffness,
    build_grid_basis,
)
from .errors import ConfigError, FermigateError, SpecError
from .manybody import solve_mb_eig
from .simplex import restrict_to_simplex
from .slater import (
    InteractionSpec,
    NoInteraction,
    WaveVector,
    build_problem,
    reduced_density,
)
from .spectrum import gap_report, solve_sp_eig
from .verify import (
    _SPECS,
    VerificationReport,
    _decode,
    default_manifest,
    make_scenario,
    run_manifest,
    spec_to_dict,
)

__all__ = ["RunConfig", "parse_config", "run", "emit_report", "parse_report", "main"]

COMMANDS = ("solve-single", "solve-many", "verify", "report")

# The INI home of each problem spec (see verify._SPECS): its section, the INI
# names of its keys, and the aliases of its kind ('' when the kind is unset).
_SPEC_SECTIONS = {
    "bc": ("problem", {"kind": "bc", "a": "line_a", "b": "line_b"},
           {"": "dirichlet-both", "dirichlet": "dirichlet-both"}),
    "v": ("potential", {}, {"": "none"}),
    "w": ("interaction", {}, {"": "none"}),
}
_PRESETS = {
    "zeros": lambda n: [0.0] * n,
    "ones": lambda n: [1.0] * n,
    "ramp": lambda n: np.linspace(0.0, 1.0, n).tolist(),
}
_LENGTHS = {"values": (1, "nodal values"), "cells": (0, "per-cell values")}


def _spec_keys(param: str) -> set[str]:
    names = _SPEC_SECTIONS[param][1]
    keys = ["kind"] + [key for _, fields in _SPECS[param].values() for key, _, _ in fields]
    return {names.get(key, key) for key in keys}


_SCHEMA = {
    "run": {"command", "seed"},
    "problem": {"n_cells", "n_particles", "grids"} | _spec_keys("bc"),
    "potential": _spec_keys("v"),
    "interaction": _spec_keys("w"),
    "solver": {"k", "deg_tol"},
    "output": {"path", "format"},
    "verify": {"scenarios"},
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    bc: BoundarySpec = field(default_factory=BoundarySpec.dirichlet_both)
    n_cells: int = 200
    n_particles: int = 2
    grids: tuple[int, int] | None = None
    potential: PotentialSpec | None = None
    interaction: InteractionSpec = field(default_factory=NoInteraction)
    k: int = 6
    deg_tol: float = 1e-6
    out_path: str | None = None
    out_format: str = "json"
    scenarios: tuple[str, ...] = ()
    report_input: str | None = None


def _fail(section: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"[{section}] {key}: {message}")


def _get_typed(cp, section, key, kind, default=None, required=False):
    if not cp.has_section(section) or not cp.has_option(section, key):
        if required:
            raise _fail(section, key, "required key is missing")
        return default
    raw = cp.get(section, key).strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise _fail(section, key, f"expected {kind.__name__}, got {raw!r}") from None


def _parse_spec(cp, param: str, n_cells: int):
    """A problem spec from its INI section, through the manifest's decoder."""
    section, names, aliases = _SPEC_SECTIONS[param]
    keys = {ini: key for key, ini in names.items()}
    d = {keys.get(k, k): v.strip() for k, v in cp.items(section)} if cp.has_section(section) else {}
    kind = d.get("kind", "").lower()
    d["kind"] = aliases.get(kind, kind)
    if d.get("values") in _PRESETS:
        d["values"] = _PRESETS[d["values"]](n_cells + 1)
    try:
        spec = _decode(param, d)
    except SpecError as exc:
        raise _fail(section, names.get(exc.field, exc.field), exc.message) from None
    encoded = spec_to_dict(spec)
    for key, (extra, what) in _LENGTHS.items():
        if key in encoded and len(encoded[key]) != n_cells + extra:
            raise _fail(section, key, f"need {n_cells + extra} {what}, got {len(encoded[key])}")
    return spec


def parse_grids(raw: str) -> tuple[int, int]:
    try:
        parts = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"grids: expected 'n,2n', got {raw!r}") from None
    if len(parts) != 2 or parts[1] != 2 * parts[0]:
        raise ConfigError(f"grids: expected 'n,2n', got {raw!r}")
    return (parts[0], parts[1])


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document (strict schema)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"[{section}]: unknown section")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise _fail(section, key, "unknown key")

    command = _get_typed(cp, "run", "command", str, required=True)
    if command not in COMMANDS:
        raise _fail("run", "command", f"expected one of {COMMANDS}, got {command!r}")
    seed = _get_typed(cp, "run", "seed", int, 0)
    default_cells = 40 if command == "solve-many" else 200
    n_cells = _get_typed(cp, "problem", "n_cells", int, default_cells)
    if n_cells < 4:
        raise _fail("problem", "n_cells", f"expected integer >= 4, got {n_cells}")
    n_particles = _get_typed(cp, "problem", "n_particles", int, 2)
    if n_particles < 1:
        raise _fail("problem", "n_particles", f"expected positive integer, got {n_particles}")
    grids_raw = _get_typed(cp, "problem", "grids", str)
    grids = parse_grids(grids_raw) if grids_raw else None
    k = _get_typed(cp, "solver", "k", int, 6)
    if k < 1:
        raise _fail("solver", "k", f"expected positive integer, got {k}")
    deg_tol = _get_typed(cp, "solver", "deg_tol", float, 1e-6)
    if not 0.0 <= deg_tol < np.inf:
        raise _fail("solver", "deg_tol", f"expected a finite number >= 0, got {deg_tol}")
    out_path = _get_typed(cp, "output", "path", str)
    out_format = (_get_typed(cp, "output", "format", str, "json") or "json").lower()
    if out_format not in ("json", "csv"):
        raise _fail("output", "format", f"expected json or csv, got {out_format!r}")
    scenarios_raw = _get_typed(cp, "verify", "scenarios", str, "")
    scenarios = tuple(s.strip() for s in scenarios_raw.split(",") if s.strip())

    return RunConfig(
        command=command,
        seed=seed,
        bc=_parse_spec(cp, "bc", n_cells),
        n_cells=n_cells,
        n_particles=n_particles,
        grids=grids,
        potential=_parse_spec(cp, "v", n_cells),
        interaction=_parse_spec(cp, "w", n_cells),
        k=k,
        deg_tol=deg_tol,
        out_path=out_path,
        out_format=out_format,
        scenarios=scenarios,
    )


# ---------------------------------------------------------------------------
# deterministic emission


def _format_float(x: float) -> str:
    # strict JSON has no non-finite numbers: they are strings float() reads back
    if x != x:
        return '"NaN"'
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.12g}"


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _emit_json(v, indent + 1) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _emit_json(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _report_to_dict(report: VerificationReport) -> dict:
    env = dict(report.environment)
    if not report.checks and report.error is None:
        env["no_checks"] = True
    return {
        "name": report.scenario,
        "expected": report.expected,
        "overall": report.overall,
        "error": report.error,
        "checks": [dataclasses.asdict(c) for c in report.checks],
        "environment": env,
    }


def emit_report(report, fmt: str = "json") -> bytes:
    """Serialize a verification report (or a list of them) to bytes.

    JSON output carries stable key order and 12-significant-digit decimals;
    CSV output has a header row and one check per row.
    """
    reports = report if isinstance(report, (list, tuple)) else [report]
    if fmt == "json":
        doc = {
            "schema": "fermigate-report/1",
            "overall": all(r.overall for r in reports),
            "scenarios": [_report_to_dict(r) for r in reports],
        }
        return (_emit_json(doc) + "\n").encode()
    if fmt == "csv":
        return _checks_csv([_report_to_dict(r) for r in reports])
    raise ConfigError(f"unknown report format {fmt!r}")


def _checks_csv(scenarios: list[dict]) -> bytes:
    """One CSV row per check of report dicts, as _report_to_dict makes them."""
    lines = ["scenario,check,measured,comparator,threshold,passed,note"]
    for r in scenarios:
        if not r.get("checks"):
            lines.append(f"{r['name']},,,,,{str(bool(r.get('overall'))).lower()},{r.get('error') or 'no-checks'}")
        for c in r.get("checks", []):
            lines.append(
                f"{r['name']},{c['name']},{float(c['measured']):.12g},{c['comparator']},"
                f"{float(c['threshold']):.12g},{str(c['passed']).lower()},{c.get('note', '')}"
            )
    return ("\n".join(lines) + "\n").encode()


def parse_report(data: bytes) -> dict:
    """Inverse of the JSON emission (values reparsed as plain Python)."""
    return json.loads(data.decode())


# ---------------------------------------------------------------------------
# command implementations


def _write_artifact(data: bytes, path: str | None) -> None:
    if path:
        Path(path).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def _print_check_lines(reports) -> None:
    for r in reports:
        if r.error:
            print(f"ERROR {r.scenario}: {r.error}")
        for c in r.checks:
            status = "PASS" if c.passed else "FAIL"
            note = f" [{c.note}]" if c.note else ""
            print(
                f"{status} {r.scenario}/{c.name}: {c.measured:.6g} {c.comparator} "
                f"{c.threshold:.6g}{note}"
            )


def _cmd_verify(config: RunConfig) -> int:
    if config.scenarios:
        overrides = {}
        if config.grids:
            overrides["grids"] = list(config.grids)
        scenarios = [make_scenario(name, overrides or None) for name in config.scenarios]
    else:
        scenarios = default_manifest()
    reports = run_manifest(scenarios, seed=config.seed)
    _print_check_lines(reports)
    data = emit_report(reports, config.out_format)
    _write_artifact(data, config.out_path)
    if any(r.error for r in reports):
        return 2
    return 0 if all(r.overall for r in reports) else 2


def _finish_solve(config: RunConfig, problem: dict, res, extra: dict) -> int:
    """Print the spectrum and write the solve artifact (JSON, or CSV eigenvalues)."""
    for i, lam in enumerate(res.eigenvalues):
        print(f"PASS {config.command}/lambda{i + 1}: {lam:.6g}")
    if config.out_format == "csv":
        pairs = enumerate(zip(res.eigenvalues, res.residuals))
        text = "\n".join(["k,lambda,residual"] + [f"{i + 1},{lam:.12g},{r:.12g}" for i, (lam, r) in pairs])
    else:
        text = _emit_json({
            "schema": "fermigate-solve/1",
            "command": config.command,
            "seed": config.seed,
            "problem": problem,
            "eigenvalues": res.eigenvalues.tolist(),
            "residuals": res.residuals.tolist(),
            **extra,
        })
    _write_artifact((text + "\n").encode(), config.out_path)
    return 0


def _cmd_solve_single(config: RunConfig) -> int:
    grid = build_grid_basis(config.n_cells, config.bc)
    K = assemble_stiffness(grid)
    M = assemble_overlap(grid)
    P = assemble_potential(grid, config.potential)
    res = solve_sp_eig(K, P, M, min(config.k, grid.n_dofs))
    gaps = gap_report(res, config.bc, config.deg_tol) if res.eigenvalues.size >= 2 else None
    extra = {"gaps": list(gaps.gaps), "gap_verdicts": list(gaps.verdicts)} if gaps is not None else {}
    problem = {"bc": spec_to_dict(config.bc), "v": spec_to_dict(config.potential), "n_cells": config.n_cells}
    return _finish_solve(config, problem, res, extra)


def _cmd_solve_many(config: RunConfig) -> int:
    prob = build_problem(
        config.potential, config.interaction, config.bc, config.n_cells, config.n_particles
    )
    res = solve_mb_eig(prob.operator, min(config.k, prob.slater.dim))
    psi = WaveVector(res.eigenvectors[:, 0], prob.slater)
    rho = reduced_density(psi, prob.orbitals)
    sample = restrict_to_simplex(psi, prob.orbitals)
    problem = {
        "bc": spec_to_dict(config.bc),
        "v": spec_to_dict(config.potential),
        "w": spec_to_dict(config.interaction),
        "n_cells": config.n_cells,
        "n_particles": config.n_particles,
    }
    extra = {
        "density": {"nodes": prob.grid.nodes.tolist(), "values": rho.tolist()},
        "simplex_sample": {
            "points": [list(p) for p in sample.points],
            "values": sample.values.tolist(),
            "tags": list(sample.tags),
        },
    }
    return _finish_solve(config, problem, res, extra)


def _cmd_report(config: RunConfig) -> int:
    if not config.report_input:
        raise ConfigError("report: an input JSON path is required")
    data = parse_report(Path(config.report_input).read_bytes())
    out_dir = Path(config.out_path) if config.out_path else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = data.get("schema", "")
    if schema.startswith("fermigate-report"):
        print(f"{'scenario':40s} {'checks':>6s} {'status':>8s}")
        for r in data.get("scenarios", []):
            status = "pass" if r.get("overall") else "FAIL"
            print(f"{r['name']:40s} {len(r.get('checks', [])):6d} {status:>8s}")
            for c in r.get("checks", []):
                mark = "+" if c["passed"] else "-"
                # JSON stores non-finite values as strings: float() reads them back
                measured, threshold = float(c["measured"]), float(c["threshold"])
                print(f"  {mark} {c['name']}: {measured:.6g} {c['comparator']} {threshold:.6g}")
        (out_dir / "checks.csv").write_bytes(_checks_csv(data.get("scenarios", [])))
        print(f"wrote {out_dir / 'checks.csv'}")
        return 0
    if schema.startswith("fermigate-solve"):
        print(f"{'k':>4s} {'lambda':>18s}")
        for i, lam in enumerate(data.get("eigenvalues", [])):
            print(f"{i + 1:4d} {float(lam):18.10g}")
        if "density" in data:
            lines = ["x,rho"]
            for x, v in zip(data["density"]["nodes"], data["density"]["values"]):
                lines.append(f"{float(x):.12g},{float(v):.12g}")
            (out_dir / "density.csv").write_text("\n".join(lines) + "\n")
            print(f"wrote {out_dir / 'density.csv'}")
        if "simplex_sample" in data:
            sample = data["simplex_sample"]
            dim = len(sample["points"][0]) if sample["points"] else 0
            header = ",".join(f"x{i + 1}" for i in range(dim)) + ",value,tag"
            lines = [header]
            for p, v, t in zip(sample["points"], sample["values"], sample["tags"]):
                coords = ",".join(f"{float(c):.12g}" for c in p)
                lines.append(f"{coords},{float(v):.12g},{t}")
            (out_dir / "simplex_sample.csv").write_text("\n".join(lines) + "\n")
            print(f"wrote {out_dir / 'simplex_sample.csv'}")
        return 0
    raise ConfigError(f"report: unknown artifact schema {schema!r}")


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        if config.command == "verify":
            return _cmd_verify(config)
        if config.command == "solve-single":
            return _cmd_solve_single(config)
        if config.command == "solve-many":
            return _cmd_solve_many(config)
        if config.command == "report":
            return _cmd_report(config)
        raise ConfigError(f"unknown command {config.command!r}")
    except ConfigError:
        raise
    except (FermigateError, np.linalg.LinAlgError, ValueError, MemoryError) as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermigate",
        description="Galerkin spectral engine and verification harness for "
        "one-dimensional fermionic Schrodinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("input", help="existing JSON artifact to format")
        p.add_argument("--config", default=None, help="path to an INI config document")
        p.add_argument("--out", default=None, help="output artifact path")
        p.add_argument("--format", default=None, choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grids", default=None, help="coarse,fine cell counts, e.g. 40,80")
        if name == "verify":
            p.add_argument(
                "--scenario",
                action="append",
                default=None,
                help="scenario name (repeatable); defaults to the full manifest",
            )
    return parser


def _config_from_args(args) -> RunConfig:
    if args.config:
        text = Path(args.config).read_text()
        config = parse_config(text)
        if config.command != args.command:
            raise ConfigError(
                f"[run] command: config says {config.command!r} but the "
                f"command line says {args.command!r}"
            )
    else:
        config = RunConfig(command=args.command)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_path"] = args.out
    if args.format is not None:
        updates["out_format"] = args.format
    if args.grids is not None:
        updates["grids"] = parse_grids(args.grids)
    if getattr(args, "scenario", None):
        updates["scenarios"] = tuple(args.scenario)
    if args.command == "report":
        updates["report_input"] = args.input
    return dataclasses.replace(config, **updates) if updates else config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
