"""One pass of one workload in a fresh process.

Started by run.py with the spawn time in --t0 (time.monotonic is the
system-wide CLOCK_MONOTONIC on Linux, so parent and child clocks agree).
Set-up is everything from that instant until the first operation can be
issued: interpreter start, `import fermigate` and, for the manifest, loading
it.  The pass result is written as JSON to --out.

    python3 perfbench/worker.py --workload solve_n2 --seed 1 --pass-index 0 \
        --t0 <monotonic> --out result.json [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("FERMIGATE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


@contextlib.contextmanager
def _paused(tracer):
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


# ---------------------------------------------------------------------------
# verify_manifest: `fermigate verify` over the default manifest


def manifest_pass(args, tracer, manifest) -> dict:
    import inputs
    from fermigate import cli, verify

    import checks

    out = Path(args.out)
    report_path = out.with_name(out.stem + ".report.json")
    latencies = {}
    if tracer is None:
        # a clock per scenario, so op_p50_s needs no trace
        run_scenario = verify.run_scenario

        def timed(s, seed=0):
            a = time.perf_counter()
            try:
                return run_scenario(s, seed)
            finally:
                latencies[s.name] = time.perf_counter() - a

        verify.run_scenario = timed

    argv = ["verify", "--seed", str(args.seed), "--out", str(report_path)]
    t_first = time.perf_counter()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        rc = cli.main(argv)
    data = report_path.read_bytes()
    doc = json.loads(data)
    fails = checks.manifest_report(doc)
    t_last = time.perf_counter()

    if tracer is not None:
        for s in tracer.spans:
            if s.name == "verify.run_scenario":
                latencies[s.op] = s.end - s.start
    run_failures = [] if rc == 0 else [f"fermigate verify exited {rc}"]
    names = [s.name for s in manifest]
    missing = sorted(set(names) - set(fails))
    if missing:
        run_failures.append(f"scenarios missing from the report: {missing}")
    ops = [
        {"id": name, "latency_s": latencies.get(name), "failures": fails.get(name, ["missing"])}
        for name in names
    ]
    if not any(op["failures"] for op in ops) and not run_failures:
        report_path.unlink()
    return {
        "wall_s": t_last - t_first,
        "ops": ops,
        "run_failures": run_failures,
        "inputs_sha256": inputs.sha256_json({"argv": argv[:3]}),
        "manifest_sha256": inputs.sha256_json(
            [[s.name, s.kind, s.params, s.expected] for s in manifest]
        ),
        "report_sha256": hashlib.sha256(data).hexdigest(),
    }


# ---------------------------------------------------------------------------
# solve_n2 / solve_n3: the work of `fermigate solve-many`, request by request


def _sp_levels(v, bc, n_cells):
    import scipy.sparse as sp
    from fermigate import basis, spectrum

    grid = basis.build_grid_basis(n_cells, bc)
    K, M = basis.assemble_stiffness(grid), basis.assemble_overlap(grid)
    if v is None:
        P = basis.SymMatrix.from_sparse(sp.csr_matrix(K.data.shape))
    else:
        P = basis.assemble_potential(grid, v)
    return spectrum.solve_sp_eig(K, P, M, grid.n_dofs).eigenvalues


def stream_pass(args, tracer) -> dict:
    from fermigate import manybody, simplex, slater, spectrum, verify

    import checks
    import inputs

    reqs = inputs.stream_pass(args.workload, args.seed, args.pass_index)
    objs = [
        (verify.dict_to_potential(r["v"]), verify.dict_to_interaction(r["w"]),
         verify.dict_to_bc(r["bc"]))
        for r in reqs
    ]
    rtol = spectrum.RESIDUAL_RTOL
    free_levels = {}  # group -> eigenvalues of the free twin
    ops = []
    t_first = time.perf_counter()
    for i, (req, (v, w, bc)) in enumerate(zip(reqs, objs)):
        wkind = req["w"]["kind"]
        op = {"id": i, "group": req["group"], "bc": req["bc"], "n_cells": req["n_cells"],
              "w": wkind, "latency_s": None, "failures": []}
        ops.append(op)
        n, N = req["n_cells"], req["n_particles"]
        try:
            if tracer is not None:
                tracer.op = i
                span = tracer.begin("request", None)
            try:
                a = time.perf_counter()
                prob = slater.build_problem(v, w, bc, n, N)
                res = manybody.solve_mb_eig(prob.operator, min(req["k"], prob.slater.dim))
                psi = slater.WaveVector(res.eigenvectors[:, 0], prob.slater)
                rho = slater.reduced_density(psi, prob.orbitals)
                sample = simplex.restrict_to_simplex(psi, prob.orbitals)
                op["latency_s"] = time.perf_counter() - a
            finally:
                if tracer is not None:
                    tracer.end(span)
                    tracer.op = None
        except Exception as exc:  # a failed request is counted, the stream goes on
            op["failures"].append(f"{type(exc).__name__}: {exc}")
            continue
        with _paused(tracer):
            lam = res.eigenvalues
            op["D"] = int(prob.slater.dim)
            op["lambda"] = [float(x) for x in lam]
            f = op["failures"]
            f += checks.spectral(res, prob.operator.matrix, rtol)
            f += checks.density(rho, prob.grid, N)
            f += checks.simplex_sample(sample, prob.grid.n_nodes, N)
            if wkind == "none":
                f += checks.orbital_sums(lam, _sp_levels(v, bc, n), N)
                free_levels[req["group"]] = lam
            elif req["group"] not in free_levels:
                f.append("free twin missing")
            elif wkind == "delta-contact":
                f += checks.contact_twin(lam, free_levels[req["group"]])
            elif wkind == "sampled-kernel":
                f += checks.kernel_twin(float(lam[0]), float(free_levels[req["group"]][0]))
        del prob, res, psi, rho, sample
    t_last = time.perf_counter()
    return {
        "wall_s": t_last - t_first,
        "ops": ops,
        "run_failures": [],
        "inputs_sha256": inputs.sha256_json(reqs),
    }


# ---------------------------------------------------------------------------


def _layer_metrics(tracer) -> dict:
    import spans

    m = spans.metric_self_times(tracer.spans)
    ev = tracer.events

    def top(what, key):
        return max((e[key] for e in ev if e["what"] == what), default=0)

    m["slater.dim_max"] = top("assemble", "D")
    m["slater.h_nnz"] = top("assemble", "h_nnz")
    m["slater.h_bytes"] = top("assemble", "h_bytes")
    m["slater.two_body_bytes"] = top("two_body", "bytes")
    m["spectrum.max_residual_ratio"] = top("mb_eig", "residual_ratio")
    # each ratio with its base: the number of cache lookups
    m["verify.problem_hit_ratio"], m["verify.problem_lookups"] = spans.hit_ratio(
        tracer.spans, "verify.cached_problem", "slater.build_problem")
    m["verify.eig_hit_ratio"], m["verify.eig_lookups"] = spans.hit_ratio(
        tracer.spans, "verify.cached_mb_eig", "manybody.solve_mb_eig")
    m["trace.spans"] = len(tracer.spans)
    m["trace.hooks_s"] = sum(s.end - s.start for s in tracer.spans if s.name == "trace.hook")
    for s in tracer.spans:
        if s.name == "verify.run_scenario":
            m[f"verify.scenario_s.{s.op}"] = s.end - s.start
    for e in ev:
        if e["what"] == "scenario":
            m[f"verify.rss_mb.{e['op']}"] = e["rss_mb"]
    return m


def _exact_counts(tracer) -> list[dict]:
    """Per-operation counts with the floating-point fields left out."""
    keep = ("op", "what", "D", "k", "path", "h_nnz", "h_bytes", "bytes", "n_orbitals")
    return [{k: e[k] for k in keep if k in e} for e in tracer.events if e["what"] != "scenario"]


def main(argv=None) -> int:
    args = _args(argv)
    import fermigate
    from fermigate import verify

    manifest = verify.default_manifest() if args.workload == "verify_manifest" else None
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "fermigate": fermigate.__file__}
    src = os.path.join(os.getcwd(), "src", "")
    if not fermigate.__file__.startswith(src):
        print(f"fermigate imported from {fermigate.__file__}, not {src}", file=sys.stderr)
        return 3
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        if args.workload == "verify_manifest":
            result.update(manifest_pass(args, tracer, manifest))
        else:
            result.update(stream_pass(args, tracer))
        result["peak_rss_mb"] = _rss_mb()
        result["environment"] = _environment()
        if tracer is not None:
            result["layer"] = _layer_metrics(tracer)
            result["counts"] = _exact_counts(tracer)
            result["spans"] = [
                [s.sid, s.name, s.metric, s.start, s.end, s.parent, s.op] for s in tracer.spans
            ]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
