"""Turn worker pass results into the benchmark's metrics, lines and checks."""

from __future__ import annotations

import statistics

from inputs import sha256_json

TAIL_PER_MILLE = (999, 990, 900)  # p99.9, p99, p90, in integers to round exactly
TAIL_MIN_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, or None.

    The value is the nearest-rank percentile of the sorted samples.
    """
    xs = sorted(values)
    n = len(xs)
    for pm in TAIL_PER_MILLE:
        rank = -(-pm * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return pm / 10.0, xs[rank - 1]
    return None


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _latencies(passes) -> list[float]:
    return [op["latency_s"] for p in passes for op in p["ops"] if op["latency_s"] is not None]


def _determinism(passes, traced, run_failures) -> dict:
    """Digests later runs at the same seed must reproduce, per pass."""
    out = {}
    for i, p in enumerate(passes):
        out[f"pass{i}.inputs_sha256"] = p["inputs_sha256"]
        if "report_sha256" in p:
            out[f"pass{i}.report_sha256"] = p["report_sha256"]
    for i, t in enumerate(traced):
        out[f"pass{i}.counts_sha256"] = sha256_json(t["counts"])
        for key in ("inputs_sha256", "report_sha256"):
            if key in t and t[key] != passes[i][key]:
                run_failures.append(f"pass {i}: traced {key} differs from the untraced one")
    reports = {p["report_sha256"] for p in passes + traced if "report_sha256" in p}
    if len(reports) > 1:
        run_failures.append("verify reports are not byte-identical across passes at one seed")
    return out


def summarize(args, bench: dict, setups, passes, traced, code_sha256: str) -> dict:
    all_passes = passes + traced
    run_failures = [f for p in all_passes for f in p["run_failures"]]
    ops = [op for p in all_passes for op in p["ops"]]
    failed_ops = [op for op in ops if op["failures"]]
    setup_samples = list(setups) + [p["setup_s"] for p in all_passes]
    lat = _latencies(passes)
    env = passes[0]["environment"]

    e2e = {
        "setup_s": (_median(setup_samples), f"median of {len(setup_samples)} process starts"),
        "wall_s": (_median([p["wall_s"] for p in passes]), f"median of {len(passes)} passes"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in passes]),
                        f"median of {len(passes)} passes"),
    }
    if args.workload != "verify_manifest":  # scenarios are too uneven for a median
        e2e["op_p50_s"] = (_median(lat), f"median of {len(lat)} requests")
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "environment: nproc={nproc} python={python} numpy={numpy} scipy={scipy} blas={blas} "
        "threads={threads}".format(**env),
        f"inputs: seed={args.seed} inputs_sha256={passes[0]['inputs_sha256']}",
    ]
    if "report_sha256" in passes[0]:
        lines.append(f"manifest_sha256={passes[0]['manifest_sha256']} "
                     f"report_sha256={passes[0]['report_sha256']}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, (value, basis) in e2e.items():
        lines.append(f"{name} = {_fmt(value)} {units.get(name, 's')} ({basis})")
    tail = tail_percentile(lat)
    if tail is not None and "op_p50_s" in e2e:
        lines.append(f"op_p{tail[0]:g}_s = {_fmt(tail[1])} s ({len(lat)} operations)")
    lines.append(f"failed_frac = {len(failed_ops)}/{len(ops)} = "
                 f"{len(failed_ops) / max(1, len(ops)):.6g}")
    for op in failed_ops:
        lines.append(f"FAILED op {op['id']}: {'; '.join(op['failures'])}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code_sha256": code_sha256,
        "environment": env,
        "setup_samples": setup_samples,
        "passes": passes,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "run_failures": run_failures,
    }
    report["deterministic"] = _determinism(passes, traced, run_failures)

    if not args.trace:
        report["metrics"] = {
            m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in bench["end_to_end"]
        }
    else:
        layer = {}
        for m in bench["per_layer"]:
            vals = [t["layer"].get(m["name"], 0.0) for t in traced]
            layer[m["name"]] = _median(vals)
        plain_wall = e2e["wall_s"][0]
        traced_wall = _median([t["wall_s"] for t in traced])
        layer["trace.overhead_s"] = traced_wall - plain_wall
        report["metrics"] = {
            m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]
        }
        lines.append(f"traced wall_s = {_fmt(traced_wall)} s against untraced {_fmt(plain_wall)} s: "
                     f"overhead {_fmt(layer['trace.overhead_s'])} s; the tracer recorded "
                     f"{_median([t['layer']['trace.spans'] for t in traced]):g} spans and spent "
                     f"{_fmt(_median([t['layer']['trace.hooks_s'] for t in traced]))} s in count hooks")
        for m in bench["per_layer"]:
            v = layer[m["name"]]
            if v and m["name"] != "trace.overhead_s":
                share = f" ({100.0 * v / traced_wall:.1f}% of traced wall_s)" if m["unit"] == "s" else ""
                lines.append(f"{m['name']} = {_fmt(v)} {m['unit']}{share}")
        report["traced"] = [
            {"wall_s": t["wall_s"], "layer": t["layer"], "counts": t["counts"], "spans": t["spans"]}
            for t in traced
        ]
    report["correct"] = not failed_ops and not run_failures
    report["lines"] = lines
    return report
