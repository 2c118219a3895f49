"""fermigate benchmark: one workload, measured end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_n2 --seed 1 --seconds 20 --trace 0

A run repeats whole passes of the workload, each in a fresh process, until
--seconds have passed (always at least one pass).  With --trace 0 it prints
the end-to-end metrics; with --trace 1 each pass is run once untraced and
once traced, and it prints the per-layer metrics and the tracing overhead.
Every operation is checked; the last line of stdout is one JSON object, and
the exit status is 1 if any check failed.  Metric names and units come from
BENCHMARK.json; perfbench/README.md defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

WORKLOADS = ("verify_manifest", "solve_n2", "solve_n3")
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["FERMIGATE_THREADS"] = "1"
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = str(nproc)
    return env


def _code_sha256(root: Path) -> str:
    """Digest of the program's source and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*")) + sorted(HERE.glob("*.py"))
    for p in files:
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, args, out_dir: Path):
        self.root, self.args, self.out_dir = root, args, out_dir
        self.env = _child_env(root, len(os.sched_getaffinity(0)))
        self.started = time.monotonic()

    def worker(self, tag: str, pass_index: int = 0, trace=False, setup_only=False) -> dict:
        out = self.out_dir / f"{self.args.workload}-seed{self.args.seed}-{tag}.json"
        out.unlink(missing_ok=True)
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run time limit reached")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--pass-index", str(pass_index),
               "--t0", repr(t0), "--out", str(out)]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} did not finish within the run time limit") from exc
        if proc.returncode != 0 or not out.is_file():
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{tag} exited {proc.returncode}: " + " | ".join(err))
        result = json.loads(out.read_text())
        out.unlink()
        return result


def _record_determinism(out_dir: Path, key: str, values: dict) -> list[str]:
    """Compare values with those recorded under key by an earlier run."""
    path = out_dir / "determinism.json"
    book = json.loads(path.read_text()) if path.is_file() else {}
    fails = []
    old = book.get(key, {})
    for name, value in values.items():
        if name in old and old[name] != value:
            fails.append(f"{name} differs from an earlier run at the same seed ({key})")
        old.setdefault(name, value)
    book[key] = old
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
    tmp.replace(path)
    return fails


def measure(root: Path, args, bench: dict) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(root, args, out_dir)
    runner.worker("warmup", setup_only=True)  # byte-compiles and warms the file cache

    def probes(tag):
        return [runner.worker(f"{tag}{i}", setup_only=True)["setup_s"]
                for i in range(SETUP_PROBES // 2)]

    # half the set-up probes before the passes and half after, so a slow
    # phase of the host does not hit all of them
    setups = probes("setup-a")
    plain, traced = [], []
    t_start = time.monotonic()
    p = 0
    while True:
        plain.append(runner.worker(f"pass{p}", pass_index=p))
        if args.trace:
            traced.append(runner.worker(f"pass{p}-traced", pass_index=p, trace=True))
        p += 1
        if time.monotonic() - t_start >= args.seconds:
            break
    setups += probes("setup-b")
    return summary.summarize(args, bench, setups, plain, traced, _code_sha256(root))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fermigate" / "__init__.py").is_file():
        print("perfbench: no fermigate source under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    try:
        report = measure(root, args, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run_failures = report["run_failures"]
    run_failures += _record_determinism(
        HERE / "out",
        f"{args.workload}|seed={args.seed}|code={report['code_sha256'][:16]}",
        report["deterministic"],
    )
    report["correct"] = report["correct"] and not run_failures
    details = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps(report, indent=1))
    for line in report["lines"]:
        print(line)
    for f in run_failures:
        print(f"FAILED {f}")
    print(f"details: {details.relative_to(root)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
