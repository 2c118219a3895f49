"""In-memory span recorder that wraps fermigate's public functions.

Modules import functions by name (`from .slater import build_problem`), so
a function is wrapped in every fermigate module namespace that binds it:
each caller then looks up the wrapper at call time.  Spans stay in memory
and are written out by the worker when its pass ends.

The recorder keeps one stack, so it assumes one thread of work; the
benchmark runs fermigate with FERMIGATE_THREADS=1.
"""

from __future__ import annotations

import importlib
import resource
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from checks import norm1

MODULES = ("basis", "slater", "spectrum", "manybody", "simplex", "verify", "cli")


@dataclass
class Span:
    sid: int
    name: str  # "<module>.<function>"
    metric: str | None  # per-layer metric its self time counts toward
    start: float
    end: float
    parent: int | None
    op: object  # operation id: request index or scenario name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[dict] = []  # exact counts, tagged with the op
        self.op = None
        self.paused = False
        self._stack: list[int] = []

    def begin(self, name: str, metric: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, metric, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def event(self, **fields) -> None:
        self.events.append({"op": self.op, **fields})

    def wrap(self, fn, name: str, metric, hook=None, op_of=None):
        """Return fn recording a span per call.

        metric is a name or a function of the call arguments; hook(result,
        args) records counts after the call, inside a 'trace.hook' child
        span so its cost is not charged to the caller's self time; op_of(args)
        makes the call an operation boundary.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            outer_op = tracer.op
            if op_of is not None:
                tracer.op = op_of(args)
            try:
                span = tracer.begin(name, metric(args) if callable(metric) else metric)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                if hook is not None:
                    h = tracer.begin("trace.hook", None)
                    try:
                        hook(result, args)
                    finally:
                        tracer.end(h)
                return result
            finally:
                tracer.op = outer_op

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.sid] = (s.end - s.start) - covered
    return out


def metric_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        if s.metric is not None:
            out[s.metric] += own[s.sid]
    return dict(out)


def hit_ratio(spans: list[Span], lookup: str, build: str) -> tuple[float, int]:
    """1 - (build calls made from lookup) / (lookup calls), and the base."""
    by_id = {s.sid: s for s in spans}
    lookups = sum(1 for s in spans if s.name == lookup)
    builds = sum(
        1
        for s in spans
        if s.name == build and s.parent is not None and by_id[s.parent].name == lookup
    )
    return (1.0 - builds / lookups if lookups else 0.0), lookups


# ---------------------------------------------------------------------------
# what gets wrapped


def _eig_path(H, k: int) -> str:
    """The branch solve_dense_symmetric takes for this input."""
    dim = H.shape[0]
    if not sp.issparse(H):
        return "dense-full" if dim <= 400 else "dense-evr"
    return "dense-full" if k >= dim - 1 else "arpack"


def _matrix_counts(H) -> tuple[int, int]:
    if sp.issparse(H):
        return int(H.nnz), int(H.data.nbytes + H.indices.nbytes + H.indptr.nbytes)
    return int(np.count_nonzero(H)), int(H.nbytes)


def _targets(tracer: Tracer, fg) -> list[tuple[str, str, object, object, object]]:
    """(module, function, metric, hook, op_of) for every wrapped function."""
    rtol = fg.spectrum.RESIDUAL_RTOL

    def on_assemble(op, args):
        nnz, nbytes = _matrix_counts(op.matrix)
        tracer.event(what="assemble", D=int(op.dim), h_nnz=nnz, h_bytes=nbytes)

    def on_two_body(two, args):
        nbytes = 0 if two.pair_matrix is None else int(two.pair_matrix.nbytes)
        tracer.event(what="two_body", n_orbitals=int(two.n_orbitals), bytes=nbytes)

    def on_mb_eig(res, args):
        H, k = args[0], args[1]
        lam = res.eigenvalues
        ratio = float((res.residuals / (rtol * (norm1(H) + abs(lam)))).max())
        tracer.event(what="mb_eig", D=int(H.shape[0]), k=int(k), path=_eig_path(H, k),
                     residual_ratio=ratio)

    def on_scenario(report, args):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.event(what="scenario", rss_mb=rss)

    def mb_metric(args):
        return "spectrum.mb_sparse_s" if sp.issparse(args[0]) else "spectrum.mb_dense_s"

    t = []
    for fn in ("build_grid_basis", "assemble_overlap", "assemble_stiffness", "assemble_potential"):
        t.append(("basis", fn, "basis.assemble_s", None, None))
    t += [
        ("slater", "build_problem", None, None, None),
        ("slater", "make_orbitals", "slater.orbitals_s", None, None),
        ("slater", "orthonormalize_orbitals", "slater.orbitals_s", None, None),
        ("slater", "transform_one_body", "slater.one_body_s", None, None),
        ("slater", "transform_two_body", "slater.two_body_s", on_two_body, None),
        ("slater", "enumerate_slater_basis", "slater.enumerate_s", None, None),
        ("slater", "assemble_manybody", "slater.assemble_s", on_assemble, None),
        ("slater", "assemble_manybody_bruteforce", "slater.bruteforce_s", None, None),
        ("slater", "reduced_density", "slater.density_s", None, None),
        ("slater", "reduced_pair_density", "slater.density_s", None, None),
        ("slater", "one_body_density_matrix", "slater.density_s", None, None),
        ("slater", "pair_density_matrix", "slater.density_s", None, None),
        ("spectrum", "solve_sp_eig", "spectrum.sp_solve_s", None, None),
        ("spectrum", "solve_pencil", "spectrum.sp_solve_s", None, None),
        ("spectrum", "solve_dense_symmetric", mb_metric, on_mb_eig, None),
        ("manybody", "solve_mb_eig", "manybody.solve_s", None, None),
        ("manybody", "classify_degeneracy", "manybody.classify_s", None, None),
        ("manybody", "inverse_iteration_ground", "manybody.inverse_iter_s", None, None),
        ("simplex", "nodal_tensor", "simplex.nodal_tensor_s", None, None),
        ("simplex", "evaluate_state", "simplex.nodal_tensor_s", None, None),
        ("simplex", "restrict_to_simplex", "simplex.restrict_s", None, None),
        ("simplex", "restrict_full_tensor", "simplex.restrict_s", None, None),
        ("simplex", "extend_from_simplex", "simplex.restrict_s", None, None),
        ("simplex", "positivity_report", "simplex.positivity_s", None, None),
        ("simplex", "simplex_norms", "simplex.norms_s", None, None),
        ("simplex", "simplex_potential_energy", "simplex.norms_s", None, None),
        ("simplex", "box_norms", "simplex.norms_s", None, None),
        ("verify", "run_scenario", None, on_scenario, lambda args: args[0].name),
        ("verify", "cached_problem", None, None, None),
        ("verify", "cached_mb_eig", None, None, None),
        ("cli", "emit_report", "cli.emit_s", None, None),
    ]
    return t


def install(tracer: Tracer) -> None:
    """Wrap the target functions in every fermigate namespace that binds them."""
    import fermigate as fg

    mods = [importlib.import_module(f"fermigate.{m}") for m in MODULES]
    for mod_name, fn_name, metric, hook, op_of in _targets(tracer, fg):
        orig = getattr(importlib.import_module(f"fermigate.{mod_name}"), fn_name)
        wrapped = tracer.wrap(orig, f"{mod_name}.{fn_name}", metric, hook, op_of)
        for ns in mods + [fg]:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, attr, wrapped)
