"""Seeded request streams for the solve workloads.

Everything here is pure Python, so the same seed yields the same requests
(and the same sha256) on every machine.  A request is a JSON-able dict; the
worker turns it into fermigate objects and passes nothing else to the
program.

A stream is a sequence of passes.  Every pass has the same shape (the same
boundary kinds, sizes and interaction kinds in the same order), so medians
over whole passes do not depend on how many passes fit in a run; the seed
and the pass index only change the numbers inside the requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# N=2: one group per boundary kind, each group a free request and its
# delta-contact and sampled-kernel twins on the same grid and potential.
N2_CELLS = 72
N2_BCS = (
    {"kind": "dirichlet-both"},
    {"kind": "dirichlet-left"},
    {"kind": "free"},
    {"kind": "quasiperiodic", "alpha": 1.0},
    {"kind": "quasiperiodic", "alpha": -1.0},
)

# N=3: two large non-interacting solves (sparse ARPACK and dense evr), then
# two sampled-kernel requests, each with its free twin.
N3_LARGE = (
    ({"kind": "quasiperiodic", "alpha": 1.0}, 40),  # D = 9880, sparse H
    ({"kind": "dirichlet-both"}, 32),  # D = 4495, dense H
)
N3_KERNEL = (
    ({"kind": "dirichlet-both"}, 24),  # D = 1771
    ({"kind": "quasiperiodic", "alpha": -1.0}, 22),  # D = 1540
)

STREAMS = ("solve_n2", "solve_n3")
K_EIG = 4


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # str seeds are hashed with sha512 by random.Random: stable across runs
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _potential(rng: random.Random, n_cells: int) -> dict:
    if rng.random() < 0.5:
        return {
            "kind": "delta",
            "x0": round(rng.uniform(0.15, 0.85), 6),
            "strength": round(rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 15.0), 6),
        }
    amps = [rng.uniform(-8.0, 8.0) for _ in range(3)]
    shift = rng.uniform(0.0, 5.0)
    values = [
        shift + sum(a * math.sin((m + 1) * math.pi * i / n_cells) for m, a in enumerate(amps))
        for i in range(n_cells + 1)
    ]
    return {"kind": "sampled", "values": values}


def _kernel(rng: random.Random, n_cells: int) -> dict:
    """Non-negative smooth Gaussian kernel sampled at the grid nodes."""
    amp = rng.uniform(2.0, 20.0)
    width = rng.uniform(0.05, 0.3)
    x = [i / n_cells for i in range(n_cells + 1)]
    values = [[amp * math.exp(-((a - b) ** 2) / (2.0 * width * width)) for b in x] for a in x]
    return {"kind": "sampled-kernel", "amp": amp, "width": width, "values": values}


def _request(group: int, bc: dict, n_cells: int, n_particles: int, v: dict, w: dict) -> dict:
    return {
        "group": group,
        "bc": bc,
        "n_cells": n_cells,
        "n_particles": n_particles,
        "v": v,
        "w": w,
        "k": K_EIG,
    }


def stream_pass(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The requests of one pass, in issue order.

    Requests sharing a `group` share grid, boundary and potential; the one
    with interaction kind 'none' is the free twin of the others.
    """
    rng = _rng(workload, seed, pass_index)
    out = []
    if workload == "solve_n2":
        for g, bc in enumerate(N2_BCS):
            v = _potential(rng, N2_CELLS)
            contact = {
                "kind": "delta-contact",
                "strength": round(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 20.0), 6),
            }
            for w in ({"kind": "none"}, contact, _kernel(rng, N2_CELLS)):
                out.append(_request(g, bc, N2_CELLS, 2, v, w))
    elif workload == "solve_n3":
        g = 0
        for bc, n in N3_LARGE:
            out.append(_request(g, bc, n, 3, _potential(rng, n), {"kind": "none"}))
            g += 1
        for bc, n in N3_KERNEL:
            v = _potential(rng, n)
            out.append(_request(g, bc, n, 3, v, {"kind": "none"}))
            out.append(_request(g, bc, n, 3, v, _kernel(rng, n)))
            g += 1
    else:
        raise ValueError(f"unknown stream workload {workload!r}")
    return out


def sha256_json(obj) -> str:
    """sha256 of the canonical JSON encoding of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
