"""Unit tests of the benchmark harness itself (no fermigate solves).

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def _span(sid, start, end, parent=None, name="f", metric=None):
    return Span(sid, name, metric, start, end, parent, None)


# ---------------------------------------------------------------------------
# span self-time arithmetic


def test_self_time_subtracts_children():
    s = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0), _span(3, 1.5, 2.0, 1)]
    own = spans.self_times(s)
    assert own[0] == pytest.approx(7.0)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    s = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 4.0, 8.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    s = [_span(0, 0.0, 4.0), _span(1, 3.0, 9.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(3.0)


def test_metric_self_times_sum_per_metric():
    s = [
        _span(0, 0.0, 10.0, metric="a"),
        _span(1, 0.0, 4.0, 0, metric="b"),
        _span(2, 20.0, 23.0, metric="a"),
        _span(3, 5.0, 6.0, 0),  # no metric: still subtracted from its parent
    ]
    assert spans.metric_self_times(s) == pytest.approx({"a": 8.0, "b": 4.0})


def test_hit_ratio_counts_only_builds_under_the_lookup():
    s = [
        _span(0, 0, 1, name="lookup"),
        _span(1, 0, 1, 0, name="build"),
        _span(2, 2, 3, name="lookup"),
        _span(3, 4, 5, name="lookup"),
        _span(4, 6, 7, name="build"),  # a direct build, not a cache miss
    ]
    assert spans.hit_ratio(s, "lookup", "build") == (pytest.approx(2 / 3), 3)
    assert spans.hit_ratio([], "lookup", "build") == (0.0, 0)


def test_tracer_records_parents_ops_and_keeps_hooks_out_of_self_time():
    t = Tracer()
    seen = []

    def leaf(x):
        return x + 1

    wleaf = t.wrap(leaf, "m.leaf", "leaf_s", hook=lambda r, a: seen.append(r))

    def outer(x):
        return wleaf(x) * 2

    wouter = t.wrap(outer, "m.outer", "outer_s", op_of=lambda a: f"op{a[0]}")
    assert wouter(3) == 8
    assert seen == [4]
    assert t.op is None
    names = [s.name for s in t.spans]
    assert names == ["m.outer", "m.leaf", "trace.hook"]
    o, l, h = t.spans
    assert l.parent == o.sid and h.parent == o.sid
    assert l.op == "op3" and o.op == "op3"
    own = spans.self_times(t.spans)
    assert own[o.sid] == pytest.approx((o.end - o.start) - (l.end - l.start) - (h.end - h.start))

    t.paused = True
    assert wouter(1) == 4
    assert len(t.spans) == 3


def test_tracer_unwinds_on_exceptions():
    t = Tracer()

    def boom():
        raise KeyError("x")

    w = t.wrap(boom, "m.boom", None, op_of=lambda a: "op")
    with pytest.raises(KeyError):
        w()
    assert t.op is None and t._stack == [] and t.spans[0].end >= t.spans[0].start


# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (15, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    got = summary.tail_percentile(range(n))
    if expected is None:
        assert got is None
    else:
        p, value = got
        assert p == expected
        assert n - (value + 1) >= 10  # samples strictly beyond the reported one
        assert value == -(-int(p * 10) * n // 1000) - 1


def test_tail_percentile_value_is_nearest_rank():
    xs = [float(i) for i in range(1, 101)]  # 1..100
    assert summary.tail_percentile(reversed(xs)) == (90.0, 90.0)


# ---------------------------------------------------------------------------
# generator determinism


@pytest.mark.parametrize("workload", inputs.STREAMS)
def test_same_seed_same_inputs(workload):
    a = inputs.stream_pass(workload, 7, 0)
    b = inputs.stream_pass(workload, 7, 0)
    assert a == b
    assert inputs.sha256_json(a) == inputs.sha256_json(b)


@pytest.mark.parametrize("workload", inputs.STREAMS)
def test_seed_and_pass_change_values_but_not_shape(workload):
    def shape(reqs):
        return [(r["group"], r["bc"], r["n_cells"], r["n_particles"], r["w"]["kind"]) for r in reqs]

    base = inputs.stream_pass(workload, 7, 0)
    for other in (inputs.stream_pass(workload, 8, 0), inputs.stream_pass(workload, 7, 1)):
        assert inputs.sha256_json(other) != inputs.sha256_json(base)
        assert shape(other) == shape(base)


@pytest.mark.parametrize("workload", inputs.STREAMS)
def test_twins_share_grid_and_potential_and_kernels_are_nonnegative(workload):
    reqs = inputs.stream_pass(workload, 3, 0)
    groups = {}
    for r in reqs:
        groups.setdefault(r["group"], []).append(r)
    for members in groups.values():
        assert members[0]["w"]["kind"] == "none"
        for r in members[1:]:
            assert (r["bc"], r["n_cells"], r["v"]) == (members[0]["bc"], members[0]["n_cells"],
                                                     members[0]["v"])
    for r in reqs:
        if r["w"]["kind"] == "sampled-kernel":
            vals = r["w"]["values"]
            assert len(vals) == r["n_cells"] + 1
            assert all(x >= 0.0 for row in vals for x in row)
            assert all(vals[i][j] == vals[j][i] for i in range(len(vals)) for j in range(i))
