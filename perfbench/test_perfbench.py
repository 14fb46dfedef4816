"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from summary import geomean, percentile, supported  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5.5
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 10
    assert percentile(xs, 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_support_needs_ten_samples_beyond():
    assert supported(100, 90)
    assert not supported(99, 90)
    assert supported(20, 50)
    assert not supported(19, 50)


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def _span(sid, start, end, parent=None):
    s = Span(sid, f"s{sid}", start, parent, None)
    s.end = end
    return s


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling
        _span(3, 8.0, 12.0, parent=0),  # runs past the parent's end
        _span(4, 2.5, 3.0, parent=2),  # grandchild: not the root's child
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert st[2] == pytest.approx(3.0 - 0.5)
    assert st[4] == pytest.approx(0.5)


def test_tracer_patches_only_while_installed():
    class Engine:
        def go(self, x):
            return x + 1

    original = Engine.__dict__["go"]
    tr = Tracer()
    tr.wrap(Engine, "go", "engine.go",
            note=lambda span, a, k, res: span.attrs.update(res=res))
    e = Engine()
    assert e.go(1) == 2 and not tr.spans
    tr.install()
    tr.request = 7
    with tr.span("request"):
        assert e.go(2) == 3
    tr.uninstall()
    assert Engine.__dict__["go"] is original
    e.go(3)
    assert [s.name for s in tr.spans] == ["request", "engine.go"]
    child = tr.spans[1]
    assert child.parent == 0 and child.request == 7 and child.attrs["res"] == 3
    events = tr.chrome_trace()["traceEvents"]
    assert {ev["ph"] for ev in events} == {"X"}


def test_injected_wrong_output_counts_as_failure(tmp_path):
    import workloads as W

    wl = W.make_workload("serve_small", tmp_path)
    args = wl.args["nn"]
    inp = W.make_inputs("nn", args, 5)
    good = W.reference("nn", args, inp)
    bad = [good[0].copy(), good[1].copy()]
    bad[0][2] += 1.0
    records = [
        W.Record("nn", 5, 0.001, payload={"outs": good}),
        W.Record("nn", 5, 0.001, payload={"outs": bad}),
    ]
    failures = wl.check(records)
    assert len(failures) == 1 and "nn seed 5" in failures[0]


def test_outputs_match_rejects_shape_changes():
    import workloads as W

    e = [np.zeros(4, dtype=np.float32)]
    assert W.outputs_match([np.zeros(4)], e)
    assert not W.outputs_match([np.zeros(3)], e)
    assert not W.outputs_match([], e)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(
        __import__("workloads").WORKLOADS)
