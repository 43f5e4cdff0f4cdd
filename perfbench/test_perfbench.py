"""Tests of the benchmark's own parts: generated configs, span arithmetic,
the correctness checks, the instrumentation's restore and the traced
loop's handling of failed commands."""

import json
import sys
import time

import pytest

import run
from checks import check_flow, check_foliate, check_geodesic
from tracing import Instrumentation, SpanRecorder, aggregate, merge
from workloads import WORKLOADS, command_of, make_config

sys.path.insert(0, str(run.SRC))
cli = pytest.importorskip("pshlab.cli")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_parse(workload):
    texts = set()
    for seed in (0, 1, 7, 12345):
        text = make_config(workload, seed)
        assert text == make_config(workload, seed)
        cfg = cli.parse_config(text)
        assert cfg.command == command_of(workload)
        texts.add(text)
    assert len(texts) == 4


def _span(sid, parent, name, start, end):
    return (sid, parent, 0, name, start, end)


def test_self_time_subtracts_child_coverage():
    spans = [_span(0, -1, "a", 0.0, 10.0),
             _span(1, 0, "b", 1.0, 4.0),
             _span(2, 0, "c", 5.0, 9.0),
             _span(3, 2, "d", 6.0, 7.0)]
    table = aggregate(spans)
    assert table["a"]["self_s"] == pytest.approx(3.0)
    assert table["b"]["self_s"] == pytest.approx(3.0)
    assert table["c"]["self_s"] == pytest.approx(3.0)
    assert table["d"]["self_s"] == pytest.approx(1.0)
    assert table["a"]["total_s"] == pytest.approx(10.0)
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, -1, "a", 0.0, 10.0),
             _span(1, 0, "b", 2.0, 6.0),
             _span(2, 0, "c", 4.0, 12.0)]
    assert aggregate(spans)["a"]["self_s"] == pytest.approx(2.0)


def test_recursive_total_counts_outermost_span_only():
    spans = [_span(0, -1, "f", 0.0, 8.0),
             _span(1, 0, "g", 1.0, 7.0),
             _span(2, 1, "f", 2.0, 5.0)]
    table = merge({}, aggregate(spans))
    assert table["f"]["calls"] == 2
    assert table["f"]["total_s"] == pytest.approx(8.0)
    assert table["f"]["self_s"] == pytest.approx(2.0 + 3.0)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path.parent


def test_flow_check_flags_mass_off_by_more_than_tolerance(tmp_path):
    out = _write(tmp_path / "masses.csv",
                 "# lambda,enclosed_mass,boundary_circulation\n"
                 "0.1,0.1005,0.0995\n0.3,0.3,0.3031\n")
    flags = {c.name: c.ok for c in check_flow(out)}
    assert flags == {"mass@0.1000": True, "circulation@0.1000": True,
                     "mass@0.3000": True, "circulation@0.3000": False}


def test_geodesic_check_flags_slope_gap_and_residual(tmp_path):
    meta = ("c = 0.8\nlambda_nodes = 16\nresolution = 128\nradius = 1.0\n"
            "slope_consistency_gap = {gap}\nmax_slice_residual = {res}\n")
    out = _write(tmp_path / "metadata.txt", meta.format(gap=0.049, res=0.15))
    assert all(c.ok for c in check_geodesic(out))
    _write(tmp_path / "metadata.txt", meta.format(gap=0.051, res=0.16))
    assert not any(c.ok for c in check_geodesic(out))


def test_foliate_check_flags_area_and_relative_drift(tmp_path):
    out = _write(tmp_path / "areas.csv",
                 "# lambda_target,lambda_leaf,area,h_drift\n"
                 "0.2,0.2,0.205,1e-4\n0.3,0.3,0.32,2e-4\n0.1,0.1,0.1,2e-4\n")
    assert [c.ok for c in check_foliate(out)] == [True, True, False, True,
                                                  True, False]


def test_nan_value_fails_a_check(tmp_path):
    out = _write(tmp_path / "masses.csv", "0.1,nan,0.1\n")
    assert [c.ok for c in check_flow(out)] == [False, True]


def test_instrumentation_records_and_restores():
    import numpy as np
    from pshlab import geometry, ma_measure
    original = geometry.polygon_area
    rec = SpanRecorder()
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with Instrumentation(rec):
        assert geometry.polygon_area is not original
        assert geometry.polygon_area(square) == pytest.approx(1.0)
    assert geometry.polygon_area is original
    assert ma_measure.boundary_mass.__module__ == "pshlab.ma_measure"
    assert [s[3] for s in rec.spans] == ["geometry.polygon_area"]


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == run.per_layer_units()
    assert len(listed) <= 128


class _FlakyLoop:
    """Stands in for run.Loop: every third command fails."""

    def __init__(self):
        self.attempted = 0
        self.checks = []

    def once(self):
        self.attempted += 1
        return None if self.attempted % 3 == 0 else (1.0, 10)


def test_traced_loop_skips_failed_pairs_and_goes_on(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "solver_ladder", dict)
    loop = _FlakyLoop()
    metrics, detail = run.run_traced(loop, time.perf_counter() + 0.2,
                                     tmp_path / "spans.csv.gz")
    pairs = loop.attempted // 2
    assert pairs >= 3
    assert 0 < len(detail["traced_cmd_s"]) < pairs
    assert metrics["trace.overhead_ratio"][0] == 0.0
