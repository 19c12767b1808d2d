"""Tests of the benchmark itself (not of modesub).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIME, dump_metrics, op_values, point_times, traced_metrics  # noqa: E402
from run import tail  # noqa: E402
from spans import Site, Span, Tracer, covered_length, self_times  # noqa: E402
from workloads import (KERNEL_DUMP, KERNEL_DUMP_L_MM, L_MM, REL_TOL, W_UM,  # noqa: E402
                       WORKLOADS, load_references, make_config, operating_points,
                       point_key)

ALL = {**WORKLOADS, KERNEL_DUMP.name: KERNEL_DUMP}
CHECKS = {name: w.check for name, w in ALL.items()}


def _span(id, name, start, end, parent=None, op=0, **attrs):
    return Span(id, name, op, parent, start, end, attrs)


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert covered_length([(1, 3), (2, 5), (6, 7), (4, 4)]) == 5
        assert covered_length([]) == 0

    def test_nested_spans(self):
        spans = [_span(0, "root", 0.0, 10.0),
                 _span(1, "a", 1.0, 3.0, parent=0),
                 _span(2, "b", 2.0, 5.0, parent=0),   # overlaps a (another thread)
                 _span(3, "c", 6.0, 7.0, parent=0),
                 _span(4, "a.child", 1.5, 2.0, parent=1)]
        selft = self_times(spans)
        assert selft == {0: 5.0, 1: 1.5, 2: 3.0, 3: 1.0, 4: 0.5}

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, "root", 0.0, 2.0), _span(1, "late", 1.5, 3.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(1.5)

    def test_budget_adds_up_to_op_time(self):
        spans = [_span(0, "cli.main", 0.0, 1.0),
                 _span(1, "kernel.build_kernel", 0.1, 0.6, parent=0, samples=100,
                       nbytes=1600),
                 _span(2, "modes.hermite_gauss_values", 0.2, 0.3, parent=1),
                 _span(3, "schmidt.decompose", 0.6, 0.9, parent=0, modes_kept=4),
                 _span(4, "schmidt.gram_matrix", 0.6, 0.8, parent=3, flop=8000)]
        metrics = traced_metrics(spans, {0: 1.25}, [1.0], {0: 0})
        values = op_values(spans, self_times(spans))
        assert values["kernel.build_s"] == pytest.approx(0.4)
        assert values["schmidt.decompose_self_s"] == pytest.approx(0.1)
        assert values["kernel.ns_per_sample"] == pytest.approx(0.5 / 100 * 1e9)
        assert metrics["trace.remainder_s"] == pytest.approx(0.25)
        assert metrics["trace.overhead_s"] == pytest.approx(0.25)
        total = (sum(metrics[m] for m in SELF_TIME) + metrics["trace.orchestration_self_s"]
                 + metrics["trace.remainder_s"])
        assert total == pytest.approx(metrics["trace.op_s"])
        assert metrics["trace.kernel_gram_share"] == pytest.approx(0.7 / 1.25)

    def test_dump_metrics(self):
        spans = [_span(0, "cli.main", 0.0, 2.0, op="dump-0"),
                 _span(1, "scan.write_kernel_csv", 0.0, 2.0, parent=0, op="dump-0",
                       bytes=3_000_000),
                 _span(2, "kernel.build_kernel", 0.0, 0.5, parent=1, op="dump-0"),
                 _span(3, "scan.write_kernel_csv", 5.0, 9.0, op=4)]  # not a dump
        metrics = dump_metrics(spans, {"dump-0": 2.5})
        assert metrics == pytest.approx({
            "scan.kernel_csv_s.n64": 1.5, "scan.kernel_csv_mb.n64": 3.0,
            "scan.kernel_csv_mb_per_s.n64": 2.0, "trace.kernel_csv_share.n64": 0.6})

    def test_scan_points_run_from_one_kernel_build_to_the_next(self):
        spans = [_span(0, "schmidt.schmidt_number_scan", 0.0, 3.0),
                 _span(1, "kernel.build_kernel", 0.5, 1.0, parent=0),
                 _span(2, "kernel.build_kernel", 1.5, 2.0, parent=0),
                 _span(3, "kernel.build_kernel", 9.0, 9.5)]  # not a scan point
        assert point_times(spans) == [1.0, 1.5]


class TestTracer:
    def test_patch_is_restored_and_missing_sites_reported(self):
        import json as target
        original = target.dumps
        tracer = Tracer()
        sites = [Site("json", "dumps", "json.dumps", lambda args, r: {"n": len(r)}),
                 Site("json", "no_such_function", "json.none")]
        with tracer.patched(sites) as missing:
            tracer.op = 7
            assert target.dumps([1]) == "[1]"
        assert target.dumps is original
        assert missing == ["json.no_such_function"]
        (span,) = tracer.spans
        assert (span.name, span.op, span.attrs) == ("json.dumps", 7, {"n": 3})


class TestTail:
    def test_too_few_ops(self):
        assert tail([1.0] * 19) is None

    @pytest.mark.parametrize("n, percentile, beyond", [
        (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (100, 90.0, 10),
        (110, 90.0, 11), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10),
        (10000, 99.9, 10)])
    def test_highest_percentile_with_ten_beyond(self, n, percentile, beyond):
        times = [float(i) for i in range(n)]
        random.Random(n).shuffle(times)
        t = tail(times)
        assert (t["percentile"], t["beyond"], t["ops"]) == (percentile, beyond, n)
        # nearest rank: exactly `beyond` ops are slower than the reported value
        assert sum(x > t["value"] for x in times) == beyond


class TestConfigGeneration:
    @pytest.mark.parametrize("name", list(ALL))
    def test_deterministic_across_processes(self, name):
        here = [make_config(name, seed) for seed in range(5)]
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
                "from workloads import make_config; "
                f"print(json.dumps([make_config({name!r}, s) for s in range(5)]))")
        other = subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                               capture_output=True, text=True,
                               env={"PYTHONHASHSEED": "123"}).stdout
        assert json.loads(other) == here
        assert len({json.dumps(c, sort_keys=True) for c in here}) > 1

    @pytest.mark.parametrize("name", list(ALL))
    def test_every_seed_has_references(self, name):
        refs = load_references()
        table = refs["kernel_csv"] if name == KERNEL_DUMP.name else refs["points"]
        for seed in range(200):
            points = operating_points(make_config(name, seed))
            assert len(points) == ALL[name].units_per_op
            for l_mm, w_um in points:
                assert point_key(l_mm, w_um) in table

    def test_lattices_cover_the_stated_ranges(self):
        assert (L_MM[0], L_MM[-1], W_UM[0], W_UM[-1]) == (1.0, 4.0, 50.0, 200.0)
        assert KERNEL_DUMP_L_MM[0] == 2.0
        scan = operating_points(make_config("scan-lw16", 3))
        assert len(set(scan)) == 16


def _write_subtract(out: Path, K, lambda1, purity):
    out.mkdir(exist_ok=True)
    (out / "condition_summary.json").write_text(json.dumps(
        {"K": K, "purity": purity, "lambda_sq": [lambda1, 0.1]}))


class TestAccuracyGate:
    refs = {"points": {"2.0,100": {"K": 1.5, "lambda1": 0.8, "purity": 0.7},
                       "2.0,110": {"K": 1.6, "lambda1": 0.75, "purity": 0.6}},
            "kernel_csv": {"2.0,100": {"rows": 4, "sum_re2": 30.0}}}
    config = {"crystal": {"length_mm": 2.0}, "signal": {"waist_um": 100.0}}

    def test_subtract_matches_then_perturbed_reference_fails(self, tmp_path):
        _write_subtract(tmp_path, 1.5, 0.8, 0.7)
        assert CHECKS["subtract"](tmp_path, self.config, self.refs) == [None]
        for field in ("K", "lambda1", "purity"):
            refs = json.loads(json.dumps(self.refs))
            refs["points"]["2.0,100"][field] *= 1 + 2 * REL_TOL
            (failure,) = CHECKS["subtract"](tmp_path, self.config, refs)
            assert failure.startswith(field)

    def test_within_tolerance_passes(self, tmp_path):
        _write_subtract(tmp_path, 1.5 * (1 + 0.5 * REL_TOL), 0.8, 0.7)
        assert CHECKS["subtract"](tmp_path, self.config, self.refs) == [None]

    def test_scan_fails_only_the_perturbed_point(self, tmp_path):
        config = {"scan": {"axes": [{"variable": "l_mm", "values": [2.0]},
                                    {"variable": "w_um", "values": [100.0, 110.0]}]}}
        (tmp_path / "scan_table.csv").write_text(
            "l_um,w_um,phi_deg,gate_order,K,lambda1_frac,status\n"
            "2000.0,100.0,1.0,0,1.5,0.8,ok\n"
            "2000.0,110.0,1.0,0,1.6,0.75,ok\n")
        assert CHECKS["scan-lw16"](tmp_path, config, self.refs) == [None, None]
        refs = json.loads(json.dumps(self.refs))
        refs["points"]["2.0,110"]["K"] = 1.7
        ok, bad = CHECKS["scan-lw16"](tmp_path, config, refs)
        assert ok is None and "K" in bad

    def test_scan_error_row_fails(self, tmp_path):
        config = {"scan": {"axes": [{"variable": "l_mm", "values": [2.0]},
                                    {"variable": "w_um", "values": [100.0]}]}}
        (tmp_path / "scan_table.csv").write_text(
            "l_um,w_um,phi_deg,gate_order,K,lambda1_frac,status\n"
            "2000.0,100.0,1.0,0,,,error: span\n")
        (failure,) = CHECKS["scan-lw16"](tmp_path, config, self.refs)
        assert "error: span" in failure

    def test_kernel_csv(self, tmp_path):
        rows = "".join(f"0.0,0.0,{k}.0,{v!r},0.0\n" for k, v in enumerate([1.0, 2.0, 3.0, 4.0]))
        (tmp_path / "kernel.csv").write_text("omega_c,q_c,omega_s,re,im\n" + rows)
        assert CHECKS["kernel-dump-64"](tmp_path, self.config, self.refs) == [None]
        refs = json.loads(json.dumps(self.refs))
        refs["kernel_csv"]["2.0,100"]["sum_re2"] = 30.01
        (failure,) = CHECKS["kernel-dump-64"](tmp_path, self.config, refs)
        assert failure.startswith("sum_re2")
        (tmp_path / "kernel.csv").write_text("omega_c,q_c,omega_s,re,im\n"
                                             + rows.replace(",0.0\n", ",0.5\n"))
        (failure,) = CHECKS["kernel-dump-64"](tmp_path, self.config, self.refs)
        assert "max |im|" in failure


def test_refuses_to_run_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "subtract",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "cannot import modesub" in proc.stderr
