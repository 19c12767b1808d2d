import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modesub import GridConfig, build_kernel, decompose, kernel_gram
from modesub.cli import main
from modesub.config import ConfigError, load_config, resolve, schema
from modesub.kernel import BOUNDARY_TOL, MAX_Q_DRIFT, MIN_AXIS_POINTS
from modesub.scan import (run_scan, write_condition_summary, write_gaussian_table,
                          write_kernel_csv, write_modes_csv, write_run_meta)

SMALL_GRID = {"n_omega_c": 48, "n_q": 48, "n_omega_s": 48}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli_blas_default_and_single(tmp_path, command, config):
    """Run a modesub command in a subprocess with the default BLAS threads
    and with OPENBLAS_NUM_THREADS=1; returns the two output directories."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for name, blas_threads in (("default", None), ("single", "1")):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "modesub.cli", command,
                        "--config", str(config), "--output-dir", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out)
    return outputs


class TestResolve:
    def test_minimal_config_fills_documented_defaults(self):
        config = resolve({"crystal": {"preset": "bbo-phi1-co"}})
        assert config.resolved["gate"]["tau_fs"] == 94.0
        assert config.resolved["grid"]["n_omega_c"] == 128
        assert config.resolved["comb"]["preset"] == "flat-40"
        assert config.comb().n_modes == 40
        # comb tau derived from 6 nm at 795 nm
        assert config.resolved["comb"]["tau_fs"] == pytest.approx(93.116, abs=1e-3)
        assert config.signal().spectral_tau_fs == pytest.approx(93.116, abs=1e-3)

    def test_negative_length_names_the_field(self):
        with pytest.raises(ConfigError, match="crystal.length_mm"):
            resolve({"crystal": {"preset": "bbo-phi1-co", "length_mm": -1}})

    def test_conflicting_gate_widths(self):
        with pytest.raises(ConfigError, match="gate.tau_fs / gate.fwhm_nm"):
            resolve({"gate": {"tau_fs": 94.0, "fwhm_nm": 6.0}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="gate.fluence"):
            resolve({"gate": {"fluence": 1.0}})
        with pytest.raises(ConfigError, match="turbo"):
            resolve({"turbo": True})

    def test_gate_fwhm_converts_at_the_crystal_carrier(self):
        config = resolve({"gate": {"fwhm_nm": 6.0}})
        # 800 nm carrier of the default preset
        assert config.resolved["gate"]["tau_fs"] == pytest.approx(94.29, abs=0.05)

    def test_inline_crystal(self):
        config = resolve({"crystal": {
            "name": "custom", "lambda_s_nm": 800.0, "kp_s_fs_um": 5.6139,
            "kp_c_fs_um": 5.8107, "rho_deg": 3.9, "phi_deg": -1.0,
            "theta_pm_deg": 29.4, "length_mm": 3.0}})
        preset = config.preset()
        assert preset.phi == pytest.approx(math.radians(-1.0))
        assert preset.length_um == 3000.0

    @pytest.mark.parametrize("key", ["n_s", "n_g", "n_c"])
    def test_inline_refractive_index_must_be_positive(self, key):
        crystal = {"name": "custom", "lambda_s_nm": 800.0, "kp_s_fs_um": 5.6139,
                   "kp_c_fs_um": 5.8107, "rho_deg": 3.9, "phi_deg": -1.0}
        with pytest.raises(ConfigError, match=rf"crystal\.{key}"):
            resolve({"crystal": {**crystal, key: 0}})
        # a given index reaches the crystal; an omitted one keeps its default
        preset = resolve({"crystal": {**crystal, key: 2.5}}).preset()
        assert getattr(preset, key) == 2.5
        assert {getattr(preset, k) for k in ("n_s", "n_g", "n_c") if k != key} == {1.66}

    @pytest.mark.parametrize("key", ["n_omega_c", "n_q", "n_omega_s"])
    def test_too_small_grid_names_the_field(self, key):
        with pytest.raises(ConfigError, match=rf"grid\.{key}"):
            resolve({"grid": {key: MIN_AXIS_POINTS - 1}})
        grid = resolve({"grid": {key: MIN_AXIS_POINTS}}).grid()
        assert getattr(grid, key) == MIN_AXIS_POINTS

    def test_inline_crystal_missing_field(self):
        with pytest.raises(ConfigError, match="crystal.kp_c_fs_um"):
            resolve({"crystal": {"name": "x", "lambda_s_nm": 800.0,
                                 "kp_s_fs_um": 5.6, "rho_deg": 3.9,
                                 "phi_deg": 1.0}})

    @pytest.mark.parametrize("key,value", [
        ("n_s", 1.9), ("n_g", 1.7), ("n_c", 1.6), ("theta_pm_deg", 30.0),
        ("kp_c_collinear_fs_um", 5.8)])
    def test_inline_crystal_key_beside_preset_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"crystal\.{key}"):
            resolve({"crystal": {"preset": "bbo-phi1-co", key: value}})

    def test_inline_crystal_beside_preset_rejected(self):
        with pytest.raises(ConfigError, match=r"crystal\.name"):
            resolve({"crystal": {
                "preset": "bbo-phi1-co", "name": "custom", "lambda_s_nm": 800.0,
                "kp_s_fs_um": 5.6139, "kp_c_fs_um": 5.8107, "rho_deg": 3.9,
                "phi_deg": -1.0}})

    def test_preset_run_meta_round_trips(self, tmp_path):
        config = resolve({"crystal": {"preset": "bbo-phi5-counter"}})
        meta = write_run_meta(tmp_path, config, 0.0)
        assert json.loads(meta.read_text())["config"]["crystal"]["n_s"] is None
        assert load_config(meta).resolved == config.resolved

    def test_scan_axis_validation(self):
        with pytest.raises(ConfigError, match="scan.axes"):
            resolve({"scan": {"axes": [{"variable": "l_mm", "min": 1, "max": 2,
                                        "count": 2},
                                       {"variable": "w_um", "min": 1, "max": 2,
                                        "count": 2},
                                       {"variable": "phi_deg", "min": 1, "max": 2,
                                        "count": 2},
                                       {"variable": "gate_order", "min": 0,
                                        "max": 2, "count": 3}]}})
        with pytest.raises(ConfigError, match="min must be < max"):
            resolve({"scan": {"axes": [{"variable": "l_mm", "min": 5, "max": 2,
                                        "count": 3}]}})
        with pytest.raises(ConfigError, match="variable"):
            resolve({"scan": {"axes": [{"variable": "voltage", "min": 0,
                                        "max": 1, "count": 2}]}})

    @pytest.mark.parametrize("axis,field", [
        ({"variable": "gate_order", "values": [0.5, 1.7]}, "gate_order"),
        ({"variable": "gate_order", "values": [-1]}, "gate_order"),
        ({"variable": "gate_order", "min": 0, "max": 1, "count": 3}, "gate_order"),
        ({"variable": "w_um", "values": [100.0, -5.0]}, "w_um"),
        ({"variable": "l_mm", "values": [0.0]}, "l_mm"),
        ({"variable": "l_mm", "min": -1.0, "max": 2.0, "count": 2}, "l_mm"),
        ({"variable": "phi_deg", "values": [1.0, -19.5]}, "phi_deg"),
    ])
    def test_scan_axis_values_follow_base_field_rules(self, axis, field):
        with pytest.raises(ConfigError, match=rf"scan\.axes\[0\].*{field}"):
            resolve({"scan": {"axes": [axis]}})

    def test_scan_points_row_major(self):
        config = resolve({"scan": {"axes": [
            {"variable": "l_mm", "values": [1.0, 2.0]},
            {"variable": "gate_order", "values": [0, 1]}]}})
        points = config.scan_points()
        assert [(p.length_um, p.gate_order) for p in points] == [
            (1000.0, 0), (1000.0, 1), (2000.0, 0), (2000.0, 1)]

    def test_physics_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            resolve({"crystal": {"preset": "bbo-phi1-co", "d_eff_pm_v": -2.0}})

    def test_n_q_derived_unless_given(self):
        assert resolve({}).resolved["grid"]["n_q"] is None
        assert resolve({}).grid().n_q is None
        assert schema()["grid"]["n_q"]["default"] is None
        assert resolve({"grid": {"n_q": 64}}).grid().n_q == 64
        with pytest.raises(ConfigError, match="grid.n_q"):
            resolve({"grid": {"n_q": 64.5}})

    def test_schema_covers_every_key(self):
        dump = schema()
        assert dump["gate"]["tau_fs"]["default"] == 94.0
        assert set(dump["scan"]["axes"]["variables"]) == {
            "l_mm", "w_um", "phi_deg", "gate_order"}


class TestRunScan:
    def scan_config(self, tmp_path, out_name="out"):
        return resolve({
            "grid": SMALL_GRID,
            "scan": {"axes": [{"variable": "l_mm", "min": 1.5, "max": 3.0,
                               "count": 3, "spacing": "log"}]},
            "output_dir": str(tmp_path / out_name)})

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        c1 = self.scan_config(tmp_path, "a")
        run_scan(c1)
        body1 = (tmp_path / "a" / "scan_table.csv").read_bytes()
        c2 = self.scan_config(tmp_path, "b")
        run_scan(c2)
        body2 = (tmp_path / "b" / "scan_table.csv").read_bytes()
        assert body1 == body2

    def test_identical_under_single_threaded_blas(self, tmp_path):
        config = write_config(tmp_path, {
            "grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
            "scan": {"axes": [{"variable": "l_mm", "values": [1.5, 2.0, 3.0]},
                              {"variable": "w_um", "values": [80.0, 140.0]}]}})
        tables = [out.joinpath("scan_table.csv").read_bytes()
                  for out in run_cli_blas_default_and_single(tmp_path, "scan", config)]
        assert tables[0] == tables[1]
        assert tables[0].count(b",ok\n") == 6

    def test_header_and_roundtrip_floats(self, tmp_path):
        config = self.scan_config(tmp_path)
        run_scan(config)
        lines = (tmp_path / "out" / "scan_table.csv").read_text().splitlines()
        assert lines[0] == "l_um,w_um,phi_deg,gate_order,K,lambda1_frac,status"
        cells = lines[1].split(",")
        assert float(cells[0]) == 1500.0
        assert cells[-1] == "ok"
        assert repr(float(cells[4])) == cells[4]  # shortest round-trip format

    def test_run_meta_reproduces_the_run(self, tmp_path):
        config = self.scan_config(tmp_path)
        paths = run_scan(config)
        meta = json.loads(paths["run_meta"].read_text())
        assert meta["tool"] == "modesub"
        replayed = load_config(paths["run_meta"])
        assert replayed.resolved == config.resolved
        out2 = tmp_path / "replay"
        run_scan(replayed, out2)
        assert ((tmp_path / "out" / "scan_table.csv").read_bytes()
                == (out2 / "scan_table.csv").read_bytes())

    def test_single_point_matches_direct_call(self, tmp_path, bbo1co, gate94,
                                              signal_opt):
        config = resolve({"grid": SMALL_GRID, "output_dir": str(tmp_path / "single"),
                          "signal": {"waist_um": 107.7,
                                     "tau_fs": signal_opt.spectral_tau_fs},
                          "gate": {"tau_fs": 94.0}})
        run_scan(config)
        lines = (tmp_path / "single" / "scan_table.csv").read_text().splitlines()
        assert len(lines) == 2
        direct = decompose(kernel_gram(bbo1co.with_length(2000.0), gate94,
                                       signal_opt, GridConfig(**SMALL_GRID)))
        assert float(lines[1].split(",")[4]) == direct.schmidt_number

    def test_all_points_failing_raises(self, tmp_path):
        config = resolve({
            "grid": SMALL_GRID,
            # spans far too small: every point fails the span guard
            "crystal": {"preset": "bbo-phi1-co", "length_mm": 40.0},
            "output_dir": str(tmp_path / "fail")})
        with pytest.raises(RuntimeError):
            run_scan(config)
        lines = (tmp_path / "fail" / "scan_table.csv").read_text().splitlines()
        assert "error" in lines[1]


class TestArtifacts:
    def test_kernel_dump_layout(self, tmp_path):
        # thin crystal keeps the phase-matching lobe resolvable on a tiny grid
        config = resolve({"grid": {"n_omega_c": 12, "n_q": 10, "n_omega_s": 8},
                          "crystal": {"preset": "bbo-phi1-co", "length_mm": 0.2},
                          "output_dir": str(tmp_path)})
        path = write_kernel_csv(config)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega_c,q_c,omega_s,re,im"
        assert len(lines) == 1 + 12 * 10 * 8
        # row-major: omega_s varies fastest
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[0] == second[0] and first[1] == second[1]
        assert float(first[2]) < float(second[2])

    def test_kernel_dump_reads_back_exactly(self, tmp_path):
        config = resolve({"grid": {"n_omega_c": 12, "n_q": 10, "n_omega_s": 9},
                          "crystal": {"preset": "bbo-phi1-co", "length_mm": 0.2},
                          "output_dir": str(tmp_path)})
        data = np.loadtxt(write_kernel_csv(config), delimiter=",", skiprows=1)
        kernel = build_kernel(config.preset(), config.gate(), config.signal(),
                              config.grid())
        axes = np.meshgrid(kernel.omega_c.points, kernel.q_c.points,
                           kernel.omega_s.points, indexing="ij")
        for column, expected in enumerate([*axes, kernel.values]):
            assert np.array_equal(data[:, column].reshape(12, 10, 9), expected)
        assert np.all(data[:, 4] == 0.0)

    def test_modes_dump_layout(self, tmp_path):
        config = resolve({"grid": SMALL_GRID, "output_dir": str(tmp_path)})
        path = write_modes_csv(config)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("omega_s,mode_1")
        assert lines[1].startswith("lambda_sq,")
        weights = [float(x) for x in lines[1].split(",")[1:]]
        assert all(b <= a for a, b in zip(weights, weights[1:]))
        assert len(lines) == 2 + 48

    def test_gaussian_table(self, tmp_path):
        config = resolve({"output_dir": str(tmp_path)})
        path = write_gaussian_table(config)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("l_um,w_um,phi_deg,phi0_deg")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["K_min"]) == pytest.approx(1.06778, abs=1e-4)
        assert float(row["rate_hz"]) == pytest.approx(332.1, rel=1e-3)

    def test_default_subtract_identical_under_single_threaded_blas(self, tmp_path):
        # default grid, derived q_c axis: the Gram blocks' syrk must not
        # depend on how many threads OpenBLAS runs
        outputs = run_cli_blas_default_and_single(tmp_path, "subtract",
                                                  write_config(tmp_path, {}))
        summaries = [out.joinpath("condition_summary.json").read_bytes()
                     for out in outputs]
        assert summaries[0] == summaries[1]

    def test_condition_summary(self, tmp_path):
        config = resolve({"grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
                          "comb": {"n_modes": 12},
                          "signal": {"waist_um": 107.7},
                          "output_dir": str(tmp_path)})
        paths = write_condition_summary(config)
        summary = json.loads(paths["condition_summary"].read_text())
        assert set(summary) == {"K", "purity", "probability_per_pulse",
                                "rate_hz", "lambda_sq", "grid"}
        grid = summary["grid"]
        assert list(grid) == ["n_omega_c", "n_q", "n_omega_s", "q_drift_ratio",
                              "boundary_fractions"]
        assert grid["n_omega_c"] == grid["n_q"] == grid["n_omega_s"] == 64
        assert 0.0 < grid["q_drift_ratio"] <= MAX_Q_DRIFT
        assert len(grid["boundary_fractions"]) == 3
        assert 0.0 < max(grid["boundary_fractions"]) <= BOUNDARY_TOL
        assert 0.0 < summary["purity"] <= 1.0
        assert summary["rate_hz"] > 0
        overlap_lines = paths["overlap_matrix"].read_text().splitlines()
        assert overlap_lines[0].startswith("subtraction_mode,comb_1")
        values = [float(x) for x in overlap_lines[1].split(",")[1:]]
        assert max(values) <= 1.0 + 1e-8


class TestCli:
    def test_preset_list(self, capsys):
        assert main(["preset", "list"]) == 0
        out = capsys.readouterr().out
        assert "bbo-phi1-co" in out and "bbo-phi5-counter" in out

    def test_config_schema(self, capsys):
        assert main(["config", "--schema"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["gate"]["tau_fs"]["default"] == 94.0

    def test_config_print_resolves_defaults(self, capsys, tmp_path):
        path = write_config(tmp_path, {"crystal": {"preset": "bbo-phi5-co"}})
        assert main(["config", "--config", str(path)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["crystal"]["preset"] == "bbo-phi5-co"

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"crystal": {"length_mm": -2}})
        assert main(["scan", "--config", str(path)]) == 1
        assert "crystal.length_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,field", [
        ({"gate": {"order": math.inf}}, "gate.order"),
        ({"crystal": {"length_mm": math.nan}}, "crystal.length_mm"),
        ({"comb": {"squeezing_db": "4.2"}}, "comb.squeezing_db"),
        ({"crystal": {"name": "x", "lambda_s_nm": 800.0, "kp_s_fs_um": 5.6,
                      "kp_c_fs_um": "5.8", "rho_deg": 3.9, "phi_deg": 1.0}},
         "crystal.kp_c_fs_um"),
        ({"scan": {"axes": [{"variable": "l_mm", "values": [2.0, "abc"]}]}},
         "scan.axes[0].values[1]"),
        ({"scan": {"axes": [{"variable": "w_um", "values": ["2"]}]}},
         "scan.axes[0].values[0]"),
        ({"scan": {"axes": [{"variable": "gate_order", "values": [0, math.inf]}]}},
         "scan.axes[0].values[1]"),
        ({"scan": {"axes": [{"variable": "gate_order", "min": 0, "max": math.inf,
                             "count": 2}]}}, "scan.axes[0].max"),
    ])
    def test_non_finite_or_non_numeric_value_names_the_field(self, tmp_path, capsys,
                                                             payload, field):
        path = write_config(tmp_path, payload)
        assert main(["config", "--config", str(path)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err

    def test_parse_error_named_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"crystal": }')
        assert main(["scan", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "broken.json:1" in err

    def test_scan_and_artifacts(self, tmp_path, capsys):
        payload = {"grid": SMALL_GRID,
                   "scan": {"axes": [{"variable": "gate_order",
                                      "values": [0, 1]}]},
                   "output_dir": str(tmp_path / "cli_out")}
        path = write_config(tmp_path, payload)
        assert main(["scan", "--config", str(path)]) == 0
        table = (tmp_path / "cli_out" / "scan_table.csv").read_text().splitlines()
        assert len(table) == 3

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        payload = {"grid": SMALL_GRID,
                   "crystal": {"preset": "bbo-phi1-co", "length_mm": 40.0},
                   "output_dir": str(tmp_path / "nf")}
        path = write_config(tmp_path, payload)
        assert main(["scan", "--config", str(path)]) == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        payload = {"grid": SMALL_GRID, "output_dir": str(blocker / "sub")}
        path = write_config(tmp_path, payload)
        assert main(["scan", "--config", str(path)]) == 3

    def test_gaussian_table_stdout(self, capsys):
        assert main(["gaussian", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["K_min"] == pytest.approx(1.06778, abs=1e-4)

    def test_subtract_command(self, tmp_path, capsys):
        payload = {"grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
                   "comb": {"n_modes": 10},
                   "output_dir": str(tmp_path / "sub_out")}
        path = write_config(tmp_path, payload)
        assert main(["subtract", "--config", str(path)]) == 0
        assert (tmp_path / "sub_out" / "condition_summary.json").exists()

    def test_subtract_where_the_beam_drifts(self, tmp_path, capsys):
        # phi = 5 deg co, w_s = 200 um: the q_c span must hold the beam's
        # drift over the Omega box, or the boundary check fails
        payload = {"crystal": {"preset": "bbo-phi5-co"}, "signal": {"waist_um": 200},
                   "output_dir": str(tmp_path / "out")}
        path = write_config(tmp_path, payload)
        assert main(["subtract", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "condition_summary.json").read_text())
        assert summary["grid"]["q_drift_ratio"] <= MAX_Q_DRIFT

    def test_solve_commands_skip_the_dense_route(self, tmp_path, monkeypatch):
        # subtract, scan and schmidt run on kernel_gram's streamed Gram alone
        def dense_route(*args, **kwargs):
            raise AssertionError("the dense kernel route ran")

        monkeypatch.setattr("modesub.scan.build_kernel", dense_route)
        monkeypatch.setattr("modesub.schmidt.gram_matrix", dense_route)
        payload = {"grid": SMALL_GRID, "comb": {"n_modes": 10},
                   "scan": {"axes": [{"variable": "gate_order", "values": [0, 1]}]}}
        path = write_config(tmp_path, payload)
        for command in ("subtract", "scan", "schmidt"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--output-dir", str(out)]) == 0
        assert (tmp_path / "subtract" / "condition_summary.json").exists()
        assert len((tmp_path / "scan" / "scan_table.csv").read_text().splitlines()) == 3
        assert (tmp_path / "schmidt" / "modes.csv").exists()

    def test_kernel_and_schmidt_commands(self, tmp_path, capsys):
        payload = {"grid": {"n_omega_c": 16, "n_q": 12, "n_omega_s": 10},
                   "crystal": {"preset": "bbo-phi1-co", "length_mm": 0.2},
                   "output_dir": str(tmp_path / "k_out")}
        path = write_config(tmp_path, payload)
        assert main(["kernel", "--config", str(path)]) == 0
        assert (tmp_path / "k_out" / "kernel.csv").exists()
        payload["grid"] = SMALL_GRID
        path2 = write_config(tmp_path, payload, "c2.json")
        assert main(["schmidt", "--config", str(path2)]) == 0
        assert (tmp_path / "k_out" / "modes.csv").exists()
