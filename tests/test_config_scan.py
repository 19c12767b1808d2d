import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modesub import (GridConfig, _blas, build_kernel, comb_subtraction_experiment,
                     decompose, kernel_gram)
from modesub.analytic import single_mode_rate
from modesub.cli import build_parser, main
from modesub.config import (_AXIS_SCHEMA, _SCHEMA, ConfigError, load_config, resolve,
                            schema)
from modesub.dispersion import convert_bandwidth
from modesub.kernel import MAX_Q_DRIFT, MIN_AXIS_POINTS, MIN_MASS_CAPTURED, derive_grids
from modesub.modes import uniform_grid
from modesub.scan import (N_LEADING_MODES, ScanFailed, _csv, run_scan,
                          write_condition_summary, write_gaussian_table, write_kernel_csv,
                          write_modes_csv, write_run_meta)

SMALL_GRID = {"n_omega_c": 48, "n_q": 48, "n_omega_s": 48}
INLINE_CRYSTAL = {"name": "custom", "lambda_s_nm": 800.0, "kp_s_fs_um": 5.6139,
                  "kp_c_fs_um": 5.8107, "rho_deg": 3.9, "phi_deg": -1.0}
# every key of the schema, as an error names it
SCHEMA_FIELDS = [f"{section}.{key}" if isinstance(body, dict) else section
                 for section, body in _SCHEMA.items()
                 for key in (body if isinstance(body, dict) else [None])]


def with_value(raw, field, value):
    """A copy of the raw config ``raw`` with ``field`` (section.key) set."""
    section, _, key = field.partition(".")
    if not key:
        return {**raw, section: value}
    return {**raw, section: {**raw.get(section, {}), key: value}}


def live_configs(photons_a, photons_b):
    """For each schema key, a base config and a copy that gives the key one
    valid non-default value in a context where it applies."""
    inline = {"crystal": INLINE_CRYSTAL}
    csv_comb = {"comb": {"preset": "csv", "photons_csv": str(photons_a)}}
    values = {  # field: (value, base config)
        "crystal.preset": ("bbo-phi5-counter", {}),
        "crystal.length_mm": (3.0, {}),
        "crystal.d_eff_pm_v": (2.5, {}),
        "crystal.name": ("other", inline),
        "crystal.lambda_s_nm": (810.0, inline),
        "crystal.kp_s_fs_um": (5.6, inline),
        "crystal.kp_c_fs_um": (5.82, inline),
        "crystal.kp_c_collinear_fs_um": (5.9, inline),
        "crystal.rho_deg": (4.0, inline),
        "crystal.phi_deg": (2.0, inline),
        "crystal.theta_pm_deg": (30.0, inline),
        "crystal.n_s": (1.7, inline),
        "crystal.n_g": (1.7, inline),
        "crystal.n_c": (1.7, inline),
        "gate.order": (1, {}),
        "gate.tau_fs": (80.0, {}),
        "gate.fwhm_nm": (5.0, {}),
        "gate.waist_mm": (2.0, {}),
        "gate.energy_nj": (5.0, {}),
        "gate.rep_rate_mhz": (76.0, {}),
        "signal.waist_um": (90.0, {}),
        "comb.n_modes": (12, {}),
        "comb.squeezing_db": (6.0, {}),
        "comb.finesse": (50.0, {}),
        "comb.center_nm": (810.0, {}),
        "comb.fwhm_nm": (5.0, {}),
        "comb.tau_fs": (80.0, {}),
        "comb.photons_csv": (str(photons_b), csv_comb),
        "grid.n_omega_c": (64, {}),
        "grid.n_q": (64, {}),
        "grid.n_omega_s": (64, {}),
        "grid.span_scale": (1.5, {}),
        "scan.axes": ([{"variable": "l_mm", "values": [1.0, 3.0]}], {}),
        "output_dir": ("elsewhere", {}),
    }
    pairs = {field: (base, with_value(base, field, value))
             for field, (value, base) in values.items()}
    pairs["comb.preset"] = ({}, csv_comb)  # a csv comb needs its file too
    return pairs


def what_the_run_builds(config):
    """Everything a run builds from its config, in comparable form."""
    comb = config.comb()
    return (config.preset(), config.gate(), config.signal(),
            (comb.tau_s_fs, comb.photons_comb.tolist(), comb.finesse),
            config.grid(), config.scan_points(), config.output_dir)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# the CLI with the one-thread helper switched off, so its solve runs at the
# environment's BLAS thread count
CLI_WITHOUT_ONE_BLAS_THREAD = (
    "import sys; from modesub import _blas; _blas._openblas = lambda: None; "
    "from modesub.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli_blas_default_and_single(tmp_path, command, config):
    """Run a modesub command in two subprocesses: at the environment's BLAS
    threads with the one-thread helper off, so the solve runs at that count
    too, and at OPENBLAS_NUM_THREADS=1; returns the two output directories."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for name, launch, blas_threads in (("default", ["-c", CLI_WITHOUT_ONE_BLAS_THREAD], None),
                                       ("single", ["-m", "modesub.cli"], "1")):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / name
        subprocess.run([sys.executable, *launch, command,
                        "--config", str(config), "--output-dir", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out)
    return outputs


class TestResolve:
    def test_minimal_config_fills_documented_defaults(self):
        config = resolve({"crystal": {"preset": "bbo-phi1-co"}})
        assert config.resolved["gate"]["tau_fs"] == 94.0
        assert config.resolved["grid"]["n_omega_c"] is None
        assert config.resolved["grid"]["n_omega_s"] is None
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

    def test_comb_tau_sets_the_signal_time_scale(self):
        config = resolve({"comb": {"tau_fs": 40.0}})
        assert config.signal().spectral_tau_fs == 40.0
        # the comb's 5/tau is the widest of the derived Omega half-spans; the
        # Gauss-Legendre weights sum to the box width
        for axis in derive_grids(config.preset(), config.gate(), config.signal(),
                                 config.grid())[::2]:
            assert axis.weights.sum() / 2.0 == pytest.approx(5.0 / 40.0, rel=1e-12)

    def test_comb_fwhm_sets_the_signal_time_scale(self):
        # converted at the comb's carrier, not the crystal's 800 nm
        config = resolve({"comb": {"fwhm_nm": 6.0, "center_nm": 810.0}})
        assert config.resolved["signal"] == {"waist_um": 107.7}
        assert config.signal().spectral_tau_fs == config.resolved["comb"]["tau_fs"]
        assert config.signal().spectral_tau_fs == convert_bandwidth(6.0, 0.81)

    def test_comb_mode_count_sizes_the_omega_nodes(self, tmp_path):
        # the subtract solve adds the comb's top mode to the Omega_s node
        # count; a csv comb's count is its row count.  The signal beam, and
        # so the scan and the kernel dump, carries no comb count
        photons = tmp_path / "photons.csv"
        photons.write_text("".join(f"{n},0.1\n" for n in range(10)))
        configs = [resolve({}), resolve({"comb": {"n_modes": 60}}),
                   resolve({"comb": {"preset": "csv", "photons_csv": str(photons)}})]
        assert all(c.signal().comb_modes is None for c in configs)
        sizes = [comb_subtraction_experiment(c.preset(), c.gate(), c.signal(), c.comb(),
                                             (0,), c.grid())[0].grid["n_omega_s"]
                 for c in configs]
        assert sizes == [derive_grids(c.preset(), c.gate(),
                                      replace(c.signal(), comb_modes=n), c.grid())[2].size
                         for c, n in zip(configs, (40, 60, 10))]
        assert sizes[2] < sizes[0] < sizes[1]

    @pytest.mark.parametrize("key,value", [("tau_fs", 40.0), ("fwhm_nm", 6.0)])
    def test_signal_width_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^signal\.{key}: unknown key"):
            resolve({"signal": {key: value}})

    def test_run_meta_with_a_signal_width_is_rejected(self, tmp_path):
        # a run_meta.json written while the signal carried its own width
        config = resolve({})
        meta = json.loads(write_run_meta(tmp_path, config, 0.0).read_text())
        meta["config"]["signal"].update(tau_fs=config.signal().spectral_tau_fs,
                                        fwhm_nm=None)
        path = write_config(tmp_path, meta, "run_meta.json")
        with pytest.raises(ConfigError, match=r"^signal\.(fwhm_nm|tau_fs): unknown key"):
            load_config(path)

    @pytest.mark.parametrize("comb,field", [
        ({"preset": "csv", "photons_csv": "x.csv", "n_modes": 7}, "comb.n_modes"),
        ({"preset": "csv", "photons_csv": "x.csv", "squeezing_db": 9.0},
         "comb.squeezing_db"),
        ({"photons_csv": "nowhere.csv"}, "comb.photons_csv"),
        ({"n_modes": None}, "comb.n_modes"),
    ])
    def test_comb_key_the_preset_ignores_rejected(self, comb, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
            resolve({"comb": comb})

    @pytest.mark.parametrize("field", SCHEMA_FIELDS)
    def test_every_schema_key_is_live(self, tmp_path, field):
        photons_a, photons_b = tmp_path / "a.csv", tmp_path / "b.csv"
        photons_a.write_text("0,80.0\n1,3.0\n")
        photons_b.write_text("0,60.0\n1,3.0\n2,1.0\n")
        pairs = live_configs(photons_a, photons_b)
        assert field in pairs, f"{field}: give the new key a value in live_configs"
        base, changed = pairs[field]
        assert what_the_run_builds(resolve(changed)) != what_the_run_builds(resolve(base))

    def test_preset_run_meta_round_trips(self, tmp_path):
        config = resolve({"crystal": {"preset": "bbo-phi5-counter"}})
        meta = write_run_meta(tmp_path, config, 0.0)
        assert json.loads(meta.read_text())["config"]["crystal"]["n_s"] is None
        assert load_config(meta).resolved == config.resolved

    def test_inline_run_meta_round_trips(self, tmp_path):
        config = resolve({"crystal": {**INLINE_CRYSTAL, "n_g": 1.7},
                          "scan": {"axes": [{"variable": "phi_deg", "min": -2.0,
                                             "max": 2.0, "count": 3}]}})
        loaded = load_config(write_run_meta(tmp_path, config, 0.0))
        assert loaded.resolved == config.resolved
        assert loaded.preset() == config.preset()
        assert loaded.preset().n_g == 1.7
        assert loaded.scan_points() == config.scan_points()

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

    @pytest.mark.parametrize("key,value", [
        ("min", 5), ("max", 9), ("count", 4), ("spacing", "log")])
    def test_axis_values_exclude_a_range(self, key, value):
        # a range beside values was dropped from the resolved config
        with pytest.raises(ConfigError, match=rf"scan\.axes\[0\]: .*values and {key}"):
            resolve({"scan": {"axes": [{"variable": "l_mm", "values": [1.5],
                                        key: value}]}})

    def test_variable_swept_twice_rejected(self):
        # the later axis overwrote the earlier one's value on every point
        with pytest.raises(ConfigError,
                           match=r"scan\.axes\[2\]\.variable: .*scan\.axes\[0\]"):
            resolve({"scan": {"axes": [{"variable": "l_mm", "values": [1.5]},
                                       {"variable": "w_um", "values": [80.0]},
                                       {"variable": "l_mm", "values": [2.5, 3.0]}]}})

    def test_axis_unknown_key_named_in_the_order_given(self):
        # as in a section, the first unknown key given, not the first by name
        with pytest.raises(ConfigError, match=r"^scan\.axes\[0\]\.zeta: unknown key$"):
            resolve({"scan": {"axes": [{"variable": "l_mm", "zeta": 1, "alpha": 2,
                                        "values": [1.5]}]}})

    @pytest.mark.parametrize("omitted,default", [("count", 1), ("spacing", "linear")])
    def test_omitted_axis_key_takes_the_schema_default(self, capsys, omitted, default):
        assert main(["config", "--schema"]) == 0
        keys = json.loads(capsys.readouterr().out)["scan"]["axes"]["keys"]
        assert keys[omitted]["default"] == default
        axis = {"variable": "l_mm", "min": 1.5, "max": 3.0, "count": 3, "spacing": "log"}
        del axis[omitted]
        assert (resolve({"scan": {"axes": [axis]}}).resolved
                == resolve({"scan": {"axes": [{**axis, omitted: default}]}}).resolved)

    @pytest.mark.parametrize("spacing,sample", [("linear", np.linspace),
                                                ("log", np.geomspace)])
    def test_ranged_axis_resolves_to_its_values(self, tmp_path, capsys, spacing, sample):
        axis = {"variable": "l_mm", "min": 1.5, "max": 3.0, "count": 4,
                "spacing": spacing}
        resolved_axis = {"variable": "l_mm",
                         "values": [float(v) for v in sample(1.5, 3.0, 4)]}
        path = write_config(tmp_path, {"scan": {"axes": [axis]}})
        assert main(["config", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["scan"]["axes"] == [resolved_axis]
        # an axis in the older resolved form, all four ranged keys, loads
        # from a run_meta.json to the same points
        config = load_config(path)
        resolved = {**config.resolved, "scan": {"axes": [axis]}}
        meta = write_config(tmp_path, {"tool": "modesub", "config": resolved},
                            "run_meta.json")
        assert load_config(meta).resolved == config.resolved
        assert load_config(meta).scan_points() == config.scan_points()
        assert [p.preset.length_um for p in config.scan_points()] == [
            v * 1e3 for v in resolved_axis["values"]]

    def test_scan_points_row_major(self):
        config = resolve({"scan": {"axes": [
            {"variable": "l_mm", "values": [1.0, 2.0]},
            {"variable": "gate_order", "values": [0, 1]}]}})
        points = config.scan_points()
        assert [(p.preset.length_um, p.gate.order) for p in points] == [
            (1000.0, 0), (1000.0, 1), (2000.0, 0), (2000.0, 1)]

    def test_scan_points_differ_from_base_only_where_axes_set(self):
        # an inline crystal keeps kp, rho and l at every phi; only phi moves
        crystal = {"name": "custom", "lambda_s_nm": 800.0, "kp_s_fs_um": 5.6139,
                   "kp_c_fs_um": 5.8107, "rho_deg": 3.9, "phi_deg": -1.0}
        config = resolve({"crystal": crystal, "scan": {"axes": [
            {"variable": "phi_deg", "values": [-1.3, 2.0]},
            {"variable": "gate_order", "min": 0, "max": 2, "count": 3}]}})
        base_preset, base_gate, base_signal = (config.preset(), config.gate(),
                                               config.signal())
        points = config.scan_points()
        assert len(points) == 6
        for point, (phi_deg, order) in zip(points, [(p, o) for p in (-1.3, 2.0)
                                                    for o in (0, 1, 2)]):
            assert point.preset == replace(base_preset, phi=math.radians(phi_deg))
            assert point.gate == replace(base_gate, order=order)
            assert point.signal == base_signal
            assert type(point.gate.order) is int

    @pytest.mark.parametrize("name", [5, ["x"], "nope", "bbo-phi3-co"])
    def test_bad_preset_names_the_field(self, name, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"crystal\.preset"):
            resolve({"crystal": {"preset": name}})
        path = write_config(tmp_path, {"crystal": {"preset": name}})
        assert main(["config", "--config", str(path)]) == 1
        assert "configuration error: crystal.preset:" in capsys.readouterr().err

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
        axis_keys = dump["scan"]["axes"]["keys"]
        assert list(axis_keys) == list(_AXIS_SCHEMA)
        for key, (default, _, doc) in _AXIS_SCHEMA.items():
            assert axis_keys[key] == {"default": default, "doc": doc}, key
        assert "'log'" in axis_keys["spacing"]["doc"]


class TestRunScan:
    SCAN = {"grid": SMALL_GRID,
            "scan": {"axes": [{"variable": "l_mm", "min": 1.5, "max": 3.0,
                               "count": 3, "spacing": "log"}]}}

    def scan_into(self, tmp_path, name):
        """Run the ``scan`` command into ``tmp_path / name``; that directory."""
        out = tmp_path / name
        path = write_config(tmp_path, self.SCAN)
        assert main(["scan", "--config", str(path), "--output-dir", str(out)]) == 0
        return out

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        config = resolve(self.SCAN)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            assert run_scan(config, tmp_path / name) == [tmp_path / name / "scan_table.csv"]
        body1 = (tmp_path / "a" / "scan_table.csv").read_bytes()
        body2 = (tmp_path / "b" / "scan_table.csv").read_bytes()
        assert body1 == body2

    def test_identical_under_single_threaded_blas(self, tmp_path):
        config = write_config(tmp_path, {
            "grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
            "scan": {"axes": [{"variable": "l_mm", "values": [1.5, 2.0, 3.0]},
                              {"variable": "w_um", "values": [80.0, 140.0]}]}})
        outputs = run_cli_blas_default_and_single(tmp_path, "scan", config)
        tables = [out.joinpath("scan_table.csv").read_bytes() for out in outputs]
        assert tables[0] == tables[1]
        assert tables[0].count(b",ok\n") == 6
        # the default side's solve ran without the one-thread helper, and
        # each side recorded its own OPENBLAS_NUM_THREADS
        envs = [json.loads(out.joinpath("run_meta.json").read_text())["environment"]
                for out in outputs]
        assert [env["solve_single_thread"] for env in envs] == [
            False, _blas._openblas() is not None]
        assert [env["OPENBLAS_NUM_THREADS"] for env in envs] == [None, "1"]

    def test_header_and_roundtrip_floats(self, tmp_path):
        run_scan(resolve(self.SCAN), tmp_path)
        lines = (tmp_path / "scan_table.csv").read_text().splitlines()
        assert lines[0] == "l_um,w_um,phi_deg,gate_order,K,lambda1_frac,status"
        cells = lines[1].split(",")
        assert float(cells[0]) == 1500.0
        assert cells[-1] == "ok"
        assert repr(float(cells[4])) == cells[4]  # shortest round-trip format

    def test_run_meta_records_the_environment(self, tmp_path, capsys):
        out = self.scan_into(tmp_path, "out")
        meta = json.loads((out / "run_meta.json").read_text())
        env = meta["environment"]
        thread_variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert set(env) == {"numpy", "blas", "blas_threads", "solve_single_thread",
                            "nproc", *thread_variables}
        assert env["numpy"] == np.__version__
        for name in thread_variables:   # as set, or None when unset
            assert env[name] == os.environ.get(name)
        assert env["nproc"] == os.cpu_count()
        if _blas._openblas() is None:
            assert env["blas_threads"] is None and not env["solve_single_thread"]
        else:   # the count outside the solve, not the solve's 1
            assert env["solve_single_thread"]
            assert env["blas_threads"] == _blas.blas_threads()

    def test_run_meta_reproduces_the_run(self, tmp_path, capsys):
        out = self.scan_into(tmp_path, "out")
        meta_path = out / "run_meta.json"
        assert json.loads(meta_path.read_text())["tool"] == "modesub"
        replayed = load_config(meta_path)
        assert replayed.resolved == resolve(self.SCAN).resolved
        out2 = tmp_path / "replay"
        out2.mkdir()
        run_scan(replayed, out2)
        assert ((out / "scan_table.csv").read_bytes()
                == (out2 / "scan_table.csv").read_bytes())

    def test_single_point_matches_direct_call(self, tmp_path, bbo1co, gate94,
                                              signal_opt):
        config = resolve({"grid": SMALL_GRID, "signal": {"waist_um": 107.7},
                          "gate": {"tau_fs": 94.0}})
        run_scan(config, tmp_path)
        lines = (tmp_path / "scan_table.csv").read_text().splitlines()
        assert len(lines) == 2
        direct = decompose(kernel_gram(replace(bbo1co, length_um=2000.0), gate94,
                                       signal_opt, GridConfig(**SMALL_GRID)))
        assert float(lines[1].split(",")[4]) == direct.schmidt_number

    def test_all_points_failing_raises(self, tmp_path):
        config = resolve({
            "grid": SMALL_GRID,
            # spans far too small: every point fails the span guard
            "crystal": {"preset": "bbo-phi1-co", "length_mm": 40.0}})
        with pytest.raises(ScanFailed):
            run_scan(config, tmp_path)
        lines = (tmp_path / "scan_table.csv").read_text().splitlines()
        assert "error" in lines[1]


class TestArtifacts:
    def test_kernel_dump_layout(self, tmp_path):
        # thin crystal keeps the phase-matching lobe resolvable on a tiny grid
        config = resolve({"grid": {"n_omega_c": 12, "n_q": 10, "n_omega_s": 8},
                          "crystal": {"preset": "bbo-phi1-co", "length_mm": 0.2}})
        (path,) = write_kernel_csv(config, tmp_path)
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
                          "crystal": {"preset": "bbo-phi1-co", "length_mm": 0.2}})
        (path,) = write_kernel_csv(config, tmp_path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        kernel = build_kernel(config.preset(), config.gate(), config.signal(),
                              config.grid())
        axes = np.meshgrid(kernel.omega_c.points, kernel.q_c.points,
                           kernel.omega_s.points, indexing="ij")
        for column, expected in enumerate([*axes, kernel.values]):
            assert np.array_equal(data[:, column].reshape(12, 10, 9), expected)
        assert np.all(data[:, 4] == 0.0)

    def test_kernel_dump_formats_values_as_the_other_tables(self, tmp_path):
        # the dump writes plane by plane for speed; its text is what the
        # writer of every other table makes of the same rows
        config = resolve({})
        (path,) = write_kernel_csv(config, tmp_path)
        kernel = build_kernel(config.preset(), config.gate(), config.signal(),
                              config.grid())
        rows = [(wc, qc, ws, kernel.values[i, j, k], "0.0")
                for (i, wc), (j, qc), (k, ws) in itertools.product(
                    enumerate(kernel.omega_c.points), enumerate(kernel.q_c.points),
                    enumerate(kernel.omega_s.points))]
        assert path.read_text() == _csv(["omega_c", "q_c", "omega_s", "re", "im"], rows)

    def test_modes_dump_layout(self, tmp_path):
        config = resolve({"grid": SMALL_GRID})
        (path,) = write_modes_csv(config, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("omega_s,mode_1")
        assert lines[1].startswith("lambda_sq,")
        weights = [float(x) for x in lines[1].split(",")[1:]]
        assert all(b <= a for a, b in zip(weights, weights[1:]))
        assert len(lines) == 2 + 48

    def test_gaussian_table(self, tmp_path):
        (path,) = write_gaussian_table(resolve({}), tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("l_um,w_um,phi_deg,phi0_deg")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["K_min"]) == pytest.approx(1.06778, abs=1e-4)
        assert float(row["rate_hz"]) == pytest.approx(332.1, rel=1e-3)
        # the flags come last: l = 2 mm is under 3 l0, w_g = 1 mm over 5 w_s
        assert lines[0].endswith(",rate_hz,single_mode_ok,plane_wave_ok")
        assert (row["single_mode_ok"], row["plane_wave_ok"]) == ("0", "1")

    @pytest.mark.parametrize("command,artifact", [("subtract", "condition_summary.json"),
                                                  ("schmidt", "modes.csv")])
    def test_default_identical_under_single_threaded_blas(self, tmp_path, command,
                                                          artifact):
        # default grid, derived q_c axis, in a fresh process at the
        # environment's BLAS threads with the one-thread helper off, and at
        # OPENBLAS_NUM_THREADS=1: the whole run, solve included, at the
        # default count against one thread
        outputs = run_cli_blas_default_and_single(tmp_path, command,
                                                  write_config(tmp_path, {}))
        files = [out.joinpath(artifact).read_bytes() for out in outputs]
        assert files[0] == files[1]

    def test_condition_summary(self, tmp_path):
        config = resolve({"grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
                          "comb": {"n_modes": 12},
                          "signal": {"waist_um": 107.7}})
        overlap_path, summary_path = write_condition_summary(config, tmp_path)
        summary = json.loads(summary_path.read_text())
        assert set(summary) == {"K", "purity", "probability_per_pulse",
                                "rate_hz", "lambda_sq", "grid"}
        grid = summary["grid"]
        assert list(grid) == ["n_omega_c", "n_q", "n_omega_s", "q_drift_ratio",
                              "mass_captured"]
        assert grid["n_omega_c"] == grid["n_q"] == grid["n_omega_s"] == 64
        assert 0.0 < grid["q_drift_ratio"] <= MAX_Q_DRIFT
        assert MIN_MASS_CAPTURED <= grid["mass_captured"] < 1.0
        assert 0.0 < summary["purity"] <= 1.0
        assert summary["rate_hz"] > 0
        overlap_lines = overlap_path.read_text().splitlines()
        assert overlap_lines[0].startswith("subtraction_mode,comb_1")
        # one row per leading mode of lambda_sq, one column per comb mode
        assert len(overlap_lines) == 1 + len(summary["lambda_sq"]) == 1 + N_LEADING_MODES
        assert overlap_lines[0].split(",")[-1] == "comb_12"
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

    @pytest.mark.parametrize("payload,field", [
        ({"gate": {"waist_mm": 1e306}}, "gate.waist_mm"),
        ({"gate": {"rep_rate_mhz": 1e306}}, "gate.rep_rate_mhz"),
        ({"comb": {"squeezing_db": 1e4}}, "comb.squeezing_db"),
        ({"crystal": {"length_mm": 1e306}}, "crystal.length_mm"),
        ({"comb": {"center_nm": 1e-200}}, "comb.center_nm"),
        ({"comb": {"fwhm_nm": 1e-320}}, "comb.fwhm_nm"),
        ({"comb": {"finesse": 1e-320}}, "comb.finesse"),
        ({"gate": {"fwhm_nm": 1e-320}}, "gate.fwhm_nm"),
        ({"comb": {"squeezing_db": 3000.0, "finesse": 1e-10}},
         "comb.squeezing_db / comb.finesse"),
    ])
    def test_value_overflowing_in_internal_units_names_its_key(self, tmp_path, capsys,
                                                               payload, field):
        path = write_config(tmp_path, payload)
        assert main(["config", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

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
        ({"comb": {"preset": "csv", "photons_csv": 5}}, "comb.photons_csv"),
    ])
    def test_non_finite_or_non_numeric_value_names_the_field(self, tmp_path, capsys,
                                                             payload, field):
        path = write_config(tmp_path, payload)
        assert main(["config", "--config", str(path)]) == 1
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1], {"x": 1}, True], ids=["list", "object", "bool"])
    @pytest.mark.parametrize("field", SCHEMA_FIELDS)
    def test_every_key_rejects_a_wrong_type(self, tmp_path, capsys, field, value):
        section, _, key = field.partition(".")
        path = write_config(tmp_path, {section: {key: value} if key else value})
        assert main(["config", "--config", str(path)]) == 1
        # a list-valued key may name its item instead: scan.axes[0]
        assert re.search(rf"configuration error: {re.escape(field)}[:\[]",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["1", {"x": 1}, True], ids=["string", "object", "bool"])
    @pytest.mark.parametrize("key", list(_AXIS_SCHEMA))
    def test_every_axis_key_rejects_a_wrong_type(self, tmp_path, capsys, key, value):
        # on an otherwise valid ranged axis: the key's own rule runs before
        # the rule that values exclude a range
        axis = {"variable": "l_mm", "min": 1.0, "max": 2.0, "count": 2, key: value}
        path = write_config(tmp_path, {"scan": {"axes": [axis]}})
        assert main(["config", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"configuration error: scan.axes[0].{key}: ")

    @pytest.mark.parametrize("change,field", [
        ({"name": 5}, "crystal.name"),
        ({"rho_deg": -3.9}, "crystal.rho_deg"),
        ({"phi_deg": 25.0}, "crystal.phi_deg"),
        ({"phi_deg": -19.0}, "crystal.phi_deg"),
        ({"lambda_s_nm": -800.0}, "crystal.lambda_s_nm"),
        ({"kp_s_fs_um": 5.8107, "kp_c_fs_um": 5.6139},
         "crystal.kp_s_fs_um / crystal.kp_c_fs_um"),
        ({"kp_c_collinear_fs_um": 5.0},
         "crystal.kp_s_fs_um / crystal.kp_c_collinear_fs_um"),
    ])
    def test_inline_crystal_error_names_its_field(self, tmp_path, capsys, change, field):
        path = write_config(tmp_path, {"crystal": {**INLINE_CRYSTAL, **change},
                                       "gate": {"fwhm_nm": 6.0}})
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

    @pytest.mark.parametrize("command", ["scan", "subtract", "schmidt", "kernel"])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, command):
        # 48 Omega_c points cannot resolve a 40 mm crystal's lobe
        payload = {"grid": SMALL_GRID,
                   "crystal": {"preset": "bbo-phi1-co", "length_mm": 40.0},
                   "output_dir": str(tmp_path / "nf")}
        path = write_config(tmp_path, payload)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        meta = tmp_path / "nf" / "run_meta.json"
        assert load_config(meta).resolved == load_config(path).resolved

    def test_eigensolver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        path = write_config(tmp_path, {"grid": SMALL_GRID})
        assert main(["schmidt", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: eigensolver failed")
        assert (tmp_path / "out" / "run_meta.json").exists()

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

    def test_gaussian_json_is_strict_at_zero_angle(self, tmp_path, capsys):
        # at phi = 0 the optimal length and waist are infinite: JSON has no
        # Infinity, so both renderings write null; the CSV keeps inf
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = {"scan": {"axes": [{"variable": "phi_deg", "values": [0.0, 1.0]}]}}
        path = write_config(tmp_path, payload)
        assert main(["gaussian", "--config", str(path), "--format", "json"]) == 0
        stdout_rows = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert main(["gaussian", "--config", str(path), "--format", "json",
                     "--output-dir", str(tmp_path)]) == 0
        file_rows = json.loads((tmp_path / "gaussian_table.json").read_text(),
                               parse_constant=no_constants)
        assert file_rows == stdout_rows
        zero, one = stdout_rows
        assert zero["l_opt_um"] is None and zero["w_opt_um"] is None
        assert math.isfinite(one["l_opt_um"]) and math.isfinite(one["w_opt_um"])
        assert main(["gaussian", "--config", str(path),
                     "--output-dir", str(tmp_path)]) == 0
        csv_row = (tmp_path / "gaussian_table.csv").read_text().splitlines()[1]
        assert ",inf,inf," in csv_row

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_shares_no_state_between_calls(self, tmp_path, capsys):
        assert main(["gaussian", "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["gaussian", "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (f"wrote {tmp_path / 'gaussian_table.csv'}\n"
                                           f"wrote {tmp_path / 'run_meta.json'}\n")
        assert not (tmp_path / "gaussian_table.json").exists()

    def test_gaussian_table_one_row_per_geometry(self, tmp_path, capsys):
        # the closed form is the order-0 model: a gate_order axis adds no rows
        payload = {"scan": {"axes": [{"variable": "l_mm", "values": [1.0, 3.0]},
                                     {"variable": "gate_order", "values": [0, 1, 2]}]}}
        path = write_config(tmp_path, payload)
        assert main(["gaussian", "--config", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["l_um"] for row in rows] == [1000.0, 3000.0]

    def test_gaussian_table_takes_n1_from_csv_index_0(self, tmp_path, capsys):
        # rows out of order: n_1 is the photon number of comb mode 0
        photons = tmp_path / "photons.csv"
        photons.write_text("2,5.0\n0,80.0\n1,3.0\n")
        path = write_config(tmp_path, {"comb": {"preset": "csv",
                                                "photons_csv": str(photons)}})
        assert main(["gaussian", "--config", str(path), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        config = load_config(path)
        n1 = 80.0 / config.comb().finesse
        preset = replace(config.preset(), length_um=row["l_um"])
        expected = single_mode_rate(preset, config.gate(), n1).rate_hz
        assert row["rate_hz"] == pytest.approx(expected, rel=1e-12)

    def test_malformed_photons_csv_names_the_file(self, tmp_path, capsys):
        photons = tmp_path / "one_column.csv"
        photons.write_text("0.1\n0.2\n")
        path = write_config(tmp_path, {"comb": {"preset": "csv",
                                                "photons_csv": str(photons)},
                                       "output_dir": str(tmp_path / "out")})
        assert main(["subtract", "--config", str(path)]) == 1
        assert ("configuration error: comb.photons_csv: " + str(photons)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text", ["0.1\n0.2\n", None], ids=["malformed", "missing"])
    def test_bad_photons_csv_fails_before_any_output(self, tmp_path, capsys, text):
        photons = tmp_path / "photons.csv"
        if text is not None:
            photons.write_text(text)
        path = write_config(tmp_path, {"comb": {"preset": "csv",
                                                "photons_csv": str(photons)}})
        message = f"configuration error: comb.photons_csv: {photons}"
        assert main(["config", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["subtract", "--config", str(path), "--output-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("comb", [{"squeezing_db": 0}, "0,0.0\n1,0.0\n"],
                             ids=["flat", "csv"])
    def test_vacuum_comb_is_a_numerical_failure(self, tmp_path, capsys, comb):
        if isinstance(comb, str):
            photons = tmp_path / "zeros.csv"
            photons.write_text(comb)
            comb = {"preset": "csv", "photons_csv": str(photons)}
        path = write_config(tmp_path, {"grid": SMALL_GRID, "comb": comb})
        out = tmp_path / "subtract"
        assert main(["subtract", "--config", str(path), "--output-dir", str(out)]) == 2
        assert ("numerical failure: all comb modes are vacuum"
                in capsys.readouterr().err)
        assert load_config(out / "run_meta.json").resolved == load_config(path).resolved
        for command in ("gaussian", "scan"):
            assert main([command, "--config", str(path),
                         "--output-dir", str(tmp_path / command)]) == 0

    def test_a_bug_propagates_out_of_main(self, tmp_path, monkeypatch):
        # a ValueError past resolve is no configuration error: no exit 1
        def broken_writer(config, directory):
            raise ValueError("a bug in a writer")

        monkeypatch.setattr("modesub.cli.write_modes_csv", broken_writer)
        with pytest.raises(ValueError, match="a bug in a writer"):
            main(["schmidt", "--output-dir", str(tmp_path / "out")])

    def test_csv_comb_run_meta_replays_from_another_directory(self, tmp_path, capsys,
                                                              monkeypatch):
        run = tmp_path / "rel"
        run.mkdir()
        (run / "photons.csv").write_text("0,80.0\n1,12.0\n2,3.0\n")
        write_config(run, {"grid": SMALL_GRID, "output_dir": "out",
                           "comb": {"preset": "csv", "photons_csv": "photons.csv"}})
        monkeypatch.chdir(run)
        assert main(["subtract", "--config", "config.json"]) == 0
        meta = json.loads((run / "out" / "run_meta.json").read_text())
        assert meta["config"]["comb"]["photons_csv"] == str(run / "photons.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["subtract", "--config", "rel/out/run_meta.json",
                     "--output-dir", "replay"]) == 0
        for artifact in ("condition_summary.json", "overlap_matrix.csv"):
            assert (run.joinpath("out", artifact).read_bytes()
                    == tmp_path.joinpath("replay", artifact).read_bytes())

    def test_csv_comb_run_meta_reproduces_subtract(self, tmp_path, capsys):
        photons = tmp_path / "photons.csv"
        photons.write_text("0,80.0\n1,12.0\n2,3.0\n")
        path = write_config(tmp_path, {"grid": SMALL_GRID,
                                       "comb": {"preset": "csv",
                                                "photons_csv": str(photons)}})
        outputs = [tmp_path / "first", tmp_path / "replay"]
        meta = outputs[0] / "run_meta.json"
        for config_path, out in zip((path, meta), outputs):
            assert main(["subtract", "--config", str(config_path),
                         "--output-dir", str(out)]) == 0
        comb = json.loads(meta.read_text())["config"]["comb"]
        assert comb["n_modes"] is None and comb["squeezing_db"] is None
        assert load_config(meta).resolved == load_config(path).resolved
        for artifact in ("condition_summary.json", "overlap_matrix.csv"):
            first, replay = (out.joinpath(artifact).read_bytes() for out in outputs)
            assert first == replay

    @pytest.mark.parametrize("command,payload,artifacts", [
        ("kernel", {"grid": {"n_omega_c": 16, "n_q": 12, "n_omega_s": 10},
                    "crystal": {"length_mm": 0.2}}, ("kernel.csv",)),
        ("schmidt", {"grid": SMALL_GRID}, ("modes.csv",)),
        ("subtract", {"grid": SMALL_GRID, "comb": {"n_modes": 10}},
         ("condition_summary.json", "overlap_matrix.csv")),
        ("scan", {"grid": SMALL_GRID,
                  "scan": {"axes": [{"variable": "w_um", "values": [80.0, 140.0]}]}},
         ("scan_table.csv",)),
        ("gaussian", {"scan": {"axes": [{"variable": "phi_deg", "values": [0.0, 1.0]}]}},
         ("gaussian_table.csv",)),
    ], ids=["kernel", "schmidt", "subtract", "scan", "gaussian"])
    def test_solve_command_reruns_from_its_run_meta(self, tmp_path, capsys, command,
                                                    payload, artifacts):
        path = write_config(tmp_path, payload)
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main([command, "--config", str(path), "--output-dir", str(first)]) == 0
        meta = first / "run_meta.json"
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {meta}"
        assert load_config(meta).resolved == load_config(path).resolved
        assert main([command, "--config", str(meta), "--output-dir", str(replay)]) == 0
        for artifact in artifacts:
            assert (first.joinpath(artifact).read_bytes()
                    == replay.joinpath(artifact).read_bytes())

    def test_run_meta_pinning_128_omega_points_replays_on_the_uniform_grid(
            self, tmp_path, capsys):
        # a default run_meta.json written while 128 uniform points were the
        # Omega default: its explicit sizes keep the trapezoid, so it
        # replays the K it recorded, and its own replay byte for byte
        grid = {"n_omega_c": 128, "n_omega_s": 128, "n_q": None, "span_scale": 1.0}
        old = {"tool": "modesub", "version": "0.1.0", "wall_time_s": 0.0073,
               "config": {**resolve({}).resolved, "grid": grid},
               "environment": {"numpy": "2.4.6", "solve_single_thread": True}}
        path = write_config(tmp_path, old, name="run_meta.json")
        first, replay = tmp_path / "first", tmp_path / "replay"
        for command in ("subtract", "schmidt"):
            assert main([command, "--config", str(path), "--output-dir", str(first)]) == 0
        assert load_config(first / "run_meta.json").resolved["grid"] == grid
        for command in ("subtract", "schmidt"):
            assert main([command, "--config", str(first / "run_meta.json"),
                         "--output-dir", str(replay)]) == 0
        for artifact in ("condition_summary.json", "overlap_matrix.csv", "modes.csv"):
            assert (first.joinpath(artifact).read_bytes()
                    == replay.joinpath(artifact).read_bytes())
        summary = json.loads((first / "condition_summary.json").read_text())
        assert summary["grid"]["n_omega_c"] == summary["grid"]["n_omega_s"] == 128
        # the 128-point trapezoid's K; the derived nodes give 1.5147695
        assert summary["K"] == pytest.approx(1.5147682678764327, rel=1e-12)
        omega_s = np.loadtxt(first / "modes.csv", delimiter=",", skiprows=2, usecols=0)
        assert np.array_equal(omega_s, uniform_grid(omega_s[-1], 128).points)

    def test_run_meta_with_a_phase_matching_key_fails_until_it_is_deleted(
            self, tmp_path, capsys):
        # a run_meta.json written while grid.phase_matching chose between the
        # sinc and a Gaussian surrogate: it names the key, exits 1 and makes
        # no directory; without the key it replays the run byte for byte
        payload = {"grid": SMALL_GRID, "comb": {"n_modes": 10}}
        first, refused, replay = (tmp_path / name for name in ("first", "refused", "replay"))
        assert main(["subtract", "--config", str(write_config(tmp_path, payload)),
                     "--output-dir", str(first)]) == 0
        meta = json.loads((first / "run_meta.json").read_text())
        meta["config"]["grid"]["phase_matching"] = "sinc"
        path = write_config(tmp_path, meta, "run_meta.json")
        capsys.readouterr()
        assert main(["subtract", "--config", str(path), "--output-dir", str(refused)]) == 1
        assert capsys.readouterr().err == ("configuration error: grid.phase_matching: "
                                           "unknown key\n")
        assert not refused.exists()
        del meta["config"]["grid"]["phase_matching"]
        path = write_config(tmp_path, meta, "run_meta.json")
        assert main(["subtract", "--config", str(path), "--output-dir", str(replay)]) == 0
        for artifact in ("condition_summary.json", "overlap_matrix.csv"):
            assert (first.joinpath(artifact).read_bytes()
                    == replay.joinpath(artifact).read_bytes())

    def test_all_failed_scan_still_records_its_run(self, tmp_path, capsys):
        # every point fails the span guard: exit 2, and the directory still
        # holds the table of errors and the run_meta.json to re-run it from
        payload = {"grid": SMALL_GRID,
                   "crystal": {"preset": "bbo-phi1-co", "length_mm": 40.0},
                   "scan": {"axes": [{"variable": "w_um", "values": [80.0, 140.0]}]}}
        path = write_config(tmp_path, payload)
        assert main(["scan", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "numerical failure: all 2 scan points failed" in captured.err
        assert captured.out == (f"wrote {tmp_path / 'scan_table.csv'}\n"
                                f"wrote {tmp_path / 'run_meta.json'}\n")
        table = (tmp_path / "scan_table.csv").read_text().splitlines()
        assert len(table) == 3 and all(",error: " in row for row in table[1:])
        assert load_config(tmp_path / "run_meta.json").resolved == load_config(path).resolved

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_gaussian_stdout_is_the_file_text(self, tmp_path, capsys, fmt):
        payload = {"scan": {"axes": [{"variable": "phi_deg", "values": [0.0, 1.0]}]}}
        path = write_config(tmp_path, payload)
        assert main(["gaussian", "--config", str(path), "--format", fmt]) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["gaussian", "--config", str(path), "--format", fmt,
                     "--output-dir", str(out)]) == 0
        assert stdout == (out / f"gaussian_table.{fmt}").read_text()

    @pytest.mark.parametrize("command,writer", [
        ("scan", "run_scan"), ("subtract", "write_condition_summary"),
        ("kernel", "write_kernel_csv"), ("schmidt", "write_modes_csv"),
        ("gaussian", "write_gaussian_table")])
    def test_command_calls_the_writer_named_in_cli(self, tmp_path, capsys, monkeypatch,
                                                   command, writer):
        # bench/layers.py traces a writer by replacing its name in
        # modesub.cli; the command must look the name up when it runs
        calls = []

        def stand_in(config, directory, **options):
            calls.append(directory)
            return []

        monkeypatch.setattr(f"modesub.cli.{writer}", stand_in)
        assert main([command, "--output-dir", str(tmp_path)]) == 0
        assert calls == [tmp_path]
        assert capsys.readouterr().out == f"wrote {tmp_path / 'run_meta.json'}\n"

    def test_subtract_command(self, tmp_path, capsys):
        payload = {"grid": {"n_omega_c": 64, "n_q": 64, "n_omega_s": 64},
                   "comb": {"n_modes": 10},
                   "output_dir": str(tmp_path / "sub_out")}
        path = write_config(tmp_path, payload)
        assert main(["subtract", "--config", str(path)]) == 0
        assert (tmp_path / "sub_out" / "condition_summary.json").exists()

    @pytest.mark.parametrize("l_mm,w_um", [(2.0, 107.7), (1.0, 200.0), (4.0, 50.0)])
    def test_scan_row_matches_subtract_at_the_same_point(self, tmp_path, l_mm, w_um):
        # the scan solves on Omega_s nodes sized for the kernel, subtract on
        # nodes sized for the comb too; both are converged, so K and
        # lambda_1 agree
        point = {"crystal": {"length_mm": l_mm}, "signal": {"waist_um": w_um}}
        for command in ("scan", "subtract"):
            path = write_config(tmp_path, {**point, "output_dir": str(tmp_path / command)},
                                f"{command}.json")
            assert main([command, "--config", str(path)]) == 0
        header, line = (tmp_path / "scan" / "scan_table.csv").read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        summary = json.loads((tmp_path / "subtract" / "condition_summary.json").read_text())
        assert float(row["K"]) == pytest.approx(summary["K"], rel=1e-11, abs=0)
        assert float(row["lambda1_frac"]) == pytest.approx(summary["lambda_sq"][0],
                                                           rel=1e-11, abs=0)

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
