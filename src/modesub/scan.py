"""Scan orchestration and deterministic artifact emission.

All numeric CSV output uses ``repr`` (shortest round-trip) formatting and a
fixed column order, so identical configurations reproduce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (GaussianModelParams, characteristic_scales,
                       conversion_prefactor_fs, schmidt_number_closed_form,
                       single_mode_rate)
from .conditioning import comb_subtraction_experiment, conditioned_state
from .config import RunConfig
from .kernel import build_kernel, kernel_gram
from .schmidt import decompose, schmidt_number_scan

SCAN_HEADER = "l_um,w_um,phi_deg,gate_order,K,lambda1_frac,status"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _output_directory(config: RunConfig, output_dir: str | Path | None) -> Path:
    """``output_dir``, or the configured one when it is None, created if missing."""
    directory = Path(output_dir if output_dir is not None else config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def write_run_meta(directory: Path, config: RunConfig, wall_s: float) -> Path:
    meta = {"tool": "modesub", "version": __version__,
            "wall_time_s": wall_s, "config": config.resolved}
    path = directory / "run_meta.json"
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def run_scan(config: RunConfig, output_dir: str | Path | None = None) -> dict[str, Path]:
    """Evaluate the configured sweep and emit scan_table.csv + run_meta.json.

    Returns the emitted paths; numerical failures are carried in-row with
    status != ok.  Raises RuntimeError when every point failed.
    """
    t0 = time.monotonic()
    directory = _output_directory(config, output_dir)

    points = config.scan_points()
    rows = schmidt_number_scan(config.preset(), config.gate(), config.signal(),
                               points, config.grid())
    lines = [SCAN_HEADER]
    for row in rows:
        p = row.point
        lines.append(",".join([
            _fmt(p.length_um), _fmt(p.waist_um), _fmt(math.degrees(p.phi_rad)),
            str(p.gate_order), _fmt(row.schmidt_number), _fmt(row.lambda1_frac),
            row.status.replace(",", ";"),
        ]))
    table = directory / "scan_table.csv"
    table.write_text("\n".join(lines) + "\n")
    paths = {"scan_table": table,
             "run_meta": write_run_meta(directory, config, time.monotonic() - t0)}
    if all(row.status != "ok" for row in rows):
        raise RuntimeError(f"all {len(rows)} scan points failed; see {table}")
    return paths


def write_kernel_csv(config: RunConfig, output_dir: str | Path | None = None) -> Path:
    """Dump the kernel samples, row-major over (omega_c, q_c, omega_s)."""
    directory = _output_directory(config, output_dir)
    kernel = build_kernel(config.preset(), config.gate(), config.signal(), config.grid())
    path = directory / "kernel.csv"
    q_cells = [_fmt(qc) + "," for qc in kernel.q_c.points]
    s_cells = [_fmt(ws) + "," for ws in kernel.omega_s.points]
    with path.open("w") as fh:
        fh.write("omega_c,q_c,omega_s,re,im\n")
        # one Omega_c plane per write; the kernel is real, so im is 0.0
        for wc, plane in zip(kernel.omega_c.points, kernel.values):
            head = _fmt(wc) + ","
            fh.write("".join(f"{head}{qc}{ws}{v!r},0.0\n"
                             for qc, row in zip(q_cells, plane.tolist())
                             for ws, v in zip(s_cells, row)))
    return path


def write_modes_csv(config: RunConfig, output_dir: str | Path | None = None,
                    n_modes: int = 6) -> Path:
    """Dump the leading subtraction modes with their normalized weights."""
    directory = _output_directory(config, output_dir)
    result = decompose(kernel_gram(config.preset(), config.gate(),
                                   config.signal(), config.grid()))
    m = min(n_modes, result.modes.shape[0])
    path = directory / "modes.csv"
    with path.open("w") as fh:
        fh.write("omega_s," + ",".join(f"mode_{i + 1}" for i in range(m)) + "\n")
        fh.write("lambda_sq," + ",".join(_fmt(result.lambdas_sq[i])
                                         for i in range(m)) + "\n")
        for k, ws in enumerate(result.omega_s.points):
            row = [_fmt(ws)] + [_fmt(result.modes[i, k]) for i in range(m)]
            fh.write(",".join(row) + "\n")
    return path


def gaussian_table_rows(config: RunConfig) -> list[dict]:
    """Analytic-model summary, one row per scan point (or the base point)."""
    preset = config.preset()
    gate = config.gate()
    signal = config.signal()
    comb = config.comb()
    n1 = float(comb.photons_pulse[0]) if comb.n_modes else 0.0
    points = config.scan_points()
    rows = []
    for point in points:
        pset = dc_replace(preset, length_um=point.length_um, phi=point.phi_rad)
        sig = dc_replace(signal, waist_s_um=point.waist_um)
        params = GaussianModelParams.from_preset(pset, gate, sig, collinear=True)
        scales = characteristic_scales(params)
        rate = single_mode_rate(pset, gate, n1, sig)
        rows.append({
            "l_um": point.length_um,
            "w_um": point.waist_um,
            "phi_deg": math.degrees(point.phi_rad),
            "phi0_deg": math.degrees(scales.phi0_rad),
            "l0_um": scales.l0_um,
            "l_opt_um": scales.l_opt_um,
            "w_opt_um": scales.w_opt_um,
            "K_min": scales.k_min,
            "K": schmidt_number_closed_form(params),
            "lambda_sq_per_fs": rate.lambda_sq_per_fs,
            "p_norm_m2_per_j": rate.p_norm_m2_per_j,
            "rate_hz": rate.rate_hz,
        })
    return rows


def write_gaussian_table(config: RunConfig, output_dir: str | Path | None = None,
                         fmt: str = "csv") -> Path:
    directory = _output_directory(config, output_dir)
    rows = gaussian_table_rows(config)
    columns = list(rows[0].keys())
    if fmt == "json":
        path = directory / "gaussian_table.json"
        path.write_text(json.dumps(rows, indent=2) + "\n")
        return path
    path = directory / "gaussian_table.csv"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_condition_summary(config: RunConfig, output_dir: str | Path | None = None,
                            n_dump_modes: int = 6) -> dict[str, Path]:
    """Single-order conditioning artifacts: |O|^2 matrix CSV + summary JSON."""
    directory = _output_directory(config, output_dir)
    preset = config.preset()
    gate = config.gate()
    results = comb_subtraction_experiment(preset, gate, config.signal(),
                                          config.comb(),
                                          gate_orders=(gate.order,),
                                          config=config.grid(),
                                          n_dump_modes=n_dump_modes)
    res = results[0]
    cond = res.condition

    overlap_path = directory / "overlap_matrix.csv"
    with overlap_path.open("w") as fh:
        n_comb = cond.overlap.shape[1]
        fh.write("subtraction_mode," + ",".join(f"comb_{n + 1}"
                                                for n in range(n_comb)) + "\n")
        # pow(|v|, 2), rounded as a Python v ** 2 is; np.square's v * v
        # differs in the last bit for about 1 value in 1000
        weights = np.float_power(np.abs(cond.overlap), 2).tolist()
        for m, row in enumerate(weights, start=1):
            fh.write(f"{m}," + ",".join(map(repr, row)) + "\n")

    summary = {
        "K": cond.schmidt_number,
        "purity": cond.purity,
        "probability_per_pulse": cond.probability,
        "rate_hz": cond.rate_hz,
        "lambda_sq": [float(v) for v in cond.lambdas_sq[:n_dump_modes]],
        "grid": res.grid,
    }
    summary_path = directory / "condition_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return {"overlap_matrix": overlap_path, "condition_summary": summary_path}
