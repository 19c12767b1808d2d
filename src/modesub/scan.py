"""Scan orchestration and deterministic artifact emission.

The scan loop (:func:`schmidt_number_scan`) solves each configured
:class:`~modesub.config.ScanPoint` for K and lambda_1 in input order.  A
point whose grid cannot hold its kernel, or whose eigensolve fails, becomes
a row with an ``error:`` status and the scan goes on; any other exception
is a bug and stops it.  :func:`run_scan` raises :class:`ScanFailed` when
every point failed, which the CLI reports as a numerical failure.

Each writer (:func:`run_scan`, :func:`write_kernel_csv`,
:func:`write_modes_csv`, :func:`write_gaussian_table`,
:func:`write_condition_summary`) takes the config and an existing output
directory and returns the paths it wrote there; the CLI creates the
directory and records the run in ``run_meta.json`` (:func:`write_run_meta`).
One helper (:func:`_csv`) writes every CSV table but the kernel dump, whose
per-plane writer formats its values the same way for speed.  Numbers are
written by ``repr`` (shortest round-trip) in a fixed column order, so
identical configurations reproduce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._blas import environment
from .analytic import (characteristic_scales, plane_wave_ok, schmidt_number_closed_form,
                       single_mode_ok, single_mode_rate)
from .conditioning import ConditioningError, comb_subtraction_experiment
from .config import RunConfig, ScanPoint
from .kernel import (GridConfig, KernelResolutionError, KernelSpanError,
                     build_kernel, kernel_gram)
from .schmidt import DecompositionError, decompose, schmidt_number_and_lead

SCAN_HEADER = ("l_um", "w_um", "phi_deg", "gate_order", "K", "lambda1_frac", "status")
# a grid that cannot resolve or hold the kernel, a failed eigensolve, or
# undefined conditioning: a scan records them per point, and a single-point
# command exits with them
NUMERICAL_FAILURES = (KernelResolutionError, KernelSpanError, DecompositionError,
                      ConditioningError)
# modes in modes.csv and overlap_matrix.csv, Schmidt weights in condition_summary.json
N_LEADING_MODES = 6


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(header, rows) -> str:
    """The text of a CSV file: the header line, then one line per row, each
    value formatted by :func:`_fmt`."""
    return "\n".join(",".join(map(_fmt, row)) for row in [header, *rows]) + "\n"


def write_run_meta(directory: Path, config: RunConfig, wall_s: float) -> Path:
    meta = {"tool": "modesub", "version": __version__,
            "wall_time_s": wall_s, "config": config.resolved,
            "environment": environment()}
    path = directory / "run_meta.json"
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


class ScanFailed(RuntimeError):
    """Every scan point failed; the table holds each point's error, and
    ``paths`` lists the files written."""

    def __init__(self, message: str, paths: list[Path]):
        super().__init__(message)
        self.paths = paths


@dataclass(frozen=True)
class ScanRow:
    point: ScanPoint
    schmidt_number: float | None
    lambda1_frac: float | None
    status: str = "ok"


def schmidt_number_scan(points: Sequence[ScanPoint],
                        config: GridConfig | None = None) -> list[ScanRow]:
    """K and lambda_1 / sum lambda of the kernel at each point, in input
    order, from the eigenvalues alone
    (:func:`~modesub.schmidt.schmidt_number_and_lead`).

    A point whose grid cannot hold its kernel or whose eigensolve fails is
    recorded in-row; any other exception is a bug and propagates.
    """
    rows = []
    for point in points:
        try:
            gram = kernel_gram(point.preset, point.gate, point.signal, config)
            rows.append(ScanRow(point, *schmidt_number_and_lead(gram)))
        except NUMERICAL_FAILURES as exc:  # recorded per point, scan continues
            rows.append(ScanRow(point, None, None, status=f"error: {exc}"))
    return rows


def run_scan(config: RunConfig, directory: Path) -> list[Path]:
    """Evaluate the configured sweep into ``directory``/scan_table.csv.

    Numerical failures are carried in-row with status != ok; when every
    point failed the table is still written, then :class:`ScanFailed` is
    raised.
    """
    rows = schmidt_number_scan(config.scan_points(), config.grid())
    table = directory / "scan_table.csv"
    table.write_text(_csv(SCAN_HEADER, [
        (row.point.preset.length_um, row.point.signal.waist_s_um,
         math.degrees(row.point.preset.phi), row.point.gate.order,
         row.schmidt_number, row.lambda1_frac, row.status.replace(",", ";"))
        for row in rows]))
    if all(row.status != "ok" for row in rows):
        raise ScanFailed(f"all {len(rows)} scan points failed; see {table}", [table])
    return [table]


def write_kernel_csv(config: RunConfig, directory: Path) -> list[Path]:
    """Dump the kernel samples, row-major over (omega_c, q_c, omega_s)."""
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
    return [path]


def write_modes_csv(config: RunConfig, directory: Path) -> list[Path]:
    """Dump the leading subtraction modes with their normalized weights."""
    result = decompose(kernel_gram(config.preset(), config.gate(),
                                   config.signal(), config.grid()))
    m = min(N_LEADING_MODES, result.modes.shape[0])
    path = directory / "modes.csv"
    path.write_text(_csv(["omega_s", *(f"mode_{i + 1}" for i in range(m))],
                         [["lambda_sq", *result.lambdas_sq[:m]],
                          *([ws, *column] for ws, column
                            in zip(result.omega_s.points, result.modes[:m].T))]))
    return [path]


def gaussian_table_rows(config: RunConfig) -> list[dict]:
    """The order-0 closed form, one row per distinct (l, w_s, phi) in scan
    order, with the single-mode and plane-wave flags last."""
    n1 = float(config.comb().photons_pulse[0])
    geometries = {}
    for p in config.scan_points():
        geometries.setdefault((p.preset.length_um, p.signal.waist_s_um, p.preset.phi), p)
    rows = []
    for p in geometries.values():
        scales = characteristic_scales(p.preset, p.gate)
        rate = single_mode_rate(p.preset, p.gate, n1)
        rows.append({
            "l_um": p.preset.length_um,
            "w_um": p.signal.waist_s_um,
            "phi_deg": math.degrees(p.preset.phi),
            "phi0_deg": math.degrees(scales.phi0_rad),
            "l0_um": scales.l0_um,
            "l_opt_um": scales.l_opt_um,
            "w_opt_um": scales.w_opt_um,
            "K_min": scales.k_min,
            "K": schmidt_number_closed_form(p.preset, p.gate, p.signal),
            "lambda_sq_per_fs": rate.lambda_sq_per_fs,
            "p_norm_m2_per_j": rate.p_norm_m2_per_j,
            "rate_hz": rate.rate_hz,
            "single_mode_ok": single_mode_ok(scales, p.preset),
            "plane_wave_ok": plane_wave_ok(p.gate, p.signal),
        })
    return rows


def gaussian_table_text(config: RunConfig, fmt: str) -> str:
    """The table as the text of its file, CSV or JSON.  The JSON is strict
    (RFC 8259 has no Infinity): a non-finite value, the l_opt_um and
    w_opt_um of a phi = 0 row, is written as null; the CSV keeps inf.  The
    CSV writes a flag as 1 or 0."""
    rows = gaussian_table_rows(config)
    if fmt == "json":
        return json.dumps([{key: value if math.isfinite(value) else None
                            for key, value in row.items()} for row in rows],
                          indent=2) + "\n"
    return _csv(rows[0], [row.values() for row in rows])


def write_gaussian_table(config: RunConfig, directory: Path,
                         fmt: str = "csv") -> list[Path]:
    path = directory / f"gaussian_table.{fmt}"
    path.write_text(gaussian_table_text(config, fmt))
    return [path]


def write_condition_summary(config: RunConfig, directory: Path) -> list[Path]:
    """Single-order conditioning artifacts: |O|^2 matrix CSV + summary JSON.

    The matrix has one row per leading subtraction mode, the
    :data:`N_LEADING_MODES` that modes.csv and ``lambda_sq`` report, and
    one column per comb mode.  Purity and probability sum over every kept
    mode (:func:`~modesub.conditioning.conditioned_state`), whatever the
    rows shown.
    """
    preset = config.preset()
    gate = config.gate()
    results = comb_subtraction_experiment(preset, gate, config.signal(),
                                          config.comb(),
                                          gate_orders=(gate.order,),
                                          config=config.grid())
    res = results[0]
    cond = res.condition

    overlap_path = directory / "overlap_matrix.csv"
    # pow(|v|, 2), rounded as a Python v ** 2 is; np.square's v * v differs
    # in the last bit for about 1 value in 1000
    weights = np.float_power(np.abs(cond.overlap[:N_LEADING_MODES]), 2)
    overlap_path.write_text(_csv(
        ["subtraction_mode", *(f"comb_{n + 1}" for n in range(weights.shape[1]))],
        [[m, *row] for m, row in enumerate(weights, start=1)]))

    summary = {
        "K": cond.schmidt_number,
        "purity": cond.purity,
        "probability_per_pulse": cond.probability,
        "rate_hz": cond.rate_hz,
        "lambda_sq": [float(v) for v in cond.lambdas_sq[:N_LEADING_MODES]],
        "grid": res.grid,
    }
    summary_path = directory / "condition_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return [overlap_path, summary_path]
