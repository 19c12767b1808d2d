"""Workloads of the modesub benchmark: seed -> config, and output checks.

Each workload is one `modesub` CLI command.  ``KERNEL_DUMP`` is not a
workload of its own: every traced run dumps the kernel a few times to
measure the CSV writer (see ``run.py``).  The seed draws its operating
points (crystal length l, signal waist w_s) from a fixed 16 x 16 lattice,
l = 1.0 .. 4.0 mm in 0.2 mm steps and w_s = 50 .. 200 um in 10 um steps.
Frozen references (``references.json``, written by ``freeze_refs.py``)
cover every lattice point, so the accuracy gate holds for any seed, and a
claim can always be re-checked on a seed not used while writing it.

The program under test only ever sees the resulting config file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

L_MM = tuple(round(1.0 + 0.2 * k, 1) for k in range(16))
W_UM = tuple(50.0 + 10.0 * k for k in range(16))
# the 64^3 grid raises KernelSpanError at l = 1 mm, w_s = 200 um, so the
# kernel dump draws l from the lattice points at and above 2 mm
KERNEL_DUMP_L_MM = tuple(l for l in L_MM if l >= 2.0)
KERNEL_DUMP_N = 64

REL_TOL = 1e-4
REFERENCES = Path(__file__).with_name("references.json")


def point_key(l_mm: float, w_um: float) -> str:
    return f"{l_mm:.1f},{w_um:.0f}"


def make_config(name: str, seed: int) -> dict:
    """The raw modesub config for one workload and seed (deterministic)."""
    rng = random.Random(f"{name}/{seed}")
    if name == "subtract":
        return {"crystal": {"length_mm": rng.choice(L_MM)},
                "signal": {"waist_um": rng.choice(W_UM)}}
    if name == "scan-lw16":
        # jittered lattice: one l and one w_s from each quarter of the range
        ls = [rng.choice(L_MM[4 * i:4 * i + 4]) for i in range(4)]
        ws = [rng.choice(W_UM[4 * i:4 * i + 4]) for i in range(4)]
        return {"scan": {"axes": [{"variable": "l_mm", "values": ls},
                                  {"variable": "w_um", "values": ws}]}}
    if name == "kernel-dump-64":
        n = KERNEL_DUMP_N
        return {"crystal": {"length_mm": rng.choice(KERNEL_DUMP_L_MM)},
                "signal": {"waist_um": rng.choice(W_UM)},
                "grid": {"n_omega_c": n, "n_q": n, "n_omega_s": n}}
    raise KeyError(f"unknown workload {name!r}")


def operating_points(config: dict) -> list[tuple[float, float]]:
    """(l_mm, w_um) of every point the config evaluates, in output order."""
    axes = config.get("scan", {}).get("axes")
    if axes:
        values = {a["variable"]: a["values"] for a in axes}
        return [(l, w) for l in values["l_mm"] for w in values["w_um"]]
    return [(config["crystal"]["length_mm"], config["signal"]["waist_um"])]


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def _gate(label: str, value, ref: float) -> str | None:
    """None when value is within REL_TOL of ref, else a failure message."""
    if value is None or not math.isfinite(value):
        return f"{label}: no finite value ({value!r})"
    err = abs(value - ref) / abs(ref)
    if err > REL_TOL:
        return f"{label}: {value!r} vs reference {ref!r} (rel err {err:.2e})"
    return None


def check_subtract(out_dir: Path, config: dict, refs: dict) -> list[str | None]:
    """One entry per unit: None if correct, else why it failed."""
    summary = json.loads((out_dir / "condition_summary.json").read_text())
    ref = refs["points"][point_key(*operating_points(config)[0])]
    errors = [_gate("K", summary["K"], ref["K"]),
              _gate("lambda1", summary["lambda_sq"][0], ref["lambda1"]),
              _gate("purity", summary["purity"], ref["purity"])]
    errors = [e for e in errors if e]
    return ["; ".join(errors) if errors else None]


def check_scan(out_dir: Path, config: dict, refs: dict) -> list[str | None]:
    header, *lines = (out_dir / "scan_table.csv").read_text().splitlines()
    columns = header.split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines]
    points = operating_points(config)
    if len(rows) != len(points) or "K" not in columns:
        return [f"scan table has {len(rows)} rows, expected {len(points)}"] * len(points)
    results = []
    for (l_mm, w_um), row in zip(points, rows):
        if (abs(float(row["l_um"]) - l_mm * 1e3) > 1e-6
                or abs(float(row["w_um"]) - w_um) > 1e-9):
            results.append(f"row ({row['l_um']}, {row['w_um']}) out of order")
            continue
        if row["status"] != "ok":
            results.append(f"point ({l_mm}, {w_um}): {row['status']}")
            continue
        ref = refs["points"][point_key(l_mm, w_um)]
        errors = [e for e in (_gate("K", float(row["K"]), ref["K"]),
                              _gate("lambda1", float(row["lambda1_frac"]), ref["lambda1"]))
                  if e]
        results.append(f"point ({l_mm}, {w_um}): {'; '.join(errors)}" if errors else None)
    return results


def kernel_csv_stats(path: Path) -> dict:
    """Row count, sum of re^2 and max |im| of a kernel.csv dump."""
    with path.open() as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", usecols=(3, 4), ndmin=2)
    return {"header": header, "rows": int(data.shape[0]),
            "sum_re2": float(np.sum(data[:, 0] ** 2)),
            "max_abs_im": float(np.max(np.abs(data[:, 1]))),
            "max_abs_re": float(np.max(np.abs(data[:, 0])))}


def check_kernel_csv(out_dir: Path, config: dict, refs: dict) -> list[str | None]:
    stats = kernel_csv_stats(out_dir / "kernel.csv")
    ref = refs["kernel_csv"][point_key(*operating_points(config)[0])]
    errors = []
    if stats["header"] != "omega_c,q_c,omega_s,re,im":
        errors.append(f"header {stats['header']!r}")
    if stats["rows"] != ref["rows"]:
        errors.append(f"rows: {stats['rows']} vs reference {ref['rows']}")
    errors.append(_gate("sum_re2", stats["sum_re2"], ref["sum_re2"]))
    # the kernel is real: its imaginary part must vanish on the kernel's scale
    if stats["max_abs_im"] > REL_TOL * stats["max_abs_re"]:
        errors.append(f"max |im| {stats['max_abs_im']!r} exceeds "
                      f"{REL_TOL:g} x max |re| {stats['max_abs_re']!r}")
    errors = [e for e in errors if e]
    return ["; ".join(errors) if errors else None]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # the modesub subcommand one operation runs
    units_per_op: int   # checked units in one operation
    check: Callable[[Path, dict, dict], list[str | None]]


# why each workload exists is stated once, in BENCHMARK.json
WORKLOADS = {w.name: w for w in (Workload("subtract", "subtract", 1, check_subtract),
                                 Workload("scan-lw16", "scan", 16, check_scan))}
KERNEL_DUMP = Workload("kernel-dump-64", "kernel", 1, check_kernel_csv)
