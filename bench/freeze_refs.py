"""Freeze the accuracy references of the modesub benchmark.

For every (l, w_s) point of the workload lattice this evaluates K, lambda_1
and the conditioned-state purity on a 192^3 grid (finer than the 128^3 the
workloads run at), and for every kernel-dump point the row count and
sum of re^2 of the 64^3 kernel samples.  The dump's samples are pointwise
values of the kernel, so their reference is taken on the same 64^3 grid.

Run from the repository root:

    python3 bench/freeze_refs.py                      # writes bench/references.json
    python3 bench/freeze_refs.py --grid 128 --out /tmp/refs128.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from modesub.conditioning import comb_subtraction_experiment  # noqa: E402
from modesub.config import resolve  # noqa: E402
from modesub.kernel import build_kernel  # noqa: E402

from workloads import (KERNEL_DUMP_L_MM, KERNEL_DUMP_N, L_MM, REFERENCES, W_UM,  # noqa: E402
                       point_key)


def conditioned_point(l_mm: float, w_um: float, n: int) -> dict:
    config = resolve({"crystal": {"length_mm": l_mm}, "signal": {"waist_um": w_um},
                      "grid": {"n_omega_c": n, "n_q": n, "n_omega_s": n}})
    gate = config.gate()
    (result,) = comb_subtraction_experiment(config.preset(), gate, config.signal(),
                                            config.comb(), gate_orders=(gate.order,),
                                            config=config.grid())
    cond = result.condition
    return {"K": cond.schmidt_number, "lambda1": float(cond.lambdas_sq[0]),
            "purity": cond.purity}


def kernel_dump_point(l_mm: float, w_um: float) -> dict:
    n = KERNEL_DUMP_N
    config = resolve({"crystal": {"length_mm": l_mm}, "signal": {"waist_um": w_um},
                      "grid": {"n_omega_c": n, "n_q": n, "n_omega_s": n}})
    values = build_kernel(config.preset(), config.gate(), config.signal(),
                          config.grid()).values
    return {"rows": int(values.size), "sum_re2": float(np.sum(values.real ** 2))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=192,
                        help="points per axis for K, lambda_1 and purity")
    parser.add_argument("--out", type=Path, default=REFERENCES)
    args = parser.parse_args(argv)

    t0 = time.monotonic()
    points = {}
    for l_mm in L_MM:
        for w_um in W_UM:
            points[point_key(l_mm, w_um)] = conditioned_point(l_mm, w_um, args.grid)
        print(f"l = {l_mm} mm done ({time.monotonic() - t0:.0f} s)", file=sys.stderr)
    kernel_csv = {point_key(l_mm, w_um): kernel_dump_point(l_mm, w_um)
                  for l_mm in KERNEL_DUMP_L_MM for w_um in W_UM}
    refs = {"grid": args.grid, "kernel_csv_grid": KERNEL_DUMP_N,
            "numpy": np.__version__, "points": points, "kernel_csv": kernel_csv}
    args.out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
