"""The benchmark's accuracy gate, run on the files the benchmark reads.

``bench/run.py`` checks every op's K, lambda_1 and purity against
``bench/references.json`` within ``REL_TOL``, and a traced run's pinned
64^3 kernel dump against the row count and sum of re^2 frozen for its
point (``bench/workloads.py``).  These tests take the same figures at
every lattice point, so a change that would fail the gate fails here
first.  They read the benchmark's files and write none of them.
"""

import json
import sys
from pathlib import Path

import pytest

from modesub.cli import main
from modesub.conditioning import comb_subtraction_experiment
from modesub.config import resolve

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import (KERNEL_DUMP, L_MM, REL_TOL, W_UM, load_references,  # noqa: E402
                       make_config, point_key)

REFERENCES = load_references()


@pytest.mark.parametrize("l_mm", L_MM)
def test_default_config_within_tolerance_of_the_references(l_mm):
    # the subtract workload's solve, at each w_s of the lattice row
    for w_um in W_UM:
        config = resolve({"crystal": {"length_mm": l_mm}, "signal": {"waist_um": w_um}})
        gate = config.gate()
        (result,) = comb_subtraction_experiment(config.preset(), gate, config.signal(),
                                                config.comb(), gate_orders=(gate.order,),
                                                config=config.grid())
        cond = result.condition
        ref = REFERENCES["points"][point_key(l_mm, w_um)]
        for key, value in (("K", cond.schmidt_number), ("lambda1", cond.lambdas_sq[0]),
                           ("purity", cond.purity)):
            assert abs(value - ref[key]) <= REL_TOL * abs(ref[key]), (key, w_um)


def test_pinned_kernel_dump_matches_its_reference(tmp_path, capsys):
    config = make_config(KERNEL_DUMP.name, seed=1)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([KERNEL_DUMP.command, "--config", str(path), "--output-dir", str(out)]) == 0
    assert KERNEL_DUMP.check(out, config, REFERENCES) == [None]
