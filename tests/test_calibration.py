"""Calibration sweep of the derived Omega node rule (opt-in).

Run with ``pytest -m calibration``; Tier-1 deselects the marker
(``addopts`` in ``pyproject.toml``).  Each case solves on the node counts
:func:`~modesub.kernel.omega_axis_size` derives and on twice them, and
holds the scan path's K and lambda_1 and the subtract path's K, lambda_1,
purity and probability to :data:`TOL` relative.  The cases are the grid
the rule was fitted on, 4 presets x l = 1, 2.5, 4 mm x w_s = 50, 110,
200 um x gate orders 0-2 x sinc and surrogate at tau_g = 94 fs, and 120
seeded random points that also vary l up to 6 mm, tau_g over 60-130 fs
and span_scale over 1-1.5, which move the gate's and the span's share of
the node count.  A change to the Omega spans or to the kernel's factors
re-checks the rule here.
"""

import itertools

import numpy as np
import pytest

from modesub.dispersion import PRESETS

from conftest import omega_rule_shifts

TOL = 5e-13


def _cases():
    """(preset, l, w_s, gate order, phase matching, tau_g, span_scale)."""
    grid = [(*case, 94.0, 1.0) for case in itertools.product(
        sorted(PRESETS), (1000.0, 2500.0, 4000.0), (50.0, 110.0, 200.0), (0, 1, 2),
        ("sinc", "gaussian"))]
    rng = np.random.default_rng(30)
    names = sorted(PRESETS)
    random = [(names[rng.integers(4)], float(rng.uniform(1000.0, 6000.0)),
               float(rng.uniform(50.0, 200.0)), int(rng.integers(3)),
               ("sinc", "gaussian")[rng.integers(2)], float(rng.uniform(60.0, 130.0)),
               float(rng.uniform(1.0, 1.5))) for _ in range(120)]
    return grid + random


CASES = _cases()


@pytest.mark.calibration
@pytest.mark.parametrize("case", CASES,
                         ids=[f"{p}-l{l:.0f}-w{w:.0f}-o{o}-{pm}-t{t:.0f}-x{x:.2f}"
                              for p, l, w, o, pm, t, x in CASES])
def test_rule_matches_the_2n_solve(case):
    _, shifts = omega_rule_shifts(*case)
    assert np.all(shifts <= TOL), shifts
