"""The library calls the benchmark makes without going through the CLI.

``bench/freeze_refs.py`` and ``bench/layers.ladder`` call ``resolve``,
``build_kernel``, ``decompose`` on a ``KernelGrid``, ``conditioned_state``
and ``comb_subtraction_experiment(gate_orders=...)`` directly, so a change
to any of them shows here and not only when the benchmark runs.
"""

import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import freeze_refs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import KERNEL_DUMP_N  # noqa: E402


def test_conditioned_point():
    point = freeze_refs.conditioned_point(2.0, 110.0, 48)
    assert set(point) == {"K", "lambda1", "purity"}
    assert all(math.isfinite(v) for v in point.values())
    assert point["K"] >= 1.0
    assert 0.0 < point["lambda1"] <= 1.0 and 0.0 < point["purity"] <= 1.0


def test_kernel_dump_point():
    point = freeze_refs.kernel_dump_point(2.0, 110.0)
    assert point["rows"] == KERNEL_DUMP_N ** 3
    assert math.isfinite(point["sum_re2"]) and point["sum_re2"] > 0.0


def test_ladder_reports_every_metric():
    out = layers.ladder(spans.Tracer())
    assert set(out) == {f"{name}.n{n}" for name in layers.LADDER_METRICS
                        for n in layers.LADDER_SIZES}
    assert all(math.isfinite(v) and v >= 0.0 for v in out.values())
    assert all(out[f"kernel.array_mb.n{n}"] > 0.0 for n in layers.LADDER_SIZES)


def test_traced_sites_exist():
    # these three names are no longer looked up where SITES expects them,
    # so the tracer skips them; any other missing site is a layer the
    # benchmark would stop seeing
    with spans.Tracer().patched(layers.SITES) as missing:
        assert sorted(missing) == ["modesub.conditioning.build_kernel",
                                   "modesub.conditioning.hermite_gauss_values",
                                   "modesub.schmidt.build_kernel"]
