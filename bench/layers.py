"""Per-layer metrics of the traced run.

The layers are the package's modules.  Each public function is wrapped
where its caller looks it up, e.g. ``build_kernel`` as seen from
``modesub.conditioning``, ``modesub.schmidt`` and ``modesub.scan``; nothing
under ``src/`` changes.  ``dispersion`` and ``analytic`` cost under 1% on
every workload and are not traced.

Time metrics are means over traced ops of per-op sums, so the self times
of all spans plus ``trace.remainder_s`` (op wall time not inside the
``cli.main`` span) add up to ``trace.op_s`` exactly.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from spans import Site, Span, self_times


def _kernel_attrs(args, kernel) -> dict:
    return {"samples": int(kernel.values.size), "nbytes": int(kernel.values.nbytes)}


def _gram_attrs(args, gram) -> dict:
    n_c, n_q, n_s = args[0].values.shape
    return {"flop": 8 * n_c * n_q * n_s * n_s}


def _decompose_attrs(args, result) -> dict:
    return {"modes_kept": int(result.modes.shape[0])}


def _condition_attrs(args, result) -> dict:
    return {"n_effective": int(result.overlap.shape[0])}


def _file_attrs(args, path) -> dict:
    return {"bytes": Path(path).stat().st_size}


def _sites(attr: str, span: str, callers: tuple[str, ...], attrs=None) -> list[Site]:
    return [Site(f"modesub.{caller}", attr, span, attrs) for caller in callers]


SITES = [
    *_sites("load_config", "config.load_config", ("cli",)),
    *_sites("run_scan", "scan.run_scan", ("cli",)),
    *_sites("write_condition_summary", "scan.write_condition_summary", ("cli",)),
    *_sites("write_kernel_csv", "scan.write_kernel_csv", ("cli",), _file_attrs),
    *_sites("schmidt_number_scan", "schmidt.schmidt_number_scan", ("scan",)),
    *_sites("comb_subtraction_experiment", "conditioning.comb_subtraction_experiment",
            ("scan",)),
    *_sites("build_kernel", "kernel.build_kernel", ("scan", "schmidt", "conditioning"),
            _kernel_attrs),
    *_sites("hermite_gauss_values", "modes.hermite_gauss_values",
            ("kernel", "conditioning")),
    *_sites("decompose", "schmidt.decompose", ("scan", "schmidt", "conditioning"),
            _decompose_attrs),
    *_sites("gram_matrix", "schmidt.gram_matrix", ("schmidt",), _gram_attrs),
    *_sites("conditioned_state", "conditioning.conditioned_state", ("conditioning",),
            _condition_attrs),
    *_sites("overlap_matrix", "conditioning.overlap_matrix", ("conditioning",)),
]

ROOT_SPAN = "cli.main"

# self-time metric -> spans whose self time it sums; together with
# trace.orchestration_self_s they partition the self time of an op
SELF_TIME = {
    "kernel.build_s": ("kernel.build_kernel",),
    "modes.hermite_gauss_s": ("modes.hermite_gauss_values",),
    "schmidt.gram_s": ("schmidt.gram_matrix",),
    "schmidt.decompose_self_s": ("schmidt.decompose",),
    "conditioning.condition_s": ("conditioning.conditioned_state",),
    "conditioning.overlap_s": ("conditioning.overlap_matrix",),
    "scan.emit_s": ("scan.run_scan", "scan.write_condition_summary"),
    "config.resolve_s": ("config.load_config",),
    "cli.self_s": (ROOT_SPAN,),
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def op_values(spans: list[Span], selft: dict[int, float]) -> dict[str, float]:
    """Layer values of one op from its spans."""
    def named(name):
        return [sp for sp in spans if sp.name == name]

    out = {metric: sum(selft[sp.id] for sp in spans if sp.name in names)
           for metric, names in SELF_TIME.items()}
    out["trace.orchestration_self_s"] = (sum(selft[sp.id] for sp in spans)
                                         - sum(out.values()))
    kernels, grams = named("kernel.build_kernel"), named("schmidt.gram_matrix")
    samples = sum(sp.attrs.get("samples", 0) for sp in kernels)
    kernel_s = sum(sp.duration for sp in kernels)
    out.update({
        "kernel.calls": len(kernels),
        "kernel.samples": samples,
        "kernel.array_mb": max((sp.attrs.get("nbytes", 0) for sp in kernels),
                               default=0) / 1e6,
        "kernel.ns_per_sample": kernel_s / samples * 1e9 if samples else 0.0,
        "modes.hermite_gauss_calls": len(named("modes.hermite_gauss_values")),
        "schmidt.gram_gflop": sum(sp.attrs.get("flop", 0) for sp in grams) / 1e9,
        "schmidt.modes_kept": _mean(sp.attrs["modes_kept"]
                                    for sp in named("schmidt.decompose")
                                    if "modes_kept" in sp.attrs),
        "conditioning.n_effective": _mean(sp.attrs["n_effective"]
                                          for sp in named("conditioning.conditioned_state")
                                          if "n_effective" in sp.attrs),
        "kernel_gram_s": kernel_s + sum(sp.duration for sp in grams),
    })
    return out


def point_times(spans: list[Span]) -> list[float]:
    """Wall time of each scan point: from its kernel build to the next one.

    A serial scan evaluates point i between the start of its
    ``build_kernel`` and the start of point i + 1 (or the scan's end).
    """
    times = []
    for scan in (sp for sp in spans if sp.name == "schmidt.schmidt_number_scan"):
        starts = sorted(sp.start for sp in spans
                        if sp.name == "kernel.build_kernel" and sp.parent == scan.id)
        ends = starts[1:] + [scan.end]
        times += [b - a for a, b in zip(starts, ends)]
    return times


def traced_metrics(spans: list[Span], op_wall: dict, untraced_wall: list[float],
                   points_failed: dict) -> dict[str, float]:
    """Per-layer metrics over the traced ops ``op_wall`` (op id -> seconds)."""
    selft = self_times(spans)
    by_op = {op: [] for op in op_wall}
    for sp in spans:
        if sp.op in by_op:
            by_op[sp.op].append(sp)
    per_op = [op_values(by_op[op], selft) for op in op_wall]
    metrics = {name: _mean(v[name] for v in per_op) for name in per_op[0]}
    op_s = _mean(op_wall.values())
    metrics["trace.op_s"] = op_s
    metrics["trace.op_s_untraced"] = _mean(untraced_wall)
    metrics["trace.overhead_s"] = op_s - metrics["trace.op_s_untraced"]
    metrics["trace.remainder_s"] = _mean(
        wall - sum(selft[sp.id] for sp in by_op[op]) for op, wall in op_wall.items())
    metrics["trace.kernel_gram_share"] = metrics.pop("kernel_gram_s") / op_s
    points = point_times([sp for op in op_wall for sp in by_op[op]])
    metrics["scan.point_s.p50"] = statistics.median(points) if points else 0.0
    metrics["scan.point_s.max"] = max(points, default=0.0)
    metrics["scan.points_failed"] = _mean(points_failed[op] for op in op_wall)
    return metrics


def dump_metrics(spans: list[Span], dump_wall: dict) -> dict[str, float]:
    """CSV-writer metrics of the kernel dumps ``dump_wall`` (op id -> seconds).

    Neither workload writes the kernel CSV, so each traced run dumps the
    64^3 kernel itself; the metrics carry the ladder's ``.n64`` suffix.
    """
    selft = self_times(spans)
    writes = [sp for sp in spans
              if sp.op in dump_wall and sp.name == "scan.write_kernel_csv"]
    csv_s = sum(selft[sp.id] for sp in writes) / len(dump_wall)
    csv_mb = sum(sp.attrs.get("bytes", 0) for sp in writes) / 1e6 / len(dump_wall)
    return {"scan.kernel_csv_s.n64": csv_s,
            "scan.kernel_csv_mb.n64": csv_mb,
            "scan.kernel_csv_mb_per_s.n64": csv_mb / csv_s if csv_s else 0.0,
            "trace.kernel_csv_share.n64": csv_s / _mean(dump_wall.values())}


LADDER_SIZES = (64, 128, 192)
LADDER_REPS = 3
LADDER_METRICS = ("kernel.build_s", "schmidt.gram_s", "schmidt.decompose_self_s",
                  "conditioning.condition_s", "kernel.array_mb")


def ladder(tracer) -> dict[str, float]:
    """Time the chain's layers directly at the default point, per grid size.

    Calls build_kernel, decompose (whose gram_matrix is traced as a child)
    and conditioned_state in sequence, LADDER_REPS times per size, and
    reports the median of each layer metric as ``<metric>.n<size>``.
    """
    from modesub.conditioning import conditioned_state
    from modesub.config import resolve
    from modesub.kernel import build_kernel
    from modesub.schmidt import decompose

    out = {}
    for n in LADDER_SIZES:
        config = resolve({"grid": {"n_omega_c": n, "n_q": n, "n_omega_s": n}})
        preset, gate, signal, comb = (config.preset(), config.gate(), config.signal(),
                                      config.comb())
        reps = []
        with tracer.patched(SITES):
            for rep in range(LADDER_REPS):
                tracer.op = f"ladder-n{n}-{rep}"
                first = len(tracer.spans)
                with tracer.span("kernel.build_kernel") as sp:
                    kernel = build_kernel(preset, gate, signal, config.grid())
                sp.attrs.update(_kernel_attrs((), kernel))
                with tracer.span("schmidt.decompose"):
                    schmidt = decompose(kernel)
                del kernel
                with tracer.span("conditioning.conditioned_state"):
                    conditioned_state(schmidt, comb, preset, gate)
                spans = tracer.spans[first:]
                reps.append(op_values(spans, self_times(spans)))
        tracer.op = None
        for name in LADDER_METRICS:
            out[f"{name}.n{n}"] = statistics.median(r[name] for r in reps)
    return out
