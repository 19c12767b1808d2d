#!/usr/bin/env python3
"""Benchmark of the modesub CLI: one closed-loop client, one op in flight.

Run from the repository root:

    python3 bench/run.py --workload subtract --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Each op is one in-process call of ``modesub.cli.main`` on a config the seed
generates (see ``workloads.py``).  The next op starts when the previous
one has returned and its outputs have been checked against frozen
references; checking runs outside the timed window.  BLAS threads stay at
the environment's defaults and are recorded; ``--threads`` is not passed.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``layers.py`` (traced and untraced
ops alternate, so the tracing overhead is measured in the same run).  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A full result file with the environment block is written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from layers import ROOT_SPAN, SITES, dump_metrics, ladder, traced_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (KERNEL_DUMP, WORKLOADS, Workload, load_references,  # noqa: E402
                       make_config)

SETUP_REPS = 9
# kernel dumps per traced run; they measure the CSV writer, which neither
# workload calls
DUMP_REPS = 2
TAIL_MIN_BEYOND = 10
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
# stop starting new ops this long after start, so a run ends within 180 s
# even when ops run far slower than usual
WALL_CAP_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOAD = "closed loop, 1 client, 1 op in flight"

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import modesub.cli
from modesub.config import load_config
load_config(sys.argv[2])
print(time.monotonic())
"""


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def import_cli():
    """``modesub.cli`` from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import modesub.cli
    except ImportError as exc:
        raise BenchError(f"cannot import modesub from {SRC}: {exc}") from exc
    if not Path(modesub.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"modesub imported from {modesub.cli.__file__}, not {SRC}")
    return modesub.cli


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least TAIL_MIN_BEYOND ops beyond it.

    Nearest-rank percentiles from the ladder TAIL_PERMILLE; None when even
    the median has fewer ops beyond it.
    """
    n = len(times)
    ordered = sorted(times)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": permille / 10, "value": ordered[rank - 1],
                    "beyond": n - rank, "ops": n}
    return None


def blas_threads(numpy) -> int | None:
    """Threads the OpenBLAS bundled in a numpy wheel will use, if it is one."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": blas_threads(numpy),
           "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "platform": platform.platform(),
           **{var: os.environ.get(var) for var in THREAD_VARS},
           "git_commit": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return env
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def measure_setup(cfg_path: Path) -> float:
    """Fresh interpreter start until modesub is imported and the config resolved."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def run_op(cli, argv: list[str], tracer: Tracer | None) -> tuple[float, str | None]:
    """Wall time of one ``main(argv)`` call and why it failed (None if it did not)."""
    sink = io.StringIO()
    root = tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), root:
            code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue()[-300:]}"
    except (Exception, SystemExit) as exc:  # any raise is a failed op
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def load_spec() -> dict:
    """Metric names and units, and each workload's reason, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "why": {w["name"]: w["why"] for w in spec["workloads"]}}


@dataclass
class Job:
    """One workload's config on disk and the CLI call that runs it."""

    workload: Workload
    config: dict
    cfg_path: Path
    out_dir: Path

    @classmethod
    def create(cls, workload: Workload, seed: int, work: Path) -> "Job":
        config = make_config(workload.name, seed)
        cfg_path = work / f"{workload.name}.json"
        cfg_path.write_text(json.dumps(config))
        return cls(workload, config, cfg_path, work / workload.name)

    @property
    def argv(self) -> list[str]:
        return [self.workload.command, "--config", str(self.cfg_path),
                "--output-dir", str(self.out_dir)]


def checked_op(cli, job: Job, refs: dict, tracer: Tracer | None, op_id) -> dict:
    """Run one op (traced when a tracer is given), then check its outputs."""
    missing = []
    if tracer is None:
        wall, error = run_op(cli, job.argv, None)
    else:
        with tracer.patched(SITES) as missing:
            tracer.op = op_id
            wall, error = run_op(cli, job.argv, tracer)
            tracer.op = None
    units = job.workload.units_per_op
    if error is None:
        try:
            results = job.workload.check(job.out_dir, job.config, refs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results = [f"output check: {type(exc).__name__}: {exc}"] * units
    else:
        results = [error] * units
    return {"id": op_id, "wall": wall, "traced": tracer is not None, "units": units,
            "failures": [r for r in results if r is not None], "missing": missing}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the extra figures."""
    started = time.monotonic()
    cli = import_cli()
    spec = load_spec()
    refs = load_references()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        job = Job.create(WORKLOADS[name], seed, work)
        tracer = Tracer() if trace else None
        setup = []
        ops = [checked_op(cli, job, refs, None, 0)]  # warm-up: checked, counted, not timed
        timed = 0.0
        while timed < seconds and time.monotonic() - started < WALL_CAP_S:
            # set-up probes are spread over the run, outside the timed window,
            # so their median does not hinge on the machine's state at one moment
            if not trace and len(setup) < SETUP_REPS * timed / seconds:
                setup.append(measure_setup(job.cfg_path))
            # a traced run alternates traced and untraced ops
            traced = trace and len(ops) % 2 == 1
            ops.append(checked_op(cli, job, refs, tracer if traced else None, len(ops)))
            timed += ops[-1]["wall"]
        timed_ops = ops[1:]

        if trace:
            dump_job = Job.create(KERNEL_DUMP, seed, work)
            dumps = [checked_op(cli, dump_job, refs, tracer, f"dump-{rep}")
                     for rep in range(DUMP_REPS)]
            values = traced_metrics(
                tracer.spans, {op["id"]: op["wall"] for op in timed_ops if op["traced"]},
                [op["wall"] for op in timed_ops if not op["traced"]],
                {op["id"]: len(op["failures"]) for op in timed_ops})
            values.update(dump_metrics(tracer.spans, {op["id"]: op["wall"] for op in dumps}))
            values.update(ladder(tracer))
            ops += dumps
        else:
            while len(setup) < SETUP_REPS:
                setup.append(measure_setup(job.cfg_path))
            op_times = [op["wall"] for op in timed_ops]
            values = {"setup_s": statistics.median(setup),
                      "op_s": statistics.median(op_times),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      * 1024 / 1e6}

        attempted = sum(op["units"] for op in ops)
        failed = sum(min(len(op["failures"]), op["units"]) for op in ops)
        units = spec["per_layer" if trace else "end_to_end"]
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}
        extra = {"ops_timed": len(timed_ops), "fail_frac": failed / attempted}
        if trace:
            extra["missing_sites"] = sorted({m for op in ops for m in op["missing"]})
        else:
            extra.update({"op_s.tail": tail(op_times), "setup_s.samples": setup,
                          "op_s.samples": op_times})
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{tag}.json").write_text(json.dumps({
            "workload": name, "why": spec["why"][name], "seed": seed, "seconds": seconds,
            "trace": trace, "load": LOAD, "config": job.config,
            "environment": environment(), **result, "extra": extra, "all_values": values,
            "failures": [f for op in ops for f in op["failures"]][:20]}, indent=1) + "\n")
        if trace:
            tracer.dump(OUT / f"spans-{tag}.jsonl")
        return result, extra
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_lines(result: dict, extra: dict) -> list[str]:
    """Every metric by name with its unit, plus fail_frac and the tail."""
    lines = [f"load: {LOAD}; ops timed: {extra['ops_timed']}",
             f"fail_frac = {extra['fail_frac']:.6g} 1 "
             f"({result['failed']} of {result['attempted']} units)"]
    if extra.get("op_s.tail"):
        t = extra["op_s.tail"]
        lines.append(f"op_s.tail = {t['value']:.6g} s (p{t['percentile']:g}, "
                     f"{t['beyond']} of {t['ops']} ops beyond)")
    lines += [f"{metric} = {m['value']:.6g} {m['unit']}"
              for metric, m in result["metrics"].items()]
    return lines


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"{name} failed: {proc.stderr.strip()[-500:]}")
        *lines, last = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"{name:14s} {line}")
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="modesub benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result, extra = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(report_lines(result, extra)))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
