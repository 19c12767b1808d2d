"""Run configuration: JSON ingestion, validation, defaults and resolution.

Configs use conventional lab units (nm, mm, um, degrees, nJ, MHz); values
convert to the internal fs/um/rad system when the artifact objects are
built.  Unknown keys are rejected, every reported error names the offending
field, and the fully resolved configuration is JSON-dumpable so a run can
be reproduced from its own metadata file.

A scan point is the crystal, gate and signal beam it solves
(:class:`ScanPoint`).  What each scan variable sets is written once, in
:data:`_SCAN_SETTERS`: one value in lab units, set on one field of one of
the three objects, whose constructor checks it.  :func:`resolve` runs every
axis value through its setter on the base point, and
:meth:`RunConfig.scan_points` folds the setters over the row-major product
of the axes.  Checking one value at a time is enough: each setter changes
one field, and no constructor check reads two scanned fields, so values
that each pass on the base point pass in every combination.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .conditioning import CombState, comb_from_csv, flat_comb
from .dispersion import CrystalPreset, convert_bandwidth, preset_by_name
from .kernel import (MIN_AXIS_POINTS, MIN_LOBE_POINTS, Q_ALIAS_TOL, GateSpec,
                     GridConfig, SignalBeamSpec)
from .modes import HermiteGaussSpec


class ConfigError(ValueError):
    """Configuration file is malformed; message names the field."""


# (default, description). None defaults mean "derived or optional".
_SCHEMA: dict[str, dict[str, tuple[Any, str]]] = {
    "crystal": {
        "preset": ("bbo-phi1-co", "named preset; see `modesub preset list`"),
        "length_mm": (2.0, "crystal length [mm]"),
        "d_eff_pm_v": (2.0, "effective nonlinearity [pm/V], chi2 = 2 d_eff"),
        "name": (None, "inline crystal: identifier"),
        "lambda_s_nm": (None, "inline crystal: signal/gate carrier [nm]"),
        "kp_s_fs_um": (None, "inline crystal: fundamental inverse group velocity [fs/um]"),
        "kp_c_fs_um": (None, "inline crystal: up-converted inverse group velocity [fs/um]"),
        "kp_c_collinear_fs_um": (None, "inline crystal: collinear-limit kp_c [fs/um]"),
        "rho_deg": (None, "inline crystal: walk-off angle [deg], positive"),
        "phi_deg": (None, "inline crystal: signed non-collinear angle [deg]"),
        "theta_pm_deg": (None, "inline crystal: phase-matching angle [deg], metadata"),
        "n_s": (None, "inline crystal: signal refractive index"),
        "n_g": (None, "inline crystal: gate refractive index"),
        "n_c": (None, "inline crystal: up-converted refractive index"),
    },
    "gate": {
        "order": (0, "Hermite-Gauss order of the gate spectrum"),
        "tau_fs": (94.0, "gate amplitude duration [fs]; exclusive with fwhm_nm"),
        "fwhm_nm": (None, "gate spectral intensity FWHM [nm]; exclusive with tau_fs"),
        "waist_mm": (1.0, "gate beam waist [mm]"),
        "energy_nj": (10.0, "gate pulse energy [nJ]"),
        "rep_rate_mhz": (80.0, "pulse repetition rate [MHz]"),
    },
    "signal": {
        "waist_um": (107.7, "signal beam waist [um]"),
        "tau_fs": (None, "comb-mode duration [fs]; default follows comb"),
        "fwhm_nm": (None, "comb-mode intensity FWHM [nm]; exclusive with tau_fs"),
    },
    "comb": {
        "preset": ("flat-40", "photon distribution: 'flat-40' or 'csv'"),
        "n_modes": (40, "number of comb eigenmodes"),
        "squeezing_db": (4.2, "squeezing of the leading mode [dB]"),
        "finesse": (40.0, "cavity finesse (pulses per correlated train)"),
        "center_nm": (795.0, "comb carrier wavelength [nm]"),
        "fwhm_nm": (6.0, "comb-mode intensity FWHM [nm]; exclusive with tau_fs"),
        "tau_fs": (None, "comb-mode duration [fs]; resolved configs carry this"),
        "photons_csv": (None, "CSV path (index, N_comb) for preset 'csv'"),
    },
    "grid": {
        "n_omega_c": (128, "points on the up-converted frequency axis"),
        "n_q": (None, "points on the transverse momentum axis; null derives them "
                      "from the beam's and the phase matching's bandwidth: the "
                      f"largest step whose trapezoid aliases stay under {Q_ALIAS_TOL:g} "
                      f"and under 1/{MIN_LOBE_POINTS:g} of the phase-matching lobe, "
                      "over a span that holds the beam's drift"),
        "n_omega_s": (128, "points on the signal frequency axis"),
        "span_scale": (1.0, "multiplier on the auto-derived half-spans"),
        "phase_matching": ("sinc", "'sinc' or 'gaussian' surrogate"),
    },
    "scan": {
        "axes": ([], "swept axes: {variable, min, max, count, spacing}"),
    },
    "output_dir": ("out", "directory for emitted artifacts"),
}


@dataclass(frozen=True)
class ScanPoint:
    """One operating point of a scan: the built crystal, gate and signal
    beam it solves.  It equals the configured base point except in the
    fields its axes set (:data:`_SCAN_SETTERS`)."""

    preset: CrystalPreset
    gate: GateSpec
    signal: SignalBeamSpec


# what one scan-axis value, in lab units, sets on a point
_SCAN_SETTERS: dict[str, Callable[[ScanPoint, float], ScanPoint]] = {
    "l_mm": lambda p, v: replace(p, preset=p.preset.with_length(v * 1e3)),
    "w_um": lambda p, v: replace(p, signal=replace(p.signal, waist_s_um=v)),
    "phi_deg": lambda p, v: replace(p, preset=p.preset.with_phi(math.radians(v))),
    "gate_order": lambda p, v: replace(p, gate=replace(
        p.gate, spectral=replace(p.gate.spectral, order=v))),
}
_SCAN_VARIABLES = tuple(_SCAN_SETTERS)
_INLINE_REQUIRED = ("name", "lambda_s_nm", "kp_s_fs_um", "kp_c_fs_um",
                    "rho_deg", "phi_deg")
_INDICES = ("n_s", "n_g", "n_c")
_INLINE_OPTIONAL = ("kp_c_collinear_fs_um", "theta_pm_deg") + _INDICES


def schema() -> dict:
    """Machine-readable schema with defaults, for `config --schema`."""
    out: dict[str, Any] = {}
    for section, body in _SCHEMA.items():
        if isinstance(body, dict):
            out[section] = {key: {"default": default, "doc": doc}
                            for key, (default, doc) in body.items()}
        else:
            default, doc = body
            out[section] = {"default": default, "doc": doc}
    out["scan"]["axes"]["variables"] = list(_SCAN_VARIABLES)
    return out


def _require_number(value, path: str, *, positive: bool = False,
                    integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    return float(value)


def _check_one_width(name: str, given: dict) -> None:
    """Reject a section given both of its spectral widths."""
    if given.get("tau_fs") is not None and given.get("fwhm_nm") is not None:
        raise ConfigError(f"{name}.tau_fs / {name}.fwhm_nm: give exactly one "
                          "spectral width")


def _resolve_width(name: str, section: dict, given: dict, carrier_um: float) -> None:
    """Resolve a section's spectral width to tau_fs, in place.

    ``given`` is the section as written and ``section`` its merged copy.
    An fwhm_nm (given, or the default) converts at ``carrier_um`` unless a
    tau_fs was given.  fwhm_nm is then cleared: the canonical width is
    tau_fs in resolved configs.
    """
    _check_one_width(name, given)
    if given.get("tau_fs") is None and section["fwhm_nm"] is not None:
        section["tau_fs"] = convert_bandwidth(
            _require_number(section["fwhm_nm"], f"{name}.fwhm_nm", positive=True),
            carrier_um)
    section["fwhm_nm"] = None


def _merge_section(name: str, given: dict | None) -> dict:
    spec = _SCHEMA[name]
    merged = {key: default for key, (default, _) in spec.items()}
    if given is None:
        return merged
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object")
    for key, value in given.items():
        if key not in spec:
            raise ConfigError(f"{name}.{key}: unknown key")
        merged[key] = value
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; `resolved` is the JSON-ready dict."""

    resolved: dict

    # -- builders -----------------------------------------------------------
    def preset(self) -> CrystalPreset:
        c = self.resolved["crystal"]
        if c["preset"] is not None:
            return replace(preset_by_name(c["preset"]), d_eff_pm_v=c["d_eff_pm_v"],
                           length_um=c["length_mm"] * 1e3)
        return CrystalPreset(
            name=c["name"],
            lambda_s_um=c["lambda_s_nm"] * 1e-3,
            kp_s=c["kp_s_fs_um"],
            kp_c=c["kp_c_fs_um"],
            rho=math.radians(c["rho_deg"]),
            phi=math.radians(c["phi_deg"]),
            theta_pm=math.radians(c["theta_pm_deg"] or 0.0),
            **{key: c[key] for key in _INDICES if c[key] is not None},
            d_eff_pm_v=c["d_eff_pm_v"],
            length_um=c["length_mm"] * 1e3,
            kp_c_collinear=c["kp_c_collinear_fs_um"])

    def gate(self) -> GateSpec:
        g = self.resolved["gate"]
        return GateSpec(
            spectral=HermiteGaussSpec(order=g["order"], scale=g["tau_fs"]),
            waist_g_um=g["waist_mm"] * 1e3,
            energy_j=g["energy_nj"] * 1e-9,
            rep_rate_hz=g["rep_rate_mhz"] * 1e6)

    def signal(self) -> SignalBeamSpec:
        s = self.resolved["signal"]
        return SignalBeamSpec(waist_s_um=s["waist_um"], spectral_tau_fs=s["tau_fs"])

    def comb(self) -> CombState:
        c = self.resolved["comb"]
        tau_s = c["tau_fs"]
        if c["preset"] == "csv":
            return comb_from_csv(c["photons_csv"], tau_s_fs=tau_s,
                                 finesse=c["finesse"])
        return flat_comb(n_modes=c["n_modes"], squeezing_db=c["squeezing_db"],
                         finesse=c["finesse"], tau_s_fs=tau_s)

    def grid(self) -> GridConfig:
        g = self.resolved["grid"]
        return GridConfig(n_omega_c=g["n_omega_c"], n_q=g["n_q"],
                          n_omega_s=g["n_omega_s"], span_scale=g["span_scale"],
                          phase_matching=g["phase_matching"])

    def scan_points(self) -> list[ScanPoint]:
        """The base point with each combination of axis values set on it,
        row-major over the listed axes (the last axis varies fastest)."""
        base = ScanPoint(self.preset(), self.gate(), self.signal())
        axes = self.resolved["scan"]["axes"]
        setters = [_SCAN_SETTERS[axis["variable"]] for axis in axes]
        points = []
        for values in itertools.product(*map(_axis_values, axes)):
            point = base
            for setter, value in zip(setters, values):
                point = setter(point, value)
            points.append(point)
        return points

    @property
    def output_dir(self) -> str:
        return self.resolved["output_dir"]


def _axis_values(axis: dict) -> list[float]:
    """The values a normalized scan axis takes, in sweep order."""
    if axis.get("values") is not None:
        return list(axis["values"])
    sample = np.geomspace if axis["spacing"] == "log" else np.linspace
    return [float(v) for v in sample(axis["min"], axis["max"], axis["count"])]


def resolve(raw: dict) -> RunConfig:
    """Validate a parsed config dict and fill documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown key")

    crystal = _merge_section("crystal", raw.get("crystal"))
    gate = _merge_section("gate", raw.get("gate"))
    signal = _merge_section("signal", raw.get("signal"))
    comb = _merge_section("comb", raw.get("comb"))
    grid = _merge_section("grid", raw.get("grid"))
    scan = _merge_section("scan", raw.get("scan"))

    given_crystal = raw.get("crystal") or {}
    if any(given_crystal.get(k) is not None for k in _INLINE_REQUIRED):
        crystal["preset"] = given_crystal.get("preset")  # inline replaces the default
        for key in _INLINE_REQUIRED:
            if crystal.get(key) is None:
                raise ConfigError(f"crystal.{key}: required for an inline crystal")
    elif crystal["preset"] is None:
        raise ConfigError("crystal.preset: required unless an inline crystal is given")
    if crystal["preset"] is not None:
        if not isinstance(crystal["preset"], str):
            raise ConfigError(f"crystal.preset: expected a string, got "
                              f"{crystal['preset']!r}")
        try:
            # carrier wavelength of the nm -> fs conversions of gate and signal
            carrier_um = preset_by_name(crystal["preset"]).lambda_s_um
        except ValueError as exc:
            raise ConfigError(f"crystal.preset: {exc}") from exc
        # a named preset carries its own constants; RunConfig.preset() would
        # ignore these silently
        for key in _INLINE_REQUIRED + _INLINE_OPTIONAL:
            if crystal[key] is not None:
                raise ConfigError(f"crystal.{key}: inline-crystal key given beside "
                                  f"the named preset {crystal['preset']!r}")
    for key in _SCHEMA["crystal"]:
        if key not in ("preset", "name") and crystal[key] is not None:
            _require_number(crystal[key], f"crystal.{key}", positive=key in _INDICES)
    _require_number(crystal["length_mm"], "crystal.length_mm", positive=True)
    _require_number(crystal["d_eff_pm_v"], "crystal.d_eff_pm_v", positive=True)

    explicit_gate = raw.get("gate") or {}
    _check_one_width("gate", explicit_gate)   # reported before the other gate fields
    gate["order"] = int(_require_number(gate["order"], "gate.order", integer=True))
    if gate["order"] < 0:
        raise ConfigError("gate.order: must be >= 0")
    for key in ("waist_mm", "energy_nj", "rep_rate_mhz"):
        _require_number(gate[key], f"gate.{key}", positive=True)

    _require_number(comb["n_modes"], "comb.n_modes", positive=True, integer=True)
    comb["n_modes"] = int(comb["n_modes"])
    _require_number(comb["finesse"], "comb.finesse", positive=True)
    _require_number(comb["center_nm"], "comb.center_nm", positive=True)
    if _require_number(comb["squeezing_db"], "comb.squeezing_db") < 0:
        raise ConfigError("comb.squeezing_db: must be >= 0")
    if comb["preset"] not in ("flat-40", "csv"):
        raise ConfigError(f"comb.preset: unknown preset {comb['preset']!r}")
    if comb["photons_csv"] is not None and not isinstance(comb["photons_csv"], str):
        raise ConfigError("comb.photons_csv: expected a string")
    if comb["preset"] == "csv" and not comb["photons_csv"]:
        raise ConfigError("comb.photons_csv: required for comb.preset = 'csv'")
    _resolve_width("comb", comb, raw.get("comb") or {}, comb["center_nm"] * 1e-3)
    _require_number(comb["tau_fs"], "comb.tau_fs", positive=True)

    if crystal["preset"] is None:
        carrier_um = crystal["lambda_s_nm"] * 1e-3
    _resolve_width("gate", gate, explicit_gate, carrier_um)
    _require_number(gate["tau_fs"], "gate.tau_fs", positive=True)

    _resolve_width("signal", signal, raw.get("signal") or {}, carrier_um)
    if signal["tau_fs"] is None:
        signal["tau_fs"] = comb["tau_fs"]
    _require_number(signal["tau_fs"], "signal.tau_fs", positive=True)
    _require_number(signal["waist_um"], "signal.waist_um", positive=True)

    for key in ("n_omega_c", "n_q", "n_omega_s"):
        if key == "n_q" and grid[key] is None:
            continue   # derived from the signal beam
        grid[key] = int(_require_number(grid[key], f"grid.{key}", positive=True,
                                        integer=True))
        if grid[key] < MIN_AXIS_POINTS:
            raise ConfigError(f"grid.{key}: need at least {MIN_AXIS_POINTS} points, "
                              f"got {grid[key]}")
    _require_number(grid["span_scale"], "grid.span_scale", positive=True)
    if grid["phase_matching"] not in ("sinc", "gaussian"):
        raise ConfigError("grid.phase_matching: must be 'sinc' or 'gaussian'")

    axes = scan["axes"]
    if not isinstance(axes, list):
        raise ConfigError("scan.axes: expected a list")
    if len(axes) > 3:
        raise ConfigError("scan.axes: at most 3 swept axes per run")
    norm_axes = []
    for i, axis in enumerate(axes):
        path = f"scan.axes[{i}]"
        if not isinstance(axis, dict):
            raise ConfigError(f"{path}: expected an object")
        unknown = set(axis) - {"variable", "min", "max", "count", "spacing", "values"}
        if unknown:
            raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
        var = axis.get("variable")
        if var not in _SCAN_VARIABLES:
            raise ConfigError(f"{path}.variable: must be one of {_SCAN_VARIABLES}")
        if axis.get("values") is not None:
            if not isinstance(axis["values"], list) or not axis["values"]:
                raise ConfigError(f"{path}.values: expected a non-empty list")
            norm_axes.append({"variable": var, "values": [
                _require_number(v, f"{path}.values[{j}]")
                for j, v in enumerate(axis["values"])]})
            continue
        count = int(_require_number(axis.get("count", 1), f"{path}.count",
                                    positive=True, integer=True))
        lo = _require_number(axis.get("min"), f"{path}.min")
        hi = _require_number(axis.get("max"), f"{path}.max")
        if count > 1 and not lo < hi:
            raise ConfigError(f"{path}: min must be < max for a swept axis")
        spacing = axis.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing: must be 'linear' or 'log'")
        if spacing == "log" and lo <= 0:
            raise ConfigError(f"{path}.min: log spacing needs positive bounds")
        norm_axes.append({"variable": var, "min": lo, "max": hi,
                          "count": count, "spacing": spacing})
    scan["axes"] = norm_axes

    output_dir = raw.get("output_dir", _SCHEMA["output_dir"][0])
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")

    resolved = {"crystal": crystal, "gate": gate, "signal": signal, "comb": comb,
                "grid": grid, "scan": scan, "output_dir": output_dir}
    config = RunConfig(resolved=resolved)
    # fail configuration-time, not run-time, on invalid physics values
    try:
        base = ScanPoint(config.preset(), config.gate(), config.signal())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for i, axis in enumerate(norm_axes):
        setter = _SCAN_SETTERS[axis["variable"]]
        try:
            for value in _axis_values(axis):
                setter(base, value)
        except ValueError as exc:
            raise ConfigError(f"scan.axes[{i}] ({axis['variable']}): {exc}") from exc
    return config


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # a run_meta.json round-trips: accept its envelope transparently
    if isinstance(raw, dict) and "config" in raw and "tool" in raw:
        raw = raw["config"]
    return resolve(raw)
