"""Run configuration: JSON ingestion, validation, defaults and resolution.

Configs use conventional lab units (nm, mm, um, degrees, nJ, MHz); values
convert to the internal fs/um/rad system when the artifact objects are
built.  Unknown keys are rejected, every reported error names the offending
field, and the fully resolved configuration is JSON-dumpable so a run can
be reproduced from its own metadata file.

Each key is written once, in :data:`_SCHEMA`: its default, its rule and its
doc.  A rule checks one given value and returns the value to store, an
``int`` for a count and any other number as given; defaults are constants
and are not re-checked.  A lab value's rule also checks that it stays
finite in internal units (``length_mm``, ``waist_mm``, ``rep_rate_mhz``,
the photon number of ``squeezing_db`` and the per-pulse share 1 /
``finesse``), so a value that would overflow names its own key; a width
whose nm -> fs conversion has no finite duration names its ``fwhm_nm``,
or the carrier it converts at (:func:`_resolve_width`).  A key may be null where its default is null
or a resolved config writes it as null (``comb.fwhm_nm``,
``crystal.preset`` of an inline crystal, ``comb.n_modes`` and
``comb.squeezing_db`` of a CSV comb), so a ``run_meta.json`` loads
again.  :func:`resolve` holds only the
rules that span keys: an inline crystal's required keys and its exclusion
with a named preset, the exclusive ``tau_fs``/``fwhm_nm`` pairs of the gate
and the comb, the keys each comb preset reads (``n_modes`` and
``squeezing_db`` for ``flat-40``, ``photons_csv`` for ``csv``; each is
required by its own preset and rejected beside the other), the scan axes,
and k'_c > k'_s > 0 at the cut and in the collinear limit, which the
crystal build reports under the two k' keys it compares.  Every given
key passes its own rule before any cross-key rule runs, so of two errors in
one config the per-key one is reported: a wrong-typed inline key given
alone names itself, not the inline keys it lacks.

The comb sets the signal's time scale: the signal beam's spectral tau is
the resolved ``comb.tau_fs``, the tau of the comb's Hermite-Gauss modes, so
the subtraction modes and the comb modes share one time scale and the Omega
box is sized from it (:func:`modesub.kernel.derive_grids`).  The signal
beam carries no comb count: only ``subtract`` samples the comb, and
:func:`~modesub.conditioning.comb_subtraction_experiment` takes the count
from the comb it is handed.

A scan point is the crystal, gate and signal beam it solves
(:class:`ScanPoint`).  What each scan variable sets is written once, in
:data:`_SCAN_SETTERS`: one value in lab units, set on one field of one of
the three objects, whose constructor checks it.  A resolved axis lists its
values: a ranged axis (``min``/``max``/``count``/``spacing``) resolves to
the points it samples, and :meth:`RunConfig.scan_points` folds the setters
over the row-major product of the axes.

:func:`resolve` checks a config by building what a command builds: the
crystal, every scan point and the comb.  A CSV comb's file is read then,
so a missing or malformed file is a :class:`ConfigError` naming
``comb.photons_csv`` before any output exists, and the resolved config
stores the file as an absolute path, so a ``run_meta.json`` replays from
any working directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .conditioning import CombState, comb_from_csv, flat_comb, photons_from_squeezing
from .dispersion import BBO_PHI_MAX_RAD, PRESETS, CrystalPreset, convert_bandwidth
from .kernel import (MIN_AXIS_POINTS, MIN_LOBE_POINTS, Q_ALIAS_TOL, GateSpec,
                     GridConfig, SignalBeamSpec)


class ConfigError(ValueError):
    """Configuration file is malformed; message names the field."""


# -- rules: each checks one given value and returns the value to store -------
def _number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


def _positive(value):
    if _number(value) <= 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def _non_negative(value):
    if _number(value) < 0:
        raise ValueError(f"must be >= 0, got {value!r}")
    return value


def _positive_times(factor: float):
    """A positive lab value that stays finite times ``factor``, its
    conversion to internal units."""
    def rule(value):
        if not math.isfinite(_positive(value) * factor):
            raise ValueError(f"{value!r} overflows in internal units (x {factor:g})")
        return value
    return rule


def _squeezing(value):
    photons_from_squeezing(_non_negative(value), finesse=1.0)  # rejects an overflow
    return value


def _finesse(value):
    """A positive finesse whose reciprocal, the per-pulse share, is finite."""
    if not math.isfinite(1.0 / _positive(value)):
        raise ValueError(f"1 / {value!r} overflows the per-pulse photon number")
    return value


def _int_at_least(low: int):
    def rule(value):
        if int(_number(value)) != value:
            raise ValueError(f"expected an integer, got {value!r}")
        if value < low:
            raise ValueError(f"must be >= {low}, got {value!r}")
        return int(value)
    return rule


def _string(value):
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _one_of(*choices):
    def rule(value):
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value
    return rule


def _optional(rule):
    return lambda value: None if value is None else rule(value)


def _phase_matchable(value):
    if abs(math.radians(_number(value))) >= BBO_PHI_MAX_RAD:
        raise ValueError(f"|phi| must be below the maximal phase-matchable angle "
                         f"{math.degrees(BBO_PHI_MAX_RAD):g} deg, got {value!r}")
    return value


def _axis_list(value):
    if not isinstance(value, list):
        raise ValueError("expected a list")
    if len(value) > 3:
        raise ValueError("at most 3 swept axes per run")
    return value


def _check(path: str, rule, value):
    try:
        return rule(value)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_OPT_NUMBER = _optional(_number)
_OPT_POSITIVE = _optional(_positive)
_GRID_SIZE = _int_at_least(MIN_AXIS_POINTS)
# the comb presets, each with the comb keys it reads; RunConfig.comb()
# ignores the others
_COMB_PRESET_KEYS = {"flat-40": ("n_modes", "squeezing_db"), "csv": ("photons_csv",)}

# (default, rule, description). None defaults mean "derived or optional".
_SCHEMA: dict[str, Any] = {
    "crystal": {
        "preset": ("bbo-phi1-co", _optional(_one_of(*PRESETS)),
                   "named preset; see `modesub preset list`"),
        "length_mm": (2.0, _positive_times(1e3), "crystal length [mm]"),
        "d_eff_pm_v": (2.0, _positive, "effective nonlinearity [pm/V], chi2 = 2 d_eff"),
        "name": (None, _optional(_string), "inline crystal: identifier"),
        "lambda_s_nm": (None, _OPT_POSITIVE, "inline crystal: signal/gate carrier [nm]"),
        "kp_s_fs_um": (None, _OPT_NUMBER,
                       "inline crystal: fundamental inverse group velocity [fs/um]"),
        "kp_c_fs_um": (None, _OPT_NUMBER,
                       "inline crystal: up-converted inverse group velocity [fs/um]"),
        "kp_c_collinear_fs_um": (None, _OPT_NUMBER,
                                 "inline crystal: collinear-limit kp_c [fs/um]"),
        "rho_deg": (None, _optional(_non_negative),
                    "inline crystal: walk-off angle [deg], positive"),
        "phi_deg": (None, _optional(_phase_matchable),
                    "inline crystal: signed non-collinear angle [deg]"),
        "theta_pm_deg": (None, _OPT_NUMBER,
                         "inline crystal: phase-matching angle [deg], metadata"),
        "n_s": (None, _OPT_POSITIVE, "inline crystal: signal refractive index"),
        "n_g": (None, _OPT_POSITIVE, "inline crystal: gate refractive index"),
        "n_c": (None, _OPT_POSITIVE, "inline crystal: up-converted refractive index"),
    },
    "gate": {
        "order": (0, _int_at_least(0), "Hermite-Gauss order of the gate spectrum"),
        "tau_fs": (94.0, _positive,
                   "gate amplitude duration [fs]; exclusive with fwhm_nm"),
        "fwhm_nm": (None, _OPT_POSITIVE,
                    "gate spectral intensity FWHM [nm]; exclusive with tau_fs"),
        "waist_mm": (1.0, _positive_times(1e3), "gate beam waist [mm]"),
        "energy_nj": (10.0, _positive, "gate pulse energy [nJ]"),
        "rep_rate_mhz": (80.0, _positive_times(1e6), "pulse repetition rate [MHz]"),
    },
    "signal": {
        "waist_um": (107.7, _positive, "signal beam waist [um]"),
    },
    "comb": {
        "preset": ("flat-40", _one_of(*_COMB_PRESET_KEYS),
                   "photon distribution: 'flat-40' or 'csv'"),
        "n_modes": (40, _optional(_int_at_least(1)),
                    "number of comb eigenmodes; preset 'flat-40' only"),
        "squeezing_db": (4.2, _optional(_squeezing),
                         "squeezing of the leading mode [dB]; preset 'flat-40' only"),
        "finesse": (40.0, _finesse, "cavity finesse (pulses per correlated train)"),
        "center_nm": (795.0, _positive, "comb carrier wavelength [nm]"),
        "fwhm_nm": (6.0, _OPT_POSITIVE,
                    "comb-mode intensity FWHM [nm], converted at center_nm; "
                    "exclusive with tau_fs; also the signal beam's time scale, "
                    "which sizes the Omega box"),
        "tau_fs": (None, _OPT_POSITIVE,
                   "comb-mode duration [fs]; resolved configs carry this; also "
                   "the signal beam's time scale, which sizes the Omega box"),
        "photons_csv": (None, _optional(_string),
                        "CSV path (index, N_comb) for preset 'csv'; a resolved "
                        "config stores it absolute"),
    },
    "grid": {
        "n_omega_c": (None, _optional(_GRID_SIZE),
                      "points on the up-converted frequency axis; null derives "
                      "Gauss-Legendre nodes, as many as the factors sampled on "
                      "the axis need (the phase matching, the gate and the "
                      "beam); a number gives uniform trapezoid points"),
        "n_q": (None, _optional(_GRID_SIZE),
                "points on the transverse momentum axis; null derives them "
                "from the beam's and the phase matching's bandwidth: the "
                f"largest step whose trapezoid aliases stay under {Q_ALIAS_TOL:g} "
                f"and under 1/{MIN_LOBE_POINTS:g} of the phase-matching lobe, "
                "over a span that holds the beam's drift"),
        "n_omega_s": (None, _optional(_GRID_SIZE),
                      "points on the signal frequency axis; null derives "
                      "Gauss-Legendre nodes, as for n_omega_c, and for the "
                      "comb's top mode too where `subtract` samples the comb"),
        "span_scale": (1.0, _positive,
                       "multiplier on the auto-derived Omega half-spans; the "
                       "q_c span holds the beam and its drift over them"),
        "phase_matching": ("sinc", _one_of("sinc", "gaussian"),
                           "'sinc' or 'gaussian' surrogate"),
    },
    "scan": {
        "axes": ([], _axis_list, "swept axes (at most 3), each {variable, values} or "
                 "{variable, min, max, count = 1, spacing = 'linear' | 'log'}; "
                 "values, a list, excludes the ranged keys; a resolved axis "
                 "lists its values"),
    },
    "output_dir": ("out", _string, "directory for emitted artifacts"),
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
    "l_mm": lambda p, v: replace(p, preset=replace(p.preset, length_um=v * 1e3)),
    "w_um": lambda p, v: replace(p, signal=replace(p.signal, waist_s_um=v)),
    "phi_deg": lambda p, v: replace(p, preset=replace(p.preset, phi=math.radians(v))),
    "gate_order": lambda p, v: replace(p, gate=replace(p.gate, order=v)),
}
_SCAN_VARIABLES = tuple(_SCAN_SETTERS)
_AXIS_KEYS = ("variable", "values", "min", "max", "count", "spacing")
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
                            for key, (default, _, doc) in body.items()}
        else:
            default, _, doc = body
            out[section] = {"default": default, "doc": doc}
    out["scan"]["axes"]["variables"] = list(_SCAN_VARIABLES)
    return out


def _resolve_width(name: str, section: dict, given: dict, carrier_um: float,
                   carrier_key: str) -> None:
    """Resolve a section's spectral width to tau_fs, in place.

    ``given`` is the section as written and ``section`` its merged copy.
    An fwhm_nm (given, or the default) converts at ``carrier_um``, read
    from ``carrier_key``, unless a tau_fs was given.  A conversion with no
    finite duration names the carrier when its square leaves the float
    range, else fwhm_nm.  fwhm_nm is then cleared: the canonical width is
    tau_fs in resolved configs.
    """
    if given.get("tau_fs") is not None and given.get("fwhm_nm") is not None:
        raise ConfigError(f"{name}.tau_fs / {name}.fwhm_nm: give exactly one "
                          "spectral width")
    if given.get("tau_fs") is None and section["fwhm_nm"] is not None:
        try:
            section["tau_fs"] = convert_bandwidth(section["fwhm_nm"], carrier_um)
        except ValueError as exc:
            key = (carrier_key if not 0 < carrier_um * carrier_um < math.inf
                   else f"{name}.fwhm_nm")
            raise ConfigError(f"{key}: {exc}") from None
    section["fwhm_nm"] = None


def _merge_section(name: str, given: dict | None) -> dict:
    """The section's defaults, with each given key checked by its rule."""
    spec = _SCHEMA[name]
    merged = {key: default for key, (default, _, _) in spec.items()}
    if given is None:
        return merged
    if not isinstance(given, dict):
        raise ConfigError(f"{name}: expected an object")
    for key, value in given.items():
        if key not in spec:
            raise ConfigError(f"{name}.{key}: unknown key")
        merged[key] = _check(f"{name}.{key}", spec[key][1], value)
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; `resolved` is the JSON-ready dict."""

    resolved: dict

    # -- builders -----------------------------------------------------------
    def preset(self) -> CrystalPreset:
        c = self.resolved["crystal"]
        if c["preset"] is not None:
            return replace(PRESETS[c["preset"]], d_eff_pm_v=c["d_eff_pm_v"],
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
        return GateSpec(order=g["order"], tau_g=g["tau_fs"],
                        waist_g_um=g["waist_mm"] * 1e3, energy_j=g["energy_nj"] * 1e-9,
                        rep_rate_hz=g["rep_rate_mhz"] * 1e6)

    def signal(self) -> SignalBeamSpec:
        return SignalBeamSpec(waist_s_um=self.resolved["signal"]["waist_um"],
                              spectral_tau_fs=self.resolved["comb"]["tau_fs"])

    def comb(self) -> CombState:
        c = self.resolved["comb"]
        tau_s = c["tau_fs"]
        if c["preset"] == "csv":
            try:
                return comb_from_csv(c["photons_csv"], tau_s_fs=tau_s,
                                     finesse=c["finesse"])
            except (OSError, ValueError) as exc:
                raise ConfigError(f"comb.photons_csv: {exc}") from exc
        try:
            return flat_comb(n_modes=c["n_modes"], squeezing_db=c["squeezing_db"],
                             finesse=c["finesse"], tau_s_fs=tau_s)
        except ValueError as exc:   # each passed its rule; their quotient overflowed
            raise ConfigError(f"comb.squeezing_db / comb.finesse: {exc}") from exc

    def grid(self) -> GridConfig:
        g = self.resolved["grid"]
        return GridConfig(n_omega_c=g["n_omega_c"], n_q=g["n_q"],
                          n_omega_s=g["n_omega_s"], span_scale=g["span_scale"],
                          phase_matching=g["phase_matching"])

    def scan_points(self) -> list[ScanPoint]:
        """The base point with each combination of axis values set on it,
        row-major over the listed axes (the last axis varies fastest).  A
        value its field rejects is a :class:`ConfigError` naming its axis."""
        points = [ScanPoint(self.preset(), self.gate(), self.signal())]
        for i, axis in enumerate(self.resolved["scan"]["axes"]):
            setter = _SCAN_SETTERS[axis["variable"]]
            try:
                points = [setter(p, v) for p in points for v in axis["values"]]
            except ValueError as exc:
                raise ConfigError(f"scan.axes[{i}] ({axis['variable']}): {exc}") from exc
        return points

    @property
    def output_dir(self) -> str:
        return self.resolved["output_dir"]


def resolve(raw: dict) -> RunConfig:
    """Validate a parsed config dict, fill documented defaults and build
    what a command builds (the crystal, every scan point and the comb), so
    a config that resolves can run."""
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
    output_dir, output_rule, _ = _SCHEMA["output_dir"]
    if "output_dir" in raw:
        output_dir = _check("output_dir", output_rule, raw["output_dir"])

    given_crystal = raw.get("crystal") or {}
    if any(given_crystal.get(k) is not None for k in _INLINE_REQUIRED):
        crystal["preset"] = given_crystal.get("preset")  # inline replaces the default
        for key in _INLINE_REQUIRED:
            if crystal[key] is None:
                raise ConfigError(f"crystal.{key}: required for an inline crystal")
    elif crystal["preset"] is None:
        raise ConfigError("crystal.preset: required unless an inline crystal is given")
    if crystal["preset"] is not None:
        # a named preset carries its own constants; RunConfig.preset() would
        # ignore these silently
        for key in _INLINE_REQUIRED + _INLINE_OPTIONAL:
            if crystal[key] is not None:
                raise ConfigError(f"crystal.{key}: inline-crystal key given beside "
                                  f"the named preset {crystal['preset']!r}")
        # carrier wavelength of the gate's nm -> fs conversion
        carrier_um, carrier_key = PRESETS[crystal["preset"]].lambda_s_um, "crystal.preset"
    else:
        carrier_um, carrier_key = crystal["lambda_s_nm"] * 1e-3, "crystal.lambda_s_nm"

    _resolve_width("gate", gate, raw.get("gate") or {}, carrier_um, carrier_key)
    given_comb = raw.get("comb") or {}
    for preset, keys in _COMB_PRESET_KEYS.items():
        for key in keys:
            if preset == comb["preset"]:
                if comb[key] in (None, ""):
                    raise ConfigError(f"comb.{key}: required for comb.preset = {preset!r}")
                continue
            if given_comb.get(key) is not None:
                raise ConfigError(f"comb.{key}: read only by comb.preset = {preset!r}, "
                                  f"not {comb['preset']!r}")
            comb[key] = None
    _resolve_width("comb", comb, given_comb, comb["center_nm"] * 1e-3, "comb.center_nm")
    if comb["tau_fs"] is None:
        raise ConfigError("comb.tau_fs / comb.fwhm_nm: give exactly one spectral width")
    if comb["preset"] == "csv":  # still read from the working directory
        comb["photons_csv"] = str(Path(comb["photons_csv"]).absolute())

    norm_axes = []
    for i, axis in enumerate(scan["axes"]):
        path = f"scan.axes[{i}]"
        if not isinstance(axis, dict):
            raise ConfigError(f"{path}: expected an object")
        unknown = set(axis) - set(_AXIS_KEYS)
        if unknown:
            raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
        var = axis.get("variable")
        if var not in _SCAN_VARIABLES:
            raise ConfigError(f"{path}.variable: must be one of {_SCAN_VARIABLES}")
        swept = [a["variable"] for a in norm_axes]
        if var in swept:
            raise ConfigError(f"{path}.variable: {var!r} is already swept by "
                              f"scan.axes[{swept.index(var)}]")
        if axis.get("values") is not None:
            ranged = [key for key in ("min", "max", "count", "spacing") if key in axis]
            if ranged:
                raise ConfigError(f"{path}: give values or min/max/count/spacing, "
                                  f"not both (got values and {ranged[0]})")
            if not isinstance(axis["values"], list) or not axis["values"]:
                raise ConfigError(f"{path}.values: expected a non-empty list")
            values = [float(_check(f"{path}.values[{j}]", _number, v))
                      for j, v in enumerate(axis["values"])]
        else:
            count = _check(f"{path}.count", _int_at_least(1), axis.get("count", 1))
            lo = float(_check(f"{path}.min", _number, axis.get("min")))
            hi = float(_check(f"{path}.max", _number, axis.get("max")))
            if count > 1 and not lo < hi:
                raise ConfigError(f"{path}: min must be < max for a swept axis")
            spacing = _check(f"{path}.spacing", _one_of("linear", "log"),
                             axis.get("spacing", "linear"))
            if spacing == "log" and lo <= 0:
                raise ConfigError(f"{path}.min: log spacing needs positive bounds")
            sample = np.geomspace if spacing == "log" else np.linspace
            values = [float(v) for v in sample(lo, hi, count)]
        norm_axes.append({"variable": var, "values": values})
    scan["axes"] = norm_axes

    resolved = {"crystal": crystal, "gate": gate, "signal": signal, "comb": comb,
                "grid": grid, "scan": scan, "output_dir": output_dir}
    config = RunConfig(resolved=resolved)
    # every field passed its own rule; k'_c > k'_s > 0, at the cut and in
    # the collinear limit, are the crystal rules that span keys, and only an
    # inline crystal can break them.  The error names the k'_c field.
    try:
        config.preset()
    except ValueError as exc:
        kp_c = "kp_c_collinear" if "kp_c_collinear" in str(exc) else "kp_c"
        raise ConfigError(f"crystal.kp_s_fs_um / crystal.{kp_c}_fs_um: {exc}") from exc
    # each builder names the key that fails it: its scan axis, comb.photons_csv
    config.scan_points()
    config.comb()
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
