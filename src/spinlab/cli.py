"""Batch front end: parameter sweeps, estimation runs, and map exports.

Each subcommand writes one primary output table (CSV by default, JSON on
request) plus a JSON sidecar recording the effective configuration, the
package version and the wall time.  Identical configuration and seed
reproduce the primary output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__
from .dynamics import EvolutionSpec, _spectrum, _su11, oat_evolve
from .estimation import MeasurementModel, estimate, sample
from .metrology import (
    _cross,
    entanglement_depth_bound,
    optimal_generator_direction,
    pair_qfi_sx,
    perpendicular_qfi,
    sensitivity_floors,
    squeezing,
    witnesses,
)
from .reference import bjj_regime_predictions, oat_closed_forms, protocol_formulas
from .spinspace import make_space
from .states import (
    _count_moments,
    bjj_ground_state,
    coherent,
    dicke,
    noon,
    spin_mixing_ground_state,
    twin_fock,
    w_state,
)
from .tomography import QuasiProbMap, _write_map_csv, quasiprobability

_STOCHASTIC = ("estimate",)
_STATE_MENU = ("coherent", "oat", "dicke", "twin-fock", "noon", "w")


class _ArgError(Exception):
    """Bad command-line or config-file input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse hook; keep diagnostics one-line
        raise _ArgError(message)


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("count must be at least 1")
    return n


def _parse_range(text: str) -> np.ndarray:
    """Inclusive grid 'start:stop:count'."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError("expected start:stop:count")
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("endpoints must be finite")
    return np.linspace(start, stop, _count(parts[2]))


@dataclass(frozen=True)
class _Opt:
    name: str
    conv: type | None = None  # None keeps the raw string
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON = (
    _Opt("output", None, help="primary output path (default <subcommand>.<format>)"),
    _Opt("format", None, "csv", choices=("csv", "json"), help="primary output format"),
    _Opt("config", None, help="flat key=value config file; flags take precedence"),
    _Opt("threads", int, help="recorded in the sidecar; starts no threads, never changes results"),
    _Opt("seed", int, help="RNG seed; required for stochastic subcommands"),
)

_OPTS = {
    "oat-sweep": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("chit", _parse_range, required=True, help="chi*t grid start:stop:count"),
    ),
    "bjj-ground": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("lambda", _parse_range, required=True, help="Lambda grid start:stop:count"),
        _Opt("delta-e", float, 0.0, help="tilt between the wells"),
    ),
    "spin-mixing": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("q", _parse_range, help="quadratic Zeeman grid (ground-state sweep)"),
        _Opt("t", _parse_range, help="time grid; switches to dynamics at fixed q"),
        _Opt("q0", float, 0.0, help="quadratic Zeeman value for the dynamics mode"),
        _Opt("lam-sign", int, -1, choices=(-1, 1), help="sign of the collision term"),
    ),
    "su11": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("q", float, required=True, help="quadratic Zeeman shift"),
        _Opt("tmix", float, required=True, help="duration of each mixing stage"),
        _Opt("theta", _parse_range, required=True, help="pump phase grid"),
        _Opt("lam-sign", int, -1, choices=(-1, 1), help="sign of the collision term"),
    ),
    "estimate": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("method", None, "mle", choices=("mle", "moments", "bayes")),
        _Opt("nu", int, required=True, help="measurements per repetition"),
        _Opt("reps", _count, 1, help="independent repetitions"),
        _Opt("theta-true", float, 0.02, help="true phase"),
        _Opt("window", _parse_range, "-0.3:0.3:601", help="model grid start:stop:count"),
    ),
    "tomography": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("state", None, "coherent", choices=_STATE_MENU),
        _Opt("kind", None, "q", choices=("p", "w", "q")),
        _Opt("theta0", float, 0.0, help="coherent-state polar angle"),
        _Opt("phi0", float, 0.0, help="coherent-state azimuth"),
        _Opt("chit", float, 0.1, help="chi*t for the oat state"),
        _Opt("m", float, 0.0, help="projection for the dicke state"),
        _Opt("ntheta", int, help="polar grid size (default 2N+2)"),
        _Opt("nphi", int, help="azimuthal grid size (default 2N+2)"),
    ),
    "witness": (
        _Opt("n", int, required=True, help="particle number"),
        _Opt("state", None, "oat", choices=_STATE_MENU),
        _Opt("chit", _parse_range, "0.05:0.5:10", help="chi*t grid for the oat state"),
        _Opt("theta0", float, 0.0, help="coherent-state polar angle"),
        _Opt("phi0", float, 0.0, help="coherent-state azimuth"),
        _Opt("m", float, 0.0, help="projection for the dicke state"),
    ),
    "floors": (
        _Opt("n", _parse_range, required=True, help="particle-number grid"),
        _Opt("eta", float, 1.0, help="detector quantum efficiency"),
        _Opt("sigma-pn", float, 0.0, help="collective phase-noise width"),
        _Opt("nu", float, 1.0, help="repetitions entering the floors"),
    ),
}


def _read_config(path: str) -> dict:
    table = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _ArgError(f"config line without '=': {line!r}")
                key, _, value = line.partition("=")
                table[key.strip()] = value.strip()
    except OSError as exc:
        raise _ArgError(f"cannot read config file: {exc}") from exc
    return table


def _effective(ns: argparse.Namespace, opts) -> tuple[dict, dict]:
    """Merge flags over config-file entries over defaults."""
    cfg = _read_config(ns.config) if ns.config else {}
    values, raw_used = {}, {}
    for opt in opts:
        raw = getattr(ns, opt.dest, None)
        if raw is None:
            raw = cfg.get(opt.name)
        if raw is None:
            if opt.required:
                raise _ArgError(f"missing required option --{opt.name}")
            raw = opt.default
        if raw is None:
            values[opt.dest] = None
            continue
        raw = str(raw)
        raw_used[opt.name] = raw
        if opt.choices and raw not in tuple(str(c) for c in opt.choices):
            raise _ArgError(f"--{opt.name} must be one of {', '.join(map(str, opt.choices))}")
        try:
            values[opt.dest] = opt.conv(raw) if opt.conv is not None else raw
        except (TypeError, ValueError) as exc:
            raise _ArgError(f"bad value for --{opt.name}: {raw!r} ({exc})") from exc
    return values, raw_used


def _resolve_threads(value) -> int:
    if value is None:
        env = os.environ.get("SPINLAB_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError as exc:
            raise _ArgError(f"bad value for SPINLAB_THREADS: {env!r}") from exc
    if value < 1:
        raise _ArgError("threads must be at least 1")
    return value


def _nan_if_none(value) -> float:
    return math.nan if value is None else float(value)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_oat_sweep(p):
    space = make_space(p["n"])
    probe = coherent(space, 0.5 * math.pi, 0.0)

    def point(chi_t):
        state = oat_evolve(probe, chi_t)
        report = squeezing(state)
        # restricted to the plane orthogonal to the initial mean spin, like the closed form
        fq = perpendicular_qfi(state, mean_axis=(1.0, 0.0, 0.0))
        closed = oat_closed_forms(p["n"], chi_t)
        return (
            chi_t,
            report.xi_r2 if report.xi_r2 is not None else math.inf,
            closed.xi_r2,
            fq,
            p["n"] * closed.fq_over_n,
            report.contrast,
        )

    cols = ("chit", "xiR2_numeric", "xiR2_closed", "fq_numeric", "fq_closed", "contrast")
    return cols, [point(chi_t) for chi_t in p["chit"]], None


def _cmd_bjj_ground(p):
    space = make_space(p["n"])

    def point(lam):
        gs = bjj_ground_state(space, lam, p["delta_e"])
        report = squeezing(gs)
        fq = optimal_generator_direction(gs)[1]
        pred = bjj_regime_predictions(p["n"], lam)
        xi = report.xi_r2
        return (
            lam,
            _nan_if_none(xi),
            1.0 / xi if xi else math.nan,
            fq / p["n"],
            pred.regime,
            _nan_if_none(pred.xi_r2),
            _nan_if_none(pred.fq_over_n),
        )

    cols = ("lambda", "xiR2", "inv_xiR2", "fq_over_n", "regime", "xiR2_pred", "fq_over_n_pred")
    return cols, [point(lam) for lam in p["lambda"]], None


def _cmd_spin_mixing(p):
    n, sign = p["n"], p["lam_sign"]
    if p["t"] is not None:
        q0 = p["q0"]
        EvolutionSpec(kind="spin_mixing", q=q0, lam_sign=sign, t=0.0)  # checks q0 as _su11 checks q
        prop = _spectrum(n, float(q0), float(sign))
        t, k = p["t"], np.arange(prop.energies.size)
        amps = prop.apply(k == 0, t)  # every time starts from the k = 0 vacuum: one (K, T) block
        pair_mean, pair_var = _count_moments(amps.real**2 + amps.imag**2, 2.0 * k)
        side = 0.5 * pair_mean
        formulas = protocol_formulas()
        alpha = q0 + sign * (2.0 * n - 1.0)
        beta = 2.0 * sign * n
        bogo = [formulas.bogoliubov_pair_population(alpha, beta, x) for x in t]
        cols = ("t", "nside_mean", "nside_bogoliubov", "npair_var", "depletion")
        return cols, list(zip(t, side, bogo, pair_var, 2.0 * side / n)), None

    if p["q"] is None:
        raise _ArgError("spin-mixing needs either --q (ground sweep) or --t (dynamics)")

    def point(q):
        gs = spin_mixing_ground_state(n, q, sign)
        mean, var = gs.pair_population()
        return (q, mean, var, pair_qfi_sx(gs) / n)

    cols = ("q", "npair_mean", "npair_var", "fq_sx_over_n")
    return cols, [point(q) for q in p["q"]], None


def _cmd_su11(p):
    table, scattered = _su11(p["n"], p["lam_sign"], p["q"], p["tmix"], p["theta"])
    formulas = protocol_formulas()
    theta, mean, var = table[:, 0], table[:, 1], table[:, 2]
    slope = np.gradient(mean, theta) if theta.size > 1 else np.zeros(1)
    rows = []
    for i in range(theta.size):
        dtheta_m = math.sqrt(var[i]) / abs(slope[i]) if slope[i] else math.inf
        closed = formulas.su11_sensitivity(scattered, theta[i]) if scattered > 0 else math.nan
        rows.append((theta[i], mean[i], var[i], dtheta_m, closed))
    cols = ("theta", "npair_mean", "npair_var", "delta_theta_moments", "delta_theta_closed")
    return cols, rows, None


def _cmd_estimate(p):
    space = make_space(p["n"])
    model = MeasurementModel(
        probe=coherent(space, 0.5 * math.pi, 0.0),
        generator_axis=(0.0, 1.0, 0.0),
        pipeline=(),
        measurement_axis=(0.0, 0.0, 1.0),
        theta_grid=p["window"],
    )

    def point(rep):
        rep_seed = p["seed"] + rep
        draws = sample(model, p["theta_true"], p["nu"], rep_seed)
        result = estimate(draws, model, p["method"])
        lo, hi = result.interval if result.interval is not None else (math.nan, math.nan)
        return (rep, rep_seed, result.theta_hat, result.uncertainty, lo, hi)

    cols = ("rep", "seed", "theta_hat", "uncertainty", "interval_lo", "interval_hi")
    return cols, [point(rep) for rep in range(p["reps"])], None


def _build_state(p, space):
    kind = p["state"]
    if kind == "coherent":
        return coherent(space, p["theta0"], p["phi0"])
    if kind == "oat":
        return oat_evolve(coherent(space, 0.5 * math.pi, 0.0), p["chit"])
    if kind == "dicke":
        return dicke(space, p["m"])
    if kind == "twin-fock":
        return twin_fock(space)
    if kind == "noon":
        return noon(space)
    return w_state(space)


def _cmd_tomography(p):
    space = make_space(p["n"])
    state = _build_state(p, space)
    qmap = quasiprobability(state, p["kind"], p["ntheta"], p["nphi"])
    meta = {
        "kind": qmap.kind,
        "n_theta": int(qmap.theta.size),
        "n_phi": int(qmap.phi.size),
        "sphere_integral": qmap.sphere_integral(),
    }
    return ("theta", "phi", "value"), qmap, meta


def _witness_axes(report):
    """Low-variance axis first, mean-spin axis second, as witnesses() expects."""
    n1 = np.asarray(report.squeezing_axis, dtype=float)
    if report.mean_spin_axis is not None:
        n2 = np.asarray(report.mean_spin_axis, dtype=float)
    else:
        seed = (1.0, 0.0, 0.0) if abs(n1[0]) < 0.9 else (0.0, 0.0, 1.0)
        n2 = _cross(n1.tolist(), seed)
        n2 /= np.linalg.norm(n2)
    n3 = _cross(n1.tolist(), n2.tolist())
    n3 /= np.linalg.norm(n3)
    return tuple(n1), tuple(n2), tuple(n3)


def _cmd_witness(p):
    n = p["n"]
    space = make_space(n)

    def wrow(pair):
        chi_t, state = pair
        report = squeezing(state)
        fq = optimal_generator_direction(state)[1]
        wit = witnesses(state, *_witness_axes(report))
        return (
            chi_t,
            _nan_if_none(report.xi_r2),
            fq / n,
            entanglement_depth_bound(fq, n),
            wit.residual_a,
            wit.residual_b,
            wit.residual_c,
            wit.residual_d,
            wit.pairwise_value,
            wit.bell_w,
            wit.bell_tilt,
        )

    if p["state"] == "oat":
        probe = coherent(space, 0.5 * math.pi, 0.0)
        items = [(ct, oat_evolve(probe, ct)) for ct in p["chit"]]
    else:
        items = [(math.nan, _build_state(p, space))]
    cols = (
        "chit",
        "xiR2",
        "fq_over_n",
        "depth_bound",
        "res_a",
        "res_b",
        "res_c",
        "res_d",
        "pairwise",
        "bell_w",
        "bell_tau",
    )
    return cols, [wrow(item) for item in items], None


def _cmd_floors(p):
    def point(n_val):
        n = int(round(n_val))
        f = sensitivity_floors(n, p["eta"], p["sigma_pn"], p["nu"])
        return (n, f.loss_bound, f.phase_noise_bound, f.sql, f.hl)

    cols = ("n", "loss_bound", "phase_noise_bound", "sql", "hl")
    return cols, [point(n_val) for n_val in p["n"]], None


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _json_value(value):
    if isinstance(value, str):
        return value
    x = float(value)
    if math.isfinite(x):
        return x
    return _cell(x)  # keep strict JSON: non-finite values as strings


def _write_primary(path: str, fmt: str, columns, rows) -> None:
    """Write the table; a QuasiProbMap in place of rows gives one row per grid cell."""
    with open(path, "w") as fh:
        if isinstance(rows, QuasiProbMap):
            if fmt == "csv":
                _write_map_csv(fh, rows)  # the writer export_map uses
                return
            grid = (np.repeat(rows.theta, rows.phi.size), np.tile(rows.phi, rows.theta.size))
            rows = np.column_stack((*grid, rows.values.ravel())).tolist()
        if fmt == "csv":
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
        else:
            payload = {
                "columns": list(columns),
                "rows": [[_json_value(v) for v in row] for row in rows],
            }
            json.dump(payload, fh, indent=1)
            fh.write("\n")


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    parser = _Parser(prog="spinlab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")
    for name, opts in _OPTS.items():
        sp = sub.add_parser(name, description=f"spinlab {name}")
        for opt in (*_COMMON, *opts):
            sp.add_argument(f"--{opt.name}", dest=opt.dest, type=str, default=None, help=opt.help)
    return parser


def run(argv) -> int:
    """Entry point; returns the process exit code."""
    try:
        ns = build_parser().parse_args(list(argv))
        if ns.subcommand is None:
            raise _ArgError("a subcommand is required")
        opts = (*_COMMON, *_OPTS[ns.subcommand])
        params, raw_used = _effective(ns, opts)
        threads = _resolve_threads(params.pop("threads"))
        if ns.subcommand in _STOCHASTIC and params["seed"] is None:
            raise _ArgError(f"--seed is required for {ns.subcommand}")
        fmt = params.pop("format")
        out_path = params.pop("output") or f"{ns.subcommand}.{fmt}"
        params.pop("config", None)
    except _ArgError as exc:
        print(f"spinlab: argument error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        handler = {
            "oat-sweep": _cmd_oat_sweep,
            "bjj-ground": _cmd_bjj_ground,
            "spin-mixing": _cmd_spin_mixing,
            "su11": _cmd_su11,
            "estimate": _cmd_estimate,
            "tomography": _cmd_tomography,
            "witness": _cmd_witness,
            "floors": _cmd_floors,
        }[ns.subcommand]
        columns, rows, extra = handler(params)
        _write_primary(out_path, fmt, columns, rows)
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"spinlab: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (_ArgError, ValueError) as exc:
        print(f"spinlab: argument error: {exc}", file=sys.stderr)
        return 2

    sidecar = {
        "subcommand": ns.subcommand,
        "config": dict(sorted(raw_used.items())),
        "threads": threads,
        "output": out_path,
        "format": fmt,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    if extra:
        sidecar["result_meta"] = extra
    with open(out_path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
