"""JSON-configured experiment harness.

Every command reads one JSON config (--config) and writes its artifacts
plus a self-describing manifest into --out.  Re-running a command with
the same config reproduces byte-identical CSV/JSON bodies.

Commands:

  build-wigner    chord-sum Wigner function on a (p, q) grid
  evolve          damped chord trace between two phase points
  project         position/momentum density-matrix elements
  diffusion       energy-window widths under open dynamics
  normalize       purity and trace-normalization diagnostics
  oracle-compare  semiclassical-vs-exact check battery
  star-check      star-product identity battery

Shared config keys (per-command keys are documented on each runner):

  system     built-in name ("harmonic", "quartic", "pendulum") or
             {"coeffs": {"a,b": c}} for H = sum c p^a q^b
  hbar       Planck constant (required where physics happens)
  shell      {"n": level} or {"energy": E}: exactly one of the two, or
             the command exits 2
  channels   list of "q" / "p" / {"symbol": ..., "coupling": g} /
             {"coeffs": {"a,b": c}, "coupling": g}
  times      explicit list, or {"t_final": T, "n": count}

Exit codes: 0 success, 2 configuration error (unknown command, bad or
missing key, a key that sets a fixed convention or an acceptance
target, a number that is not finite, unresolvable name, non-hermitian
channel), 3 numerical failure (empty shell, folded shell,
turning-point query, caustic amplitude, oracle divergence).

Manifests embed the sha256 of the config body and state every physical
convention in force, so a report can be read without the source.
"""
import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .compare import ALL_CHECKS, run_checks
from .diffusion import bracket_rate, window_width, write_diffusion_report
from .flow import (HamiltonianSystem, NumericalError, _poly_deriv,
                   _poly_mul, make_system, polynomial_system)
from .lindblad import (
    LindbladChannel,
    NonHermitianError,
    evolution_trace,
    make_channel,
    write_trace,
)
from .normalization import run_suite
from .oracle import OracleError, moyal_star
from .projection import density_matrix_sc, swapped_shell, write_element_grid
from .shells import _MASLOV, Chord, named_shell
from .wigner import SemiclassicalState, eval_grid

# build-wigner keys of fixed conventions (shell.window_shape is the fourth)
_FIXED_KEYS = {"maslov": "pi/4", "amplitude_scale": "1",
               "caustic_tol": "1e-3 speed_scale"}


class ConfigError(ValueError):
    """Malformed or unresolvable experiment configuration."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _finite(literal: str):
    if not np.isfinite(float(literal)):
        raise ConfigError(f"config number {literal} is not finite")
    return int(literal) if literal.lstrip("-").isdigit() else float(literal)


def load_config(path) -> Dict:
    """The JSON object at path with its sha256; every number is finite."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        cfg = json.loads(raw, parse_float=_finite, parse_int=_finite,
                         parse_constant=_finite)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
    return cfg


def _key_pair(key) -> tuple:
    try:
        a, b = str(key).split(",")
        return int(a), int(b)
    except Exception as err:
        raise ConfigError(
            f'coefficient key {key!r} is not of the form "a,b"') from err


def _coeff_table(spec: Dict) -> Dict:
    return {_key_pair(k): complex(v).real if complex(v).imag == 0
            else complex(v) for k, v in spec.items()}


def _system_from(cfg: Dict) -> HamiltonianSystem:
    spec = cfg.get("system")
    if isinstance(spec, str):
        try:
            return make_system(spec)
        except ValueError as err:
            raise ConfigError(str(err)) from err
    if isinstance(spec, dict) and "coeffs" in spec:
        return polynomial_system(_coeff_table(spec["coeffs"]),
                                 name=str(spec.get("name", "poly")))
    raise ConfigError(
        'config key "system" must be a name or {"coeffs": {"a,b": c}}')


def _channels_from(cfg: Dict) -> List[LindbladChannel]:
    out = []
    for item in cfg.get("channels", []):
        if isinstance(item, str):
            item = {"symbol": item}
        if not isinstance(item, dict):
            raise ConfigError(f"channel entry {item!r} not understood")
        coupling = float(item.get("coupling", 1.0))
        if "coeffs" in item:
            out.append(make_channel(_coeff_table(item["coeffs"]), coupling))
        elif "symbol" in item:
            out.append(make_channel(item["symbol"], coupling))
        else:
            raise ConfigError('channel entry needs "symbol" or "coeffs"')
    return out


def _hbar_from(cfg: Dict) -> float:
    if "hbar" not in cfg:
        raise ConfigError('config key "hbar" is required')
    hbar = float(cfg["hbar"])
    if hbar <= 0:
        raise ConfigError("hbar must be positive")
    return hbar


def _shell_from(cfg: Dict, system: HamiltonianSystem, hbar: float):
    spec = cfg.get("shell")
    if not isinstance(spec, dict):
        raise ConfigError('config key "shell" must be an object')
    return named_shell(system, hbar,
                       int(spec["n"]) if "n" in spec else None,
                       float(spec["energy"]) if "energy" in spec else None)


def _times_from(cfg: Dict, key: str = "times") -> np.ndarray:
    spec = cfg.get(key)
    if isinstance(spec, list):
        return np.asarray([float(t) for t in spec])
    if isinstance(spec, dict) and "t_final" in spec:
        return np.linspace(0.0, float(spec["t_final"]),
                           int(spec.get("n", 9)))
    raise ConfigError(
        f'config key "{key}" must be a list or {{"t_final": T, "n": k}}')


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def physical_conventions() -> Dict:
    """The sign/offset/exponent choices every report is read under."""
    return {
        "phase_space_order": "(p, q)",
        "symplectic_form": [[0, -1], [1, 0]],
        "wedge_product": "a ^ b = a_p b_q - a_q b_p",
        "poisson_bracket": "{f, g} = dq f dp g - dp f dq g  ({q, p} = 1)",
        "maslov_offset": _MASLOV,
        "phase_convention": "W = sum_k A_k cos(S_k/hbar - maslov)",
        "window_shape": "gaussian",
        "element_damping": "exp(-D_t^2 / 2 hbar) per branch pair",
        "purity_exponent": "hbar",
        "purity_damping": "exp(-D_t^2 / hbar) per chord pair",
        "dissipator_scale": "1/hbar",
    }


def _write_json(path, payload: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, command: str, cfg: Dict,
                    artifacts: Sequence[str], settings: Dict) -> str:
    name = f"{command}_manifest.json"
    _write_json(out / name, {
        "command": command,
        "config_sha256": cfg.get("_sha256", ""),
        "artifacts": list(artifacts),
        "conventions": physical_conventions(),
        "settings": settings,
    })
    return name


# ---------------------------------------------------------------------------
# command runners
# ---------------------------------------------------------------------------


def run_build_wigner(cfg: Dict, out: Path) -> List[str]:
    """Keys: system, hbar, shell (+ optional epsilon > 0 for a Gaussian
    spectral window; a negative one exits 2), grid {"p": [lo, hi, n],
    "q": [lo, hi, n]}.  The keys maslov, amplitude_scale, caustic_tol
    and shell.window_shape would set fixed conventions; any of them
    exits 2."""
    spec = cfg.get("shell")
    fixed = {k: v for k, v in _FIXED_KEYS.items() if k in cfg}
    if isinstance(spec, dict) and "window_shape" in spec:
        fixed["shell.window_shape"] = "gaussian"
    if fixed:
        raise ConfigError("; ".join(
            f'config key "{k}" cannot be set: it is fixed at {v}'
            for k, v in fixed.items()))
    system = _system_from(cfg)
    hbar = _hbar_from(cfg)
    shell = _shell_from(cfg, system, hbar)
    state = SemiclassicalState(shell=shell, hbar=hbar,
                               epsilon=float(spec.get("epsilon", 0.0)))

    grid = cfg.get("grid")
    if not (isinstance(grid, dict) and "p" in grid and "q" in grid):
        raise ConfigError('config key "grid" needs "p" and "q" ranges')
    ps, qs = (np.linspace(float(lo), float(hi), int(n))
              for lo, hi, n in (grid["p"], grid["q"]))

    result = eval_grid(state, ps, qs)
    result.write_csv(out / "wigner.csv")
    manifest = _write_manifest(
        out, "build-wigner", cfg, ["wigner.csv"],
        settings={"wigner": result.manifest()})
    return ["wigner.csv", manifest]


def run_evolve(cfg: Dict, out: Path) -> List[str]:
    """Keys: system, hbar, channels, x_plus, x_minus, times."""
    system = _system_from(cfg)
    hbar = _hbar_from(cfg)
    channels = _channels_from(cfg)
    try:
        x_plus = np.asarray([float(v) for v in cfg["x_plus"]])
        x_minus = np.asarray([float(v) for v in cfg["x_minus"]])
    except KeyError as err:
        raise ConfigError(f"evolve needs config key {err}") from err
    if x_plus.shape != (2,) or x_minus.shape != (2,):
        raise ConfigError("chord tips must be [p, q] pairs")
    times = _times_from(cfg)
    rows = evolution_trace(Chord.from_tips(x_plus, x_minus), system,
                           channels, times, hbar)
    write_trace(out / "trace.csv", rows)
    manifest = _write_manifest(
        out, "evolve", cfg, ["trace.csv"],
        settings={"hbar": hbar, "n_times": len(times),
                  "channels": [ch.name for ch in channels]})
    return ["trace.csv", manifest]


def run_project(cfg: Dict, out: Path) -> List[str]:
    """Keys: system, hbar, shell, channels, t, pairs [[a+, a-], ...],
    representation "position" (default) or "momentum"."""
    system = _system_from(cfg)
    hbar = _hbar_from(cfg)
    channels = _channels_from(cfg)
    shell = _shell_from(cfg, system, hbar)
    t = float(cfg.get("t", 0.0))
    rep = cfg.get("representation", "position")
    if rep not in ("position", "momentum"):
        raise ConfigError('representation must be "position" or "momentum"')
    pairs = cfg.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError('config key "pairs" must be a nonempty list')
    if rep == "momentum":  # one swapped shell serves every pair
        shell, channels = swapped_shell(shell, channels)
    elements = [density_matrix_sc(float(a), float(b), shell, shell.system,
                                  channels, t, hbar) for a, b in pairs]
    write_element_grid(out / "elements.csv", elements)
    manifest = _write_manifest(
        out, "project", cfg, ["elements.csv"],
        settings={"hbar": hbar, "energy": shell.energy, "t": t,
                  "representation": rep, "n_pairs": len(pairs)})
    return ["elements.csv", manifest]


def run_diffusion(cfg: Dict, out: Path) -> List[str]:
    """Keys: system, hbar, energy, epsilon0, channels, times."""
    system = _system_from(cfg)
    hbar = _hbar_from(cfg)
    channels = _channels_from(cfg)
    try:
        energy = float(cfg["energy"])
        epsilon0 = float(cfg["epsilon0"])
    except KeyError as err:
        raise ConfigError(f"diffusion needs config key {err}") from err
    times = _times_from(cfg)
    rate = bracket_rate(energy, channels, system)
    rows = [{"t": float(t),
             "epsilon_predicted": window_width(epsilon0, float(t), hbar, rate)}
            for t in times]
    write_diffusion_report(out / "diffusion.csv", rows)
    manifest = _write_manifest(
        out, "diffusion", cfg, ["diffusion.csv"],
        settings={"hbar": hbar, "energy": energy, "epsilon0": epsilon0,
                  "channels": [ch.name for ch in channels]})
    return ["diffusion.csv", manifest]


def run_normalize(cfg: Dict, out: Path) -> List[str]:
    """Keys: system, hbar, shell, optional channels / trace_hbars /
    decay_times / n_angle (even, >= 4).  The purity exponent is
    D^2/hbar; an "exponent" key other than "hbar" is a configuration
    error."""
    system = _system_from(cfg)
    hbar = _hbar_from(cfg)
    channels = _channels_from(cfg)
    if cfg.get("exponent", "hbar") != "hbar":
        raise ConfigError('the purity exponent is D^2/hbar; "exponent" '
                          'must be "hbar" or absent')
    shell = _shell_from(cfg, system, hbar)
    report = run_suite(
        shell, hbar, channels=channels,
        trace_hbars=[float(h) for h in cfg.get("trace_hbars", [])],
        decay_times=[float(t) for t in cfg.get("decay_times", [])],
        n_angle=int(cfg.get("n_angle", 256)))
    _write_json(out / "normalize.json", report)
    manifest = _write_manifest(
        out, "normalize", cfg, ["normalize.json"],
        settings={"hbar": hbar, "energy": shell.energy})
    return ["normalize.json", manifest]


def run_oracle_compare(cfg: Dict, out: Path) -> List[str]:
    """Keys: checks (default: all), params {check_name: kwargs}."""
    names = cfg.get("checks", list(ALL_CHECKS))
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError('config key "params" must be an object')
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}; "
                          f"known: {sorted(ALL_CHECKS)}")
    results = run_checks(names, params)
    _write_json(out / "compare.json", {
        "results": [vars(r) for r in results],
        "all_passed": all(r.passed for r in results),
    })
    manifest = _write_manifest(
        out, "oracle-compare", cfg, ["compare.json"],
        settings={"checks": list(names)})
    return ["compare.json", manifest]


def _poly_poisson(a: Dict, b: Dict) -> Dict:
    """{A, B} for p^i q^j coefficient tables, dq A dp B - dp A dq B."""
    out = _poly_mul(_poly_deriv(a, 0, 1), _poly_deriv(b, 1, 0))
    for key, val in _poly_mul(_poly_deriv(a, 1, 0),
                              _poly_deriv(b, 0, 1)).items():
        out[key] = out.get(key, 0.0) - val
    return {k: v for k, v in out.items() if v != 0}


def run_star_check(cfg: Dict, out: Path) -> List[str]:
    """Keys: optional hbar (default 0.05), grid_n (default 128).

    Three identities pin the star product's sign and scaling:
      canonical_commutator   q * p - p * q = i hbar   (exact, polynomial)
      plane_wave_phase       e^{iaq} * e^{ibp} picks up e^{-i hbar ab / 2}
      poisson_limit          (A*B - B*A)/(i hbar) -> {A, B} + O(hbar^2)
    """
    hbar = _hbar_from({"hbar": 0.05, **cfg})
    n = int(cfg.get("grid_n", 128))
    rows = []

    q_sym, p_sym = {(0, 1): 1.0}, {(1, 0): 1.0}
    comm = dict(moyal_star(q_sym, p_sym, hbar=hbar))
    for key, val in moyal_star(p_sym, q_sym, hbar=hbar).items():
        comm[key] = comm.get(key, 0.0) - val
    resid = abs(comm.pop((0, 0), 0.0) - 1j * hbar) / hbar
    resid += sum(abs(v) for v in comm.values())
    rows.append({"name": "canonical_commutator", "residual": float(resid),
                 "tolerance": 1e-12, "passed": bool(resid < 1e-12)})

    # integer wavenumbers are exactly representable on the periodic grid
    qs = np.linspace(-np.pi, np.pi, n, endpoint=False)
    ps = np.linspace(-np.pi, np.pi, n, endpoint=False)
    Q, P = np.meshgrid(qs, ps, indexing="ij")   # rows q, columns p
    a = b = 1.0
    left = np.exp(1j * a * Q)
    right = np.exp(1j * b * P)
    got = moyal_star(left, right, ps=ps, qs=qs, hbar=hbar)
    want = left * right * np.exp(-0.5j * hbar * a * b)
    resid = float(np.max(np.abs(got - want)))
    rows.append({"name": "plane_wave_phase", "residual": resid,
                 "tolerance": 1e-8, "passed": bool(resid < 1e-8)})

    a_sym, b_sym = {(2, 1): 1.0}, {(1, 2): 1.0}
    pb = _poly_poisson(a_sym, b_sym)

    def defect(h: float) -> float:
        comm = dict(moyal_star(a_sym, b_sym, hbar=h))
        for key, val in moyal_star(b_sym, a_sym, hbar=h).items():
            comm[key] = comm.get(key, 0.0) - val
        scaled = {k: v / (1j * h) for k, v in comm.items()}
        keys = set(scaled) | set(pb)
        return max(abs(scaled.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)

    d1, d2 = defect(hbar), defect(0.5 * hbar)
    ratio = d1 / d2 if d2 > 0 else float("inf")
    ok = bool(d1 < 10 * hbar**2 and abs(ratio - 4.0) < 1e-6)
    rows.append({"name": "poisson_limit", "residual": float(d1),
                 "order_ratio": float(ratio), "tolerance": 1e-6,
                 "passed": ok})

    _write_json(out / "star.json",
                {"results": rows, "all_passed": all(r["passed"] for r in rows)})
    manifest = _write_manifest(
        out, "star-check", cfg, ["star.json"],
        settings={"hbar": hbar, "grid_n": n})
    return ["star.json", manifest]


COMMANDS = {
    "build-wigner": run_build_wigner,
    "evolve": run_evolve,
    "project": run_project,
    "diffusion": run_diffusion,
    "normalize": run_normalize,
    "oracle-compare": run_oracle_compare,
    "star-check": run_star_check,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordwigner",
        description="semiclassical Wigner / Lindblad experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=COMMANDS[name].__doc__)
        cmd.add_argument("--config", required=True,
                         help="JSON experiment configuration")
        cmd.add_argument("--out", default=".",
                         help="output directory (created if absent)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        artifacts = COMMANDS[args.command](cfg, out)
    except (NumericalError, RuntimeError) as err:  # OracleError included
        kind = "oracle" if isinstance(err, OracleError) else "numerical"
        print(f"{kind} failure: {err}", file=sys.stderr)
        return 3
    except (ConfigError, NonHermitianError, ValueError, KeyError,
            TypeError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    for name in artifacts:
        print(out / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
