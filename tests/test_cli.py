"""End-to-end runs of the experiment harness on small configs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chordwigner
from chordwigner import (ShellSpec, build_shell, chord_amplitude,
                         density_matrix, find_chords, make_system,
                         position_channel, swapped_shell)
from chordwigner.cli import (COMMANDS, ConfigError, _build_parser,
                             load_config, main)


def write_cfg(path, cfg) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


WIG_CFG = {
    "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
    "grid": {"p": [-0.3, 0.3, 7], "q": [0.2, 0.6, 9]},
}


def test_build_wigner_artifacts_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", WIG_CFG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["build-wigner", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["build-wigner", "--config", cfg, "--out", str(out_b)]) == 0
    body = (out_a / "wigner.csv").read_bytes()
    assert body == (out_b / "wigner.csv").read_bytes()
    header = body.splitlines()[0].decode()
    assert header == "p,q,W,n_chords,caustic_flag"
    assert len(body.splitlines()) == 1 + 7 * 9
    assert ((out_a / "build-wigner_manifest.json").read_bytes()
            == (out_b / "build-wigner_manifest.json").read_bytes())


def test_manifest_is_self_describing(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", WIG_CFG)
    assert main(["build-wigner", "--config", cfg, "--out", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "build-wigner_manifest.json").read_text())
    assert man["command"] == "build-wigner"
    assert len(man["config_sha256"]) == 64
    assert man["artifacts"] == ["wigner.csv"]
    conv = man["conventions"]
    for key in ("phase_space_order", "symplectic_form", "poisson_bracket",
                "maslov_offset", "window_shape", "purity_exponent",
                "element_damping", "dissipator_scale"):
        assert key in conv
    assert conv["phase_space_order"] == "(p, q)"


def test_evolve_trace(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05,
        "channels": [{"symbol": "q", "coupling": 1.0}],
        "x_plus": [0.0, 1.0], "x_minus": [0.0, -1.0],
        "times": {"t_final": 1.0, "n": 5},
    })
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,p_plus,q_plus,p_minus,q_minus,S_t,D_t,damping"
    assert len(lines) == 6
    damp = [float(row.split(",")[-1]) for row in lines[1:]]
    assert damp[0] == 1.0
    assert all(d2 <= d1 for d1, d2 in zip(damp, damp[1:]))


def test_evolve_flag_shortcuts(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05,
        "x_plus": [0.0, 1.0], "x_minus": [0.0, -1.0],
        "times": {"t_final": 0.5, "n": 9}, "channels": ["q", "p"],
    })
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 10                       # 9 samples to t_final
    assert float(lines[-1].split(",")[0]) == 0.5
    assert float(lines[-1].split(",")[-1]) < 1.0  # channels attached


def test_project_elements(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "t": 0.5,
        "pairs": [[0.3, 0.1], [0.4, -0.2]],
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "elements.csv").read_text().splitlines()
    assert lines[0] == "q_plus,q_minus,re,im,damping_min"
    assert len(lines) == 3
    damping = float(lines[1].split(",")[-1])
    assert 0.0 < damping < 1.0


@pytest.mark.parametrize("rep", ["position", "momentum"])
def test_project_finds_turning_angles_once(tmp_path, monkeypatch, rep):
    searched = []
    search = ShellSpec._find_q_turning_angles
    monkeypatch.setattr(ShellSpec, "_find_q_turning_angles",
                        lambda shell: searched.append(shell) or search(shell))
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "t": 0.5, "representation": rep,
        "pairs": [[0.3, 0.1], [0.4, -0.2], [-0.5, 0.2]],
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(searched) == 1


@pytest.mark.parametrize("rep", ["position", "momentum"])
def test_project_makes_one_shell_d2_call(tmp_path, monkeypatch, rep):
    # every pair's dampings come from one D_t^2 matrix over the branch
    # angles of the distinct positions
    calls = []
    d2 = chordwigner.projection.shell_d2
    monkeypatch.setattr(chordwigner.projection, "shell_d2",
                        lambda *a: calls.append(a) or d2(*a))
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "t": 0.5, "representation": rep,
        "pairs": [[0.3, 0.1], [0.4, -0.2], [-0.5, 0.2], [0.1, 0.3]],
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert len(calls[0][1]) == 2 * 6  # two branches at each distinct q


@pytest.mark.parametrize("pairs", [[[0.3]], [[0.3, 0.1, 0.2]], [0.3],
                                   [[0.3, "x"]], [[0.3, None]]])
def test_project_malformed_pair_exits_2(tmp_path, pairs):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "t": 0.5, "pairs": [[0.2, 0.1], *pairs],
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "elements.csv").exists()


def test_diffusion_report(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "energy": 0.5, "epsilon0": 0.1,
        "channels": ["q"], "times": [0.0, 1.0, 2.0],
    })
    assert main(["diffusion", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "diffusion.csv").read_text().splitlines()
    assert lines[0] == "t,epsilon_predicted,epsilon_oracle,slope_ratio"
    eps = [float(row.split(",")[1]) for row in lines[1:]]
    assert eps[0] == pytest.approx(0.1)
    assert eps == sorted(eps)


def test_normalize_report(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "decay_times": [0.25], "n_angle": 64,
    })
    assert main(["normalize", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "normalize.json").read_text())
    assert report["purity_t0"] == pytest.approx(1.0, abs=1e-9)
    assert "0.25" in report["purity_decay"]
    man = json.loads((tmp_path / "normalize_manifest.json").read_text())
    assert man["conventions"]["purity_exponent"] == "hbar"


def test_normalize_rejects_other_exponents(tmp_path):
    # the purity exponent is D^2/hbar; "hbar" is accepted, nothing else
    base = {"system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
            "channels": ["q"], "decay_times": [0.25], "n_angle": 64}
    ok = write_cfg(tmp_path / "ok.json", {**base, "exponent": "hbar"})
    assert main(["normalize", "--config", ok, "--out", str(tmp_path)]) == 0
    for exponent in ("half", "bare"):
        cfg = write_cfg(tmp_path / f"{exponent}.json",
                        {**base, "exponent": exponent})
        assert main(["normalize", "--config", cfg,
                     "--out", str(tmp_path)]) == 2


def test_normalize_rejects_short_angle_ring(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": ["q"], "decay_times": [0.25], "n_angle": 1})
    out = tmp_path / "out"
    assert main(["normalize", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "normalize.json").exists()


def test_oracle_compare_subset(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"checks": ["cat_rate"]})
    assert main(["oracle-compare", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["all_passed"] is True
    assert report["results"][0]["name"] == "cat_rate"
    assert report["results"][0]["delta"] < 0.01


def test_oracle_compare_purity_decay_with_no_comparable_time(tmp_path):
    # the oracle purity is below 0.5 at t = 0.1, so no row compares
    cfg = write_cfg(tmp_path / "c.json", {
        "checks": ["purity_decay"],
        "params": {"purity_decay": {"times": [0.1]}}})
    assert main(["oracle-compare", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["all_passed"] is False
    (result,) = report["results"]
    assert result["passed"] is False and result["detail"]["rows"] == []
    assert all(np.isnan(result[k])
               for k in ("semiclassical", "oracle", "delta"))


@pytest.mark.parametrize("check, key", [
    ("cat_rate", "tolerance"), ("eigenstate_wigner", "tolerance"),
    ("eigenstate_wigner", "maslov_tol"),
    ("eigenstate_wigner", "caustic_fraction"),
    ("trace_factor", "tolerance"), ("diffusion_slope", "tolerance"),
    ("purity_decay", "tolerance"), ("off_diagonal", "tolerance_floor"),
    ("off_diagonal", "log_fraction")])
def test_oracle_compare_rejects_a_set_target(tmp_path, check, key):
    # acceptance targets are fixed: a config that loosens or tightens one
    # would grade the same result differently
    cfg = write_cfg(tmp_path / "c.json", {
        "checks": [check], "params": {check: {key: 0.0}}})
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "compare.json").exists()


def test_oracle_compare_rejects_unknown_check(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"checks": ["nonesuch"]})
    assert main(["oracle-compare", "--config", cfg,
                 "--out", str(tmp_path)]) == 2


def test_star_check_identities(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"hbar": 0.05, "grid_n": 64})
    assert main(["star-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "star.json").read_text())
    assert report["all_passed"] is True
    names = {r["name"] for r in report["results"]}
    assert names == {"canonical_commutator", "plane_wave_phase",
                     "poisson_limit"}
    ratio = [r for r in report["results"]
             if r["name"] == "poisson_limit"][0]["order_ratio"]
    assert ratio == pytest.approx(4.0, abs=1e-6)


def test_config_errors_exit_2(tmp_path):
    bad_system = write_cfg(tmp_path / "s.json", dict(WIG_CFG, system="nope"))
    assert main(["build-wigner", "--config", bad_system,
                 "--out", str(tmp_path)]) == 2

    missing_grid = write_cfg(
        tmp_path / "g.json",
        {"system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5}})
    assert main(["build-wigner", "--config", missing_grid,
                 "--out", str(tmp_path)]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text('{"system": ')
    assert main(["build-wigner", "--config", str(broken),
                 "--out", str(tmp_path)]) == 2

    assert main(["build-wigner", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2

    both_shell_keys = write_cfg(
        tmp_path / "b.json",
        {"system": "harmonic", "hbar": 0.05,
         "shell": {"n": 3, "energy": 0.5}, "channels": [], "pairs": [[0, 0]]})
    assert main(["project", "--config", both_shell_keys,
                 "--out", str(tmp_path)]) == 2


GOOD_CFG = {
    "build-wigner": dict(WIG_CFG, shell={"energy": 0.5, "epsilon": 0.02}),
    "evolve": {"system": "harmonic", "hbar": 0.05, "channels": ["q"],
               "x_plus": [0.0, 0.6], "x_minus": [0.0, -0.6],
               "times": [0.0, 0.5]},
    "project": {"system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
                "channels": ["q"], "t": 0.3, "pairs": [[0.2, -0.3]]},
    "diffusion": {"system": "harmonic", "hbar": 0.05, "energy": 0.5,
                  "epsilon0": 0.1, "channels": ["q"], "times": [0.0, 1.0]},
    "normalize": {"system": "harmonic", "hbar": 0.05,
                  "shell": {"energy": 0.5}, "channels": ["q"],
                  "decay_times": [0.1], "n_angle": 16},
}
BAD_NUMBERS = [
    ("build-wigner", "shell.epsilon", "-0.1"),
    ("build-wigner", "shell.epsilon", "NaN"),
    ("build-wigner", "shell.epsilon", "Infinity"),
    ("build-wigner", "hbar", "NaN"),
    ("build-wigner", "hbar", "1e400"),
    ("build-wigner", "hbar", "1" + "0" * 400),
    ("evolve", "times", "[0, NaN]"),
    ("evolve", "hbar", "-Infinity"),
    ("project", "t", "NaN"),
    ("diffusion", "epsilon0", "NaN"),
    ("normalize", "hbar", "Infinity"),
    ("normalize", "decay_times", "[NaN]"),
]


@pytest.mark.parametrize("command, key, literal", BAD_NUMBERS,
                         ids=[f"{c}:{k}={v.strip('[]').replace(' ', '')}"
                              if len(v) < 12 else f"{c}:{k}=10**400"
                              for c, k, v in BAD_NUMBERS])
def test_bad_config_number_exits_2(tmp_path, command, key, literal):
    # a negative window width, or a number that is not finite (a float
    # or integer literal that overflows included), is a config error,
    # never a result built on it; the same config with its good value runs
    cfg = json.loads(json.dumps(GOOD_CFG[command]))
    good = write_cfg(tmp_path / "good.json", cfg)
    assert main([command, "--config", good, "--out", str(tmp_path)]) == 0
    *path, last = key.split(".")
    node = cfg
    for part in path:
        node = node[part]
    node[last] = "BAD"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg).replace('"BAD"', literal))
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / f"{command}_manifest.json").exists()


def test_build_wigner_needs_exactly_one_shell_key(tmp_path):
    for shell in ({"n": 3, "energy": 0.9}, {"epsilon": 0.1}):
        cfg = write_cfg(tmp_path / "b.json", dict(WIG_CFG, shell=shell))
        out = tmp_path / "out"
        assert main(["build-wigner", "--config", cfg,
                     "--out", str(out)]) == 2
        assert not (out / "wigner.csv").exists()


def test_project_on_folded_shell_exits_3(tmp_path):
    folded = write_cfg(tmp_path / "f.json", {
        "system": {"coeffs": {"4,0": 0.25, "2,0": -0.5, "0,2": 0.5}},
        "hbar": 0.05, "shell": {"energy": 0.5}, "channels": [], "t": 0.0,
        "pairs": [[1.1, 1.05]],
    })
    assert main(["project", "--config", folded, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "elements.csv").exists()


def test_parser_is_built_once():
    # test_build_wigner_artifacts_and_determinism runs main twice on it
    assert _build_parser() is _build_parser()


def test_numerical_failures_exit_3(tmp_path, monkeypatch):
    turning = write_cfg(tmp_path / "t.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
        "channels": [], "t": 0.0, "pairs": [[1.0, 0.0]],
    })
    assert main(["project", "--config", turning, "--out", str(tmp_path)]) == 3

    empty_shell = write_cfg(tmp_path / "e.json", {
        "system": "harmonic", "hbar": 0.05, "shell": {"energy": -2.0},
        "channels": [], "t": 0.0, "pairs": [[0.1, 0.0]],
    })
    assert main(["project", "--config", empty_shell,
                 "--out", str(tmp_path)]) == 3

    # numerical ValueErrors raised inside any command exit 3, not 2: a
    # caustic chord amplitude
    shell = build_shell(make_system("harmonic"), 0.5)
    on_shell = find_chords(shell, shell.points[0])[0]
    monkeypatch.setitem(COMMANDS, "project",
                        lambda cfg, out: chord_amplitude(on_shell, 0.05))
    assert main(["project", "--config", turning, "--out", str(tmp_path)]) == 3


def test_project_momentum_matches_element_api(tmp_path):
    cfg = {"system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
           "channels": ["q"], "t": 0.4, "representation": "momentum",
           "pairs": [[0.4, 0.15], [-0.3, 0.2], [0.1, -0.6]]}
    path = write_cfg(tmp_path / "m.json", cfg)
    assert main(["project", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "elements.csv").read_text().splitlines()[1:]
    sw_shell, sw_channels = swapped_shell(
        build_shell(make_system("harmonic"), 0.5), [position_channel()])
    q_plus, q_minus = np.transpose(cfg["pairs"])
    els = density_matrix(q_plus, q_minus, sw_shell, sw_channels, 0.4, 0.05)
    assert len(rows) == len(els) == 3
    for el, row in zip(els, rows):
        re, im = (float(v) for v in row.split(",")[2:4])
        assert re == pytest.approx(el.value.real, rel=1e-10, abs=1e-12)
        assert im == pytest.approx(el.value.imag, rel=1e-10, abs=1e-12)


def test_unknown_command_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {})
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", cfg])
    assert exc.value.code == 2


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("key, fixed", [
    ("maslov", "pi/4"), ("amplitude_scale", "1"),
    ("caustic_tol", "1e-3 speed_scale"), ("window_shape", "gaussian")])
def test_build_wigner_rejects_fixed_convention_keys(tmp_path, capsys, key,
                                                     fixed):
    # a value equal to the fixed one is rejected too: the key sets nothing
    value = {"maslov": 0.7853981633974483, "amplitude_scale": 1.0,
             "caustic_tol": 1e-3, "window_shape": "gaussian"}[key]
    if key == "window_shape":
        cfg = dict(WIG_CFG, shell={"energy": 0.5, "epsilon": 0.02,
                                   key: value})
        key = "shell.window_shape"
    else:
        cfg = dict(WIG_CFG, **{key: value})
    path = write_cfg(tmp_path / "c.json", cfg)
    assert main(["build-wigner", "--config", path,
                 "--out", str(tmp_path)]) == 2
    assert f'"{key}" cannot be set: it is fixed at {fixed}' in (
        capsys.readouterr().err)
    assert not (tmp_path / "wigner.csv").exists()


def test_console_script_entry(tmp_path):
    cfg = write_cfg(tmp_path / "c.json", {"hbar": 0.1, "grid_n": 32})
    # the child imports the package from where this process found it,
    # installed or not
    src = str(Path(chordwigner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "chordwigner.cli", "star-check",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "star.json" in proc.stdout


# the public scipy subpackages that importing the package and its CLI
# loads; a module-level import of another one adds to every process's
# start-up, which each CLI command and the benchmark's setup_s pay
SCIPY_AT_IMPORT = {"constants", "fft", "integrate", "interpolate", "linalg",
                   "optimize", "sparse", "spatial", "special", "version"}


def test_import_loads_only_known_scipy_subpackages():
    src = str(Path(chordwigner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chordwigner, chordwigner.cli\n"
         "print(' '.join(sorted({m.split('.')[1] for m in sys.modules\n"
         "      if m.startswith('scipy.')})))"],
        capture_output=True, text=True, env=env, check=True)
    loaded = {m for m in proc.stdout.split() if not m.startswith("_")}
    assert loaded and loaded <= SCIPY_AT_IMPORT
