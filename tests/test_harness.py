"""Tests for configuration parsing, artifact writing, the CLI entry point,
and the refinement / regularization studies (on deliberately coarse grids)."""
import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nsvisc1d import cli, harness
from nsvisc1d.diagnostics import DiagnosticsRecord
from nsvisc1d.harness import (
    CONFIG_KEYS,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    ConfigError,
    StudySpec,
    config_from_mapping,
    n_sequence_study,
    parse_config,
    preset_config,
    refinement_study,
    run_scenario,
    simulate,
    write_study,
)
from nsvisc1d.initdata import PRESET_NAMES


# ---------------------------------------------------------------------------
# config parsing


VALID_CONFIG = """
# theo1 at a coarse resolution
preset = theo1
grid.cells = 320          # dx = 1/8
run.t_end = 0.004
run.record_every = 0.002
scheme.formulation = primitive
params.gamma = 2.5
scenario.mollify_tau = auto
"""


def test_parse_config_valid():
    cfg = parse_config(VALID_CONFIG)
    assert cfg.grid.cells == 320
    assert cfg.t_end == 0.004
    assert cfg.scenario.params.gamma == 2.5
    assert cfg.scenario.mollify_tau is None
    assert cfg.scenario.kind == "theo1-strong-coupling"


def test_parse_config_unknown_key_and_bad_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("preset = theo1\nfoo.bar = 1\nnot a key value line\n")
    text = " ".join(exc.value.errors)
    assert "foo.bar" in text
    assert "line 3" in text


def test_config_errors_aggregate():
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"preset": "theo1", "params.gamma": "0.9",
                             "run.t_end": "-1.0"})
    text = " ".join(exc.value.errors)
    assert "gamma must exceed 1" in text
    assert "t_end must be positive" in text


def test_config_unknown_preset():
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"preset": "vortex"})
    assert "vortex" in " ".join(exc.value.errors)


def test_config_regime_validation_surfaces():
    # constant-viscosity scenario with alpha != 0 is a validation error
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"preset": "theo2", "params.alpha": "1.0"})
    assert "alpha = 0" in " ".join(exc.value.errors)


def test_config_atoms_and_profiles():
    cfg = config_from_mapping({
        "scenario.kind": "corbis-weak-coupling",
        "params.alpha": "1.0",
        "scenario.density_values": "1.0,2.0,1.0",
        "scenario.density_breaks": "0.0,8.0",
        "scenario.atoms": "0.0:0.1;2.0:-0.05",
        "scenario.u0": "zero",
    })
    assert cfg.scenario.momentum_atoms == ((0.0, 0.1), (2.0, -0.05))
    cfg2 = config_from_mapping({
        "scenario.kind": "hoff-L2-velocity",
        "params.alpha": "0.0",
        "scenario.u0": "gauss:0.0,0.1,1.0",
    })
    assert cfg2.scenario.u0.amplitude == 0.1
    with pytest.raises(ConfigError):
        config_from_mapping({"scenario.u0": "triangle:1"})


def test_preset_config_defaults():
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        assert cfg.scheme.formulation == "primitive"
        assert cfg.t_end == 0.02
        assert cfg.grid.x_min == -20.0 and cfg.grid.x_max == 20.0


# characters a config-file value can hold: no comment or key-value marker
# and no line boundary that str.splitlines() knows
_LINE_SAFE = st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="#=\n\r\x0b\x0c\x1c\x1d\x1e"
                                                "\x85\u2028\u2029")
_VALUES = st.one_of(
    st.text(_LINE_SAFE, max_size=12),
    st.sampled_from(["theo1", "hoff", "1", "0", "-1", " 2.5 ", "inf", "nan",
                     "320", "4.5", "1,2,1", "0,8", "0:0.1", "0:x", "auto",
                     "gauss:0,0.1,1", "zero", "effective", "periodic", "mc",
                     "8,16,inf", "320,640", ""]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS)), _VALUES),
       st.one_of(st.none(), st.tuples(
           st.text(_LINE_SAFE, min_size=1, max_size=12).filter(
               lambda k: k.strip() not in CONFIG_KEYS),
           _VALUES)))
def test_config_schema_property(mapping, unknown):
    """Any mapping either builds a RunConfig or raises ConfigError, and the
    config-file text of the same mapping gives the same outcome."""
    if unknown is not None:
        mapping = {**mapping, unknown[0]: unknown[1]}
    try:
        expected = config_from_mapping(dict(mapping))
    except ConfigError as exc:
        expected = exc
    text = "\n".join(f"{key} = {value}" for key, value in mapping.items())
    try:
        got = parse_config(text)
    except ConfigError as exc:
        got = exc
    if isinstance(expected, ConfigError):
        assert isinstance(got, ConfigError)
        if unknown is None:
            assert got.errors == expected.errors
    else:
        assert unknown is None and got == expected


def test_config_file_accepts_every_override_key():
    cfg = parse_config("preset = theo1\nparams.n_reg = 8\n")
    assert cfg == preset_config("theo1", **{"params.n_reg": "8"})
    assert cfg.params.n_reg == 8.0


@pytest.mark.parametrize("override", [
    "params.n_reg=abc", "study.n_sequence=8,x", "study.dx_refinement=64,x",
    "scenario.density_values=1,a,1", "scenario.atoms=0:x", "params.mu=nan",
    "params.mu=inf", "grid.x_max=nan", "run.t_end=nan",
    "run.record_every=-1", "study.dx_refinement=320,500",
    "study.n_sequence=0.5,inf", "scheme.limiter=superbee",
    "run.jump_x0=100", "scenario.u0=gauss:0,0.1,0",
])
def test_cli_bad_value_exits_2(override, tmp_path, capsys):
    code = cli.main(["run", "--preset", "theo1", "--out", str(tmp_path),
                     "--override", override])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith(f"config error: {override.split('.')[0]}")


def test_cli_flux_on_effective_exits_2(tmp_path, capsys):
    # the effective stepper always upwinds, so a flux choice there is an
    # error, not a silent no-op
    code = cli.main(["run", "--preset", "theo1", "--out", str(tmp_path),
                     "--override", "scheme.formulation=effective",
                     "--override", "scheme.flux=upwind"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        "config error: scheme.flux: applies only to the primitive "
        "formulation")


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_VALIDATION
    assert "config error: cannot read" in capsys.readouterr().err


def test_cli_override_with_config_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(VALID_CONFIG)
    code = cli.main(["run", "--config", str(cfg_file),
                     "--override", "grid.cells=64"])
    assert code == EXIT_VALIDATION
    assert "--override with --config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# execution and artifacts


def small_cfg(**overrides):
    base = {"grid.cells": 320, "run.t_end": 0.004,
            "run.record_every": 0.002}
    base.update(overrides)
    return preset_config("theo1", **base)


def test_run_scenario_artifacts(tmp_path):
    out = str(tmp_path / "out")
    assert run_scenario(small_cfg(), out) == EXIT_OK

    with open(f"{out}/diagnostics.csv") as fh:
        first = fh.readline()
        assert first.startswith("# nsvisc1d diagnostics schema v1")
        rows = list(csv.reader(fh))
    assert rows[0] == DiagnosticsRecord.csv_columns()
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    assert data.shape[1] == len(DiagnosticsRecord.csv_columns())
    assert data[0, 0] == 0.0

    with open(f"{out}/snapshots.json") as fh:
        snaps = json.load(fh)
    assert len(snaps["x"]) == 320
    assert 1 <= len(snaps["snapshots"]) <= 5
    assert len(snaps["snapshots"][0]["rho"]) == 320

    with open(f"{out}/summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "completed"
    assert summary["verdicts"]["mass_balance"] is True
    assert summary["mass_error_accum"] <= 1e-10
    assert 0 < summary["dt_min"] <= summary["dt_max"]
    # theo1 primitive: the far field at rest keeps the diffusive limit
    assert summary["dt_bound"] == {"advective": 0,
                                   "diffusive": summary["steps"]}


def test_simulate_deterministic():
    cfg = small_cfg()
    rho1 = simulate(cfg).final_state.rho
    rho2 = simulate(cfg).final_state.rho
    np.testing.assert_array_equal(rho1, rho2)


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_periodic_equilibrium_starts_at_rest(formulation):
    # a uniform density away from rho_bar is at rest on a periodic grid: the
    # effective run starts from the transform under the run's own rule
    cfg = preset_config("equilibrium", **{
        "scenario.density_values": "1.5", "scheme.bc": "periodic",
        "grid.cells": "64", "run.t_end": "0.001",
        "scheme.formulation": formulation})
    traj = simulate(cfg)
    assert traj.status == "completed" and traj.steps > 0
    for state, _ in traj.snapshots:
        assert np.all(state.m == 0.0)
        assert np.all(state.rho == state.rho[0])


# ---------------------------------------------------------------------------
# studies


def test_refinement_study_rows_and_probe():
    cfg = small_cfg(**{"study.dx_refinement": "320,640,1280"})
    rows = refinement_study(cfg)
    assert [r.cells for r in rows] == [320, 640, 1280]
    assert rows[0].l1_distance is None
    assert rows[1].l1_distance > 0 and rows[2].l1_distance > 0
    assert rows[2].observed_order is not None
    trends = {r.verdicts["regularization_probe"] for r in rows}
    assert trends <= {"converged", "persistent"} and len(trends) == 1


def test_refinement_study_threaded_matches_serial():
    # the study's thread fan-out gives the distance of two solo runs, bit
    # for bit
    cfg = small_cfg(**{"study.dx_refinement": "320,640"})
    threaded = refinement_study(cfg)
    coarse_cfg = replace(cfg, study=StudySpec())
    fine_cfg = replace(coarse_cfg, grid=replace(cfg.grid, cells=640))
    coarse = simulate(coarse_cfg).final_state.rho
    fine = simulate(fine_cfg).final_state.rho
    dist = float(np.sum(np.abs(fine - np.repeat(coarse, 2)))
                 * fine_cfg.grid.dx)
    assert [r.label for r in threaded] == ["320", "640"]
    assert threaded[1].l1_distance == dist


def test_refinement_study_requires_spec():
    with pytest.raises(ConfigError):
        refinement_study(small_cfg())
    with pytest.raises(ConfigError):
        n_sequence_study(small_cfg())


def test_refinement_study_requires_nested_cells():
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "theo1",
                             "study.dx_refinement": "640,320"})
    with pytest.raises(ConfigError):
        config_from_mapping({"preset": "theo1",
                             "study.dx_refinement": "300,640"})


def test_n_sequence_study_rows():
    cfg = small_cfg(**{"study.n_sequence": "4,16,inf"})
    rows = n_sequence_study(cfg)
    assert [r.label for r in rows] == ["4", "16", "inf"]
    assert rows[2].l1_distance is None
    assert rows[0].l1_distance > rows[1].l1_distance > 0


def test_write_study(tmp_path):
    cfg = small_cfg(**{"study.dx_refinement": "320,640"})
    rows = refinement_study(cfg)
    write_study(rows, str(tmp_path), "study_dx.json")
    with open(tmp_path / "study_dx.json") as fh:
        payload = json.load(fh)
    assert payload[1]["l1_distance"] == rows[1].l1_distance
    assert payload[0]["verdicts"]["entropy_decay"] is True
    assert [row["status"] for row in payload] == ["completed"] * 2


# ---------------------------------------------------------------------------
# CLI


def test_cli_presets(capsys):
    assert cli.main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == list(PRESET_NAMES)


def test_cli_run_ok(tmp_path):
    out = str(tmp_path / "run")
    code = cli.main(["run", "--preset", "theo1", "--out", out,
                     "--override", "grid.cells=320",
                     "--override", "run.t_end=0.004"])
    assert code == EXIT_OK
    assert (tmp_path / "run" / "summary.json").exists()


def test_cli_validation_exit_code(tmp_path, capsys):
    code = cli.main(["run", "--preset", "theo1",
                     "--override", "params.gamma=0.9",
                     "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "gamma" in capsys.readouterr().err


def test_cli_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(VALID_CONFIG + f"\noutput.dir = {tmp_path}/cfgout\n")
    assert cli.main(["run", "--config", str(cfg_file)]) == EXIT_OK
    assert (tmp_path / "cfgout" / "diagnostics.csv").exists()


def test_cli_requires_config_or_preset(capsys):
    assert cli.main(["run"]) == EXIT_VALIDATION
    assert "either --config or --preset" in capsys.readouterr().err


def test_cli_study_dx(tmp_path):
    out = str(tmp_path / "study")
    code = cli.main(["study-dx", "--preset", "theo1", "--out", out,
                     "--override", "grid.cells=320",
                     "--override", "run.t_end=0.004",
                     "--override", "study.dx_refinement=320,640"])
    assert code == EXIT_OK
    assert (tmp_path / "study" / "study_dx.json").exists()


def test_cli_study_n(tmp_path):
    out = str(tmp_path / "study")
    code = cli.main(["study-n", "--preset", "theo1", "--out", out,
                     "--override", "grid.cells=320",
                     "--override", "run.t_end=0.004",
                     "--override", "study.n_sequence=4,inf"])
    assert code == EXIT_OK
    with open(tmp_path / "study" / "study_n.json") as fh:
        payload = json.load(fh)
    assert [row["label"] for row in payload] == ["4", "inf"]


def test_cli_nonfinite_state_exits_3(tmp_path, capsys):
    # a huge momentum atom overflows the first step: the run ends at the
    # last finite state with a summary, not a traceback, and the verdict
    # that rests on the infinite BD entropy is false
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", "--preset", "corbis", "--out", str(out),
                         "--override", "grid.cells=64",
                         "--override", "run.t_end=0.001",
                         "--override", "scenario.atoms=0:1e306"])
    assert code == EXIT_SOLVER
    assert "run failed" in capsys.readouterr().err
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "nonfinite"
    assert summary["t_final"] == 0.0
    with open(out / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    assert float(rows[0]["bd_entropy"]) == math.inf
    assert summary["verdicts"]["entropy_decay"] is False


def test_cli_study_n_invalid_member_exits_2(tmp_path, capsys,
                                            monkeypatch):
    # corbis carries a momentum atom, which the unmollified n = inf member
    # cannot hold: the study fails as a config error before any member runs
    def no_simulation(cfg):
        raise AssertionError("a member ran before validation")
    monkeypatch.setattr(harness, "simulate", no_simulation)
    code = cli.main(["study-n", "--preset", "corbis",
                     "--out", str(tmp_path / "study"),
                     "--override", "grid.cells=64",
                     "--override", "run.t_end=0.001",
                     "--override", "study.n_sequence=8,16,inf"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "config error: study member inf: momentum atoms require a positive "
        "mollification time"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the members' threads
@pytest.mark.parametrize("command, overrides, name", [
    ("study-dx", ["preset=corbis", "scenario.atoms=0:1e306",
                  "study.dx_refinement=32,64,128"], "study_dx.json"),
    ("study-n", ["preset=hoff", "scenario.u0=gauss:0,1e306,1",
                 "study.n_sequence=8,inf"], "study_n.json")])
def test_cli_study_with_failed_members_exits_3(command, overrides, name,
                                               tmp_path, capsys):
    # a huge momentum makes every member non-finite: the study still
    # writes its JSON, which names each member's status
    out = tmp_path / "study"
    preset = overrides[0].partition("=")[2]
    argv = [command, "--preset", preset, "--out", str(out),
            "--override", "grid.cells=64", "--override", "run.t_end=0.001"]
    for item in overrides[1:]:
        argv += ["--override", item]
    assert cli.main(argv) == EXIT_SOLVER
    assert "did not complete" in capsys.readouterr().err
    with open(out / name) as fh:
        payload = json.load(fh)
    assert {row["status"] for row in payload} == {"nonfinite"}


@pytest.mark.parametrize("command, study", [
    ("run", None), ("study-dx", "study.dx_refinement=64,128"),
    ("study-n", "study.n_sequence=4,inf")])
def test_cli_unwritable_output_exits_2_before_running(command, study,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    def no_simulation(cfg):
        raise AssertionError("simulated before checking the output dir")
    monkeypatch.setattr(harness, "simulate", no_simulation)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--preset", "theo1", "--out", str(blocker / "sub"),
            "--override", "grid.cells=64", "--override", "run.t_end=0.001"]
    if study:
        argv += ["--override", study]
    assert cli.main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(
        "config error: cannot create output directory")


def test_scenario_warnings_reach_summary_and_log(tmp_path, caplog):
    out = tmp_path / "run"
    with caplog.at_level("WARNING", logger="nsvisc1d.harness"):
        code = cli.main(["run", "--preset", "theo1", "--out", str(out),
                         "--override", "grid.cells=64",
                         "--override", "run.t_end=0.001",
                         "--override", "scenario.density_values=1,20,1"])
    assert code == EXIT_OK
    with open(out / "summary.json") as fh:
        warnings = json.load(fh)["warnings"]
    assert any("smallness report 76 exceeds eps0" in w for w in warnings)
    assert [r.getMessage() for r in caplog.records] == warnings


# ---------------------------------------------------------------------------
# end to end: every input ends in a documented exit code


#: value texts per key: (valid, invalid).  grid.cells, run.t_end and
#: scheme.max_steps are always set, and stay small when valid, so that
#: each run is cheap.
_BOUNDED = {
    "grid.cells": (["4", "16", "64"], ["3", "x"]),
    "run.t_end": (["0.001", "0.01"], ["0", "nan"]),
    "scheme.max_steps": (["10", "2000"], ["-5", "1.5"]),
}
_E2E_VALUES = {
    "params.mu": (["0.1", "1", "1e308"], ["0", "nan", "x"]),
    "params.alpha": (["0", "0.5", "0.7", "1", "1.5"], ["-1"]),
    "params.a": (["0.5", "1", "1e5"], ["0"]),
    "params.gamma": (["1.4", "2", "3", "1e3"], ["1"]),
    "params.rho_bar": (["0.5", "1", "2", "1e200"], ["0", "inf"]),
    "params.theta": (["0", "0.25"], ["0.5"]),
    "params.n_reg": (["1", "8", "inf"], ["0.5"]),
    "grid.x_min": (["-20", "-1", "0"], ["inf"]),
    "grid.x_max": (["1", "20"], ["-30"]),
    "scenario.kind": (["theo1-strong-coupling", "corbis-weak-coupling",
                       "theo2-constant-visc", "hoff-L2-velocity", "custom"],
                      ["other"]),
    "scenario.density_values": (["1,2,1", "1,1e-3,1", "1,20,1", "1e300,1,1",
                                 "1"], ["1,0,1"]),
    "scenario.density_breaks": (["0,8", "-0.5,0.5", ""], ["8,0"]),
    "scenario.atoms": (["0:0.1", "0:1e306", ""], ["0:x"]),
    "scenario.v0": (["zero", "gauss:0,0.1,1", "gauss:0,1e306,1"],
                    ["gauss:0,1,0"]),
    "scenario.u0": (["zero", "gauss:0,0.1,1", "gauss:0,1e306,1"], ["ramp"]),
    "scenario.mollify_tau": (["auto", "0", "0.01"], ["-1"]),
    "scheme.formulation": (["primitive", "effective"], ["other"]),
    "scheme.cfl_safety": (["0.4", "1", "1e-9"], ["0"]),
    "scheme.flux": (["rusanov", "upwind"], ["roe"]),
    "scheme.limiter": (["mc", "minmod", "none"], ["superbee"]),
    "scheme.bc": (["farfield", "periodic"], ["edge"]),
    "run.record_every": (["0", "0.001", "0.004"], ["-1"]),
    "run.jump_x0": (["0", "0.5"], ["100"]),
    "study.dx_refinement": (["16,32", "16,32,64"], ["32,16", "x"]),
    "study.n_sequence": (["8,inf", "4,16,inf"], ["0.5,inf", "x"]),
}
_STUDY_FILES = {"study-dx": "study_dx.json", "study-n": "study_n.json"}


@st.composite
def cli_inputs(draw):
    """(command, preset, key -> value text), each value invalid one time in
    ten."""
    def value(valid, invalid):
        pool = invalid if draw(st.integers(0, 9)) == 0 else valid
        return draw(st.sampled_from(pool))

    command = draw(st.sampled_from(["run", "study-dx", "study-n"]))
    preset = draw(st.sampled_from(PRESET_NAMES))
    mapping = {key: value(*texts) for key, texts in _BOUNDED.items()}
    study = {"study-dx": "study.dx_refinement", "study-n": "study.n_sequence"}
    if command in study:
        mapping[study[command]] = value(*_E2E_VALUES[study[command]])
    keys = draw(st.lists(st.sampled_from(sorted(_E2E_VALUES)), unique=True,
                         max_size=6))
    mapping.update({key: value(*_E2E_VALUES[key]) for key in keys})
    return command, preset, mapping


@settings(max_examples=300, deadline=None)
@example(("study-n", "corbis",
          {"grid.cells": "64", "run.t_end": "0.001",
           "scheme.max_steps": "2000", "study.n_sequence": "8,16,inf"}))
@given(cli_inputs())
def test_cli_end_to_end_exit_codes(case):
    """Every command and config ends in exit 0, 2 or 3, never in a
    traceback; 0 and 3 leave a summary or a study JSON whose statuses agree
    with the code, and 2 leaves config errors or a validation summary."""
    command, preset, mapping = case
    argv = [command, "--preset", preset]
    for key, value in mapping.items():
        argv += ["--override", f"{key}={value}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"), \
            warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore", RuntimeWarning)  # the studies' threads
        code = cli.main(argv + ["--out", out])
        event(f"exit {code}")
        if code == EXIT_VALIDATION:
            if "config error: " not in err.getvalue():
                with open(os.path.join(out, "summary.json")) as fh:
                    assert json.load(fh)["status"] == "validation_error"
            return
        assert code in (EXIT_OK, EXIT_SOLVER)
        if command == "run":
            with open(os.path.join(out, "summary.json")) as fh:
                statuses = [json.load(fh)["status"]]
        else:
            with open(os.path.join(out, _STUDY_FILES[command])) as fh:
                statuses = [row["status"] for row in json.load(fh)]
        assert (code == EXIT_OK) == all(s == "completed" for s in statuses)
