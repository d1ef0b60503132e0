"""Configuration parsing and the command-line front end."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from penflow import (
    BlowupState,
    ConfigError,
    DataError,
    DivergenceError,
    GridSpec,
    InitialCondition,
    NormSeries,
    RealField,
    ScenarioConfig,
    SolverConfig,
    format_config,
    parse_config,
)
from penflow.cli import (
    EXIT_CLEAN,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_REGIME,
    EXIT_TRIPPED,
    SERIES_COLUMNS,
    export_plot_data,
    main,
    outcome,
    read_series_csv,
    run_scenario,
    TwinReport,
    twin_run,
    write_summary,
    write_twin_report,
)
import penflow
from penflow.config import _SCHEMA

REPO_BASELINE = Path(__file__).resolve().parent.parent / "configs" / "baseline.cfg"

SMALL_DOC = """\
[grid]
n = 32

[solver]
dt = 0.002
t_end = 0.04

[output]
output_every = 5
output_dir = {outdir}
"""


def small_config(tmp_path, **extra):
    doc = SMALL_DOC.format(outdir=tmp_path / "out")
    for section, kv in extra.items():
        doc += f"\n[{section}]\n"
        doc += "".join(f"{k} = {v}\n" for k, v in kv.items())
    path = tmp_path / "scenario.cfg"
    path.write_text(doc)
    return path


# one row per configuration rule: (id, section, key, a value the rule
# rejects, a fragment of its message); the *_type rows check the field's
# type, which the parser reads from the text and the API from the value,
# and the last two compare sections.  A row with section None is an
# API-only rule: the key has no config-file form.
RULE_ROWS = [
    ("dim", "grid", "dim", 5, "dim must be 2 or 3"),
    ("n", "grid", "n", 17, "power of two"),
    ("kind", "initial", "kind", "shear_layer", "kind must be one of"),
    ("amplitude", "initial", "amplitude", math.nan, "amplitude must be finite"),
    ("seed", "initial", "seed", -1, "seed must be >= 0"),
    ("spectrum_peak", "initial", "spectrum_peak", 0, "spectrum_peak must be >= 1"),
    ("dt", "solver", "dt", math.nan, "dt must be positive"),
    ("t_end", "solver", "t_end", math.inf, "t_end must be nonnegative"),
    ("cfl_safety", "solver", "cfl_safety", 1.5, "cfl_safety must lie in"),
    ("rho", "thermo", "rho", 0.0, "rho must be positive"),
    ("R", "thermo", "R", -1.0, "R must be positive"),
    ("c_v", "thermo", "c_v", math.nan, "c_v must be positive"),
    ("mu", "thermo", "mu", math.inf, "mu must be positive"),
    ("P0", "thermo", "P0", 0.0, "P0 must be positive"),
    ("mode", "diagnostics", "mode", "exact", "mode must be one of"),
    ("blowup_threshold", "diagnostics", "blowup_threshold", -5.0, "nonnegative"),
    ("output_every", "output", "output_every", 0, "output_every must be >= 1"),
    ("seed_type", "initial", "seed", 1.5, "seed must be given as an int, got"),
    ("output_every_type", "output", "output_every", 2.5, "output_every must be given"),
    ("dt_type", "solver", "dt", True, "dt must be a number, got"),
    ("kind_vs_dim", "initial", "kind", "taylor_green_3d", "requires dim = 3"),
    ("Q_vs_grid", None, "Q", RealField.zeros(GridSpec(2, 32)), "sampled on the"),
]
RULE_IDS = [row[0] for row in RULE_ROWS]
PARSED_ROWS = [row for row in RULE_ROWS if row[1] is not None]


def scenario_with(key, value):
    """The default scenario with one setting changed, through the API."""
    cfg = ScenarioConfig()
    for name in ("grid", "ic", "solver", "thermo"):
        part = getattr(cfg, name)
        if key in {f.name for f in dataclasses.fields(part)}:
            return dataclasses.replace(
                cfg, **{name: dataclasses.replace(part, **{key: value})}
            )
    return dataclasses.replace(cfg, **{key: value})


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ScenarioConfig()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n[grid]\nn = 32  # inline\n")
        assert cfg.grid.n == 32

    def test_power_of_two_message(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nn = 17\n")
        assert any("power of two" in issue for issue in exc.value.issues)

    def test_collects_all_errors_with_line_numbers(self):
        doc = "[grid]\nn = 17\ndim = 5\n[solver]\ndt = -1\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        issues = exc.value.issues
        assert len(issues) >= 3
        assert any(i.startswith("line 2:") for i in issues)
        assert any(i.startswith("line 3:") for i in issues)
        assert any(i.startswith("line 5:") for i in issues)

    @pytest.mark.parametrize(
        "doc, lines, fragment",
        [
            (f"[{sec}]\n{key} = {val}\n", (2,), text)
            for _, sec, key, val, text in PARSED_ROWS
        ]
        + [
            ("[grid]\nn = 12\n[initial]\nspectrum_peak = 0\n", (2, 4), ""),
            ("[grid]\nn = 17\n[output]\noutput_every = 0\n", (2, 4), ""),
            # the kind/dim rule waits until [grid] is valid
            ("[grid]\ndim = 3\nn = 17\n", (3,), "power of two"),
            # kind is absent: the issue goes to the dim line it compares
            ("[grid]\ndim = 3\n", (2,), "requires dim = 2"),
            # P0 is the only reference state; T0 is derived, not a key
            ("[thermo]\nP0 = 5.0\nT0 = 300\n", (3,), "unknown key 'T0'"),
            # the viscosity is mu/rho; nu is derived, not a key
            ("[solver]\ndt = 0.01\nnu = 0.1\n", (3,), "unknown key 'nu'"),
        ],
        ids=[row[0] for row in PARSED_ROWS]
        + [
            "n_and_spectrum_peak",
            "n_and_output_every",
            "kind_vs_dim_after_n",
            "kind_vs_dim_without_kind",
            "T0_unknown",
            "nu",
        ],
    )
    def test_every_rule_reported_with_its_line(self, doc, lines, fragment):
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        issues = exc.value.issues
        assert len(issues) == len(lines)
        for lineno in lines:
            assert any(i.startswith(f"line {lineno}:") for i in issues)
        assert any(fragment in i for i in issues)

    @pytest.mark.parametrize(
        "key, value, fragment",
        # the parser reads dim and n as int, the API checks their type
        [row[2:] for row in RULE_ROWS]
        + [
            ("dim", 2.0, "as an int, got 2.0"),
            ("n", 16.0, "as an int, got 16.0"),
            ("n", "16", "as an int, got '16'"),
        ],
        ids=RULE_IDS + ["dim_float", "n_float", "n_str"],
    )
    def test_api_rejects_what_the_parser_rejects(self, key, value, fragment):
        with pytest.raises(ConfigError) as exc:
            scenario_with(key, value)
        assert exc.value.fields == [key]
        assert fragment in exc.value.issues[0]

    def test_dataclass_reports_every_failed_field(self):
        with pytest.raises(ConfigError) as exc:
            SolverConfig(dt=0.0, t_end=math.inf, cfl_safety=2.0)
        assert exc.value.fields == ["dt", "t_end", "cfl_safety"]
        assert len(exc.value.issues) == 3

    def test_schema_matches_dataclass_fields(self):
        cfg = ScenarioConfig()
        parts = (cfg.grid, cfg.ic, cfg.solver, cfg.thermo, cfg)
        settable = {f.name for part in parts for f in dataclasses.fields(part)}
        settable -= {"grid", "ic", "solver", "thermo", "Q"}
        keys = [key for section in _SCHEMA.values() for key in section]
        assert len(keys) == len(set(keys))
        assert set(keys) == settable
        text = format_config(cfg)
        for key in keys:
            assert f"\n{key} = " in text

    def test_issues_listed_in_line_order(self):
        doc = "[solver]\nnu = 0.3\n[grid]\nn=3\n[thermo]\nrho=nan\nP0=-1\nT0 = x\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        lines = [int(i.split(":")[0].removeprefix("line ")) for i in exc.value.issues]
        # line 2: nu is not a key
        assert lines == [2, 4, 6, 7, 8]

    def test_unknown_section_and_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[physics]\ngamma = 1.4\n[grid]\nsize = 8\n")
        issues = exc.value.issues
        assert any("unknown section" in i for i in issues)
        assert any("unknown key" in i for i in issues)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\nn = 32\nn = 64\n")
        assert any("duplicate" in i for i in exc.value.issues)

    def test_bad_number(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[solver]\ndt = tiny\n")
        assert any("must be a number" in i for i in exc.value.issues)

    def test_nu_must_match_mu_over_rho(self):
        # nu is mu/rho by definition: a nu line is refused, and says so
        with pytest.raises(ConfigError) as exc:
            parse_config("[solver]\nnu = 0.3\n[thermo]\nmu = 0.1\nrho = 1.0\n")
        assert any("mu/rho" in i for i in exc.value.issues)

    def test_nu_defaults_to_mu_over_rho(self):
        cfg = parse_config("[thermo]\nmu = 0.5\nrho = 2.0\n")
        assert cfg.thermo.nu == pytest.approx(0.25)

    def test_taylor_green_dim_mismatch(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[grid]\ndim = 3\nn = 16\n")
        assert any("requires dim = 2" in i for i in exc.value.issues)

    def test_shipped_baseline_parses(self):
        cfg = parse_config(REPO_BASELINE.read_text())
        assert cfg.grid == GridSpec(2, 64)
        assert cfg.solver.t_end == 1.0
        assert cfg.blowup_threshold == 478.0

    def test_format_parse_roundtrip(self):
        for cfg in (
            ScenarioConfig(),
            parse_config(REPO_BASELINE.read_text()),
            ScenarioConfig(
                grid=GridSpec(3, 16),
                ic=InitialCondition("random_divfree", amplitude=0.5, seed=9),
                solver=SolverConfig(dt=0.01, t_end=0.1),
                thermo=dataclasses.replace(ScenarioConfig().thermo, mu=0.2),
                mode="finite_difference",
            ),
        ):
            assert parse_config(format_config(cfg)) == cfg

    def test_format_is_idempotent(self):
        text = format_config(ScenarioConfig())
        assert format_config(parse_config(text)) == text


class TestRunScenario:
    def test_writes_outputs(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        series, code = run_scenario(cfg)
        assert code == EXIT_CLEAN
        out = tmp_path / "out"
        assert (out / "series.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "u_000000.ckpt").exists()
        assert (out / "p_model_000000.ckpt").exists()

    def test_series_csv_shape_and_content(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        series, _ = run_scenario(cfg)
        header, rows = read_series_csv(tmp_path / "out" / "series.csv")
        assert header == SERIES_COLUMNS
        assert len(rows) == len(series) == 5  # t = 0 plus 20 steps / 5
        ts = [float(r[0]) for r in rows]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        for row in rows:
            for name, cell in zip(header, row):
                if name in ("in_regime", "tripped"):
                    assert cell in ("true", "false")
                elif cell:  # ratio may be empty where undefined
                    assert math.isfinite(float(cell))

    def test_repeated_section_duplicates_rejected(self, tmp_path):
        path = small_config(tmp_path, solver={"t_end": 0.0})
        with pytest.raises(ConfigError) as exc:
            parse_config(path.read_text())
        assert any("duplicate" in i for i in exc.value.issues)

    def test_zero_t_end_single_row(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, t_end=0.0))
        series, code = run_scenario(cfg)
        assert code == EXIT_CLEAN
        _, rows = read_series_csv(tmp_path / "out" / "series.csv")
        assert len(rows) == len(series) == 1

    def test_zero_threshold_trips(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        cfg = dataclasses.replace(cfg, blowup_threshold=0.0)
        series, code = run_scenario(cfg)
        assert code == EXIT_TRIPPED
        assert series.tripped
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "tripped" in summary

    def test_summary_embeds_config(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        run_scenario(cfg)
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert format_config(cfg).rstrip() in summary


class TestExport:
    def test_one_file_per_column(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        run_scenario(cfg)
        written = export_plot_data(tmp_path / "out")
        assert len(written) == len(SERIES_COLUMNS) - 1
        ke = (tmp_path / "out" / "plot_kinetic_energy.csv").read_text()
        lines = [l for l in ke.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,kinetic_energy"
        assert float(lines[1].split(",")[1]) == pytest.approx(np.pi**2, rel=1e-10)

    @pytest.mark.parametrize(
        "text",
        ["", "t,kinetic_energy\n0.0,1.0\n0.1\n"],
        ids=["empty", "short-row"],
    )
    def test_malformed_series_is_a_data_error(self, tmp_path, capsys, text):
        (tmp_path / "series.csv").write_text(text)
        with pytest.raises(DataError, match="series.csv"):
            export_plot_data(tmp_path)
        assert main(["export", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "series.csv" in err
        assert not list(tmp_path.glob("plot_*.csv"))

    def test_reexport_is_byte_identical(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        run_scenario(cfg)
        first = {p: p.read_bytes() for p in export_plot_data(tmp_path / "out")}
        second = {p: p.read_bytes() for p in export_plot_data(tmp_path / "out")}
        assert first == second


class TestTwinRun:
    def _cfg(self, tmp_path):
        cfg = parse_config(small_config(tmp_path).read_text())
        return dataclasses.replace(
            cfg, ic=InitialCondition("random_divfree", seed=7)
        )

    def test_zero_perturbation_identical(self, tmp_path):
        report = twin_run(self._cfg(tmp_path), 0.0)
        assert max(report.du_l2) == 0.0
        assert max(report.dp_norm_E) == 0.0
        assert report.divergence_rate is None

    def test_difference_ordering(self, tmp_path):
        cfg = self._cfg(tmp_path)
        small = twin_run(cfg, 1e-8)
        large = twin_run(cfg, 1e-2)
        assert all(s <= l for s, l in zip(small.du_l2, large.du_l2))
        assert all(s <= l for s, l in zip(small.dp_norm_E, large.dp_norm_E))
        assert 0 < max(small.du_l2) < max(large.du_l2)

    def test_negative_perturbation_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            twin_run(self._cfg(tmp_path), -0.1)

    @pytest.mark.parametrize("perturbation", [math.nan, math.inf])
    def test_non_finite_perturbation_rejected(self, tmp_path, perturbation):
        with pytest.raises(ConfigError):
            twin_run(self._cfg(tmp_path), perturbation)

    def test_report_files(self, tmp_path):
        report = twin_run(self._cfg(tmp_path), 1e-4)
        write_twin_report(report, tmp_path / "twin")
        body = (tmp_path / "twin" / "twin_series.csv").read_text()
        assert body.splitlines()[0] == "t,dp_norm_E,du_l2"
        assert len(body.splitlines()) == len(report.times) + 1
        assert (tmp_path / "twin" / "twin_summary.txt").exists()


class TestMain:
    def test_check_ok(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert main(["check", str(path)]) == EXIT_CLEAN
        assert "configuration OK" in capsys.readouterr().out

    def test_check_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nn = 17\n")
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--seed", "-1"], ["twin", "--perturb", "nan"]],
        ids=["seed", "perturb"],
    )
    def test_bad_flag_is_a_config_error(self, tmp_path, capsys, argv):
        path = small_config(tmp_path, initial={"kind": "random_divfree"})
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_regime_exit_is_an_outcome(self, tmp_path):
        # amplitude 10 at P0 = 1: the t=0 sample finds the total pressure
        # nonpositive; the run stops with its own exit code and still
        # writes the (empty) series and a summary naming the exit
        path = small_config(tmp_path, initial={"amplitude": 10}, thermo={"P0": 1})
        assert main(["run", str(path)]) == EXIT_REGIME
        header, rows = read_series_csv(tmp_path / "out" / "series.csv")
        assert header == SERIES_COLUMNS and rows == []
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "status               : regime exit at t = 0:" in summary
        assert "always in regime   : false" in summary
        assert "c_fit              : n/a" in summary

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.cfg"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_run_and_export(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_CLEAN
        assert main(["export", str(tmp_path / "out")]) == EXIT_CLEAN

    def test_output_dir_override(self, tmp_path):
        path = small_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["run", str(path), "--output-dir", str(override)]) == EXIT_CLEAN
        assert (override / "series.csv").exists()

    def test_seed_override_changes_random_run(self, tmp_path):
        path = small_config(tmp_path, initial={"kind": "random_divfree"})
        main(["run", str(path), "--seed", "1", "--output-dir", str(tmp_path / "a")])
        main(["run", str(path), "--seed", "2", "--output-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "series.csv").read_text()
        b = (tmp_path / "b" / "series.csv").read_text()
        assert a != b

    def test_twin_command(self, tmp_path):
        path = small_config(tmp_path, initial={"kind": "random_divfree"})
        code = main(
            ["twin", str(path), "--perturb", "1e-6",
             "--output-dir", str(tmp_path / "tw")]
        )
        assert code == EXIT_CLEAN
        assert (tmp_path / "tw" / "twin_series.csv").exists()

    def test_twin_regime_exit_is_an_outcome(self, tmp_path):
        # the config of test_regime_exit_is_an_outcome: both runs leave the
        # regime at their t=0 sample; the twin stops with run's exit code
        # and still writes its (empty) series and a summary naming the exit
        path = small_config(tmp_path, initial={"amplitude": 10}, thermo={"P0": 1})
        out = tmp_path / "tw"
        code = main(["twin", str(path), "--perturb", "1e-6", "--output-dir", str(out)])
        assert code == EXIT_REGIME
        assert (out / "twin_series.csv").read_text() == "t,dp_norm_E,du_l2\n"
        summary = (out / "twin_summary.txt").read_text()
        status = "status                : regime exit at t = 0: total pressure"
        assert status in summary

    def test_twin_divergence_is_an_outcome(self, tmp_path, monkeypatch):
        # the 13th step, the first run's 8th (the two runs alternate five
        # steps at a time), diverges: the twin stops with run's exit code,
        # keeps the two matched samples before it and records its time
        path = small_config(tmp_path)
        out = tmp_path / "tw"
        # every step makes its new state in solver._new_state
        new_state = penflow.solver._new_state
        times = []

        def diverges_at_13th(*args, **kwargs):
            state = new_state(*args, **kwargs)
            times.append(state.t)
            if len(times) == 13:
                raise DivergenceError(state.t)
            return state

        reports = []
        write = penflow.cli.write_twin_report

        def keep(report, outdir):
            reports.append(report)
            write(report, outdir)

        monkeypatch.setattr(penflow.solver, "_new_state", diverges_at_13th)
        monkeypatch.setattr(penflow.cli, "write_twin_report", keep)
        code = main(["twin", str(path), "--perturb", "1e-6", "--output-dir", str(out)])
        assert code == EXIT_DIVERGED
        rows = (out / "twin_series.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, pytest.approx(0.01)]
        summary = (out / "twin_summary.txt").read_text()
        assert "status                : numerical divergence at t = 0.016\n" in summary
        assert reports[0].diverged_at == times[12] == pytest.approx(0.016)

    def test_run_is_deterministic(self, tmp_path):
        path = small_config(tmp_path)
        main(["run", str(path), "--output-dir", str(tmp_path / "r1")])
        main(["run", str(path), "--output-dir", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "series.csv").read_bytes() == (
            tmp_path / "r2" / "series.csv"
        ).read_bytes()


@pytest.mark.parametrize(
    "diverged_at, regime_exit_at, tripped, status, code",
    [
        (0.5, 0.25, True, "numerical divergence at t = 0.5", EXIT_DIVERGED),
        (None, 0.25, True, "regime exit at t = 0.25: total pressure nonpositive",
         EXIT_REGIME),
        (None, None, True, "accumulator tripped", EXIT_TRIPPED),
        (None, None, False, "clean", EXIT_CLEAN),
    ],
    ids=["all", "regime_and_trip", "trip", "none"],
)
def test_outcome_is_the_first_ending_that_applies(
    diverged_at, regime_exit_at, tripped, status, code
):
    series = NormSeries(blowup=BlowupState(threshold=1.0, tripped=tripped))
    series.diverged_at, series.regime_exit_at = diverged_at, regime_exit_at
    assert outcome(series) == (status, code)


def _status(path):
    (line,) = [ln for ln in path.read_text().splitlines() if ln.startswith("status ")]
    return line.partition(" : ")[2]


@pytest.mark.parametrize(
    "ending",
    [{}, {"tripped": True}, {"diverged_at": 0.016}, {"regime_exit_at": 0.25}],
    ids=["clean", "tripped", "divergence", "regime_exit"],
)
def test_both_summaries_take_their_status_from_outcome(tmp_path, ending):
    series = NormSeries(
        blowup=BlowupState(threshold=1.0, tripped=ending.get("tripped", False))
    )
    report = TwinReport(1e-6, [], [], [])
    for record in (series, report):
        record.diverged_at = ending.get("diverged_at")
        record.regime_exit_at = ending.get("regime_exit_at")
    write_summary(series, tmp_path / "summary.txt")
    assert _status(tmp_path / "summary.txt") == outcome(series)[0]
    if "tripped" not in ending:  # a twin has no accumulator to trip
        write_twin_report(report, tmp_path)
        assert _status(tmp_path / "twin_summary.txt") == outcome(report)[0]


@pytest.mark.parametrize(
    "command, initial, flags, code, lines",
    [
        # |u| of 1e101 diverges at t = 0, before the first sample
        ("run", {"amplitude": 1e101}, [], EXIT_DIVERGED,
         ["  worst delta_T_rel  : n/a", "  always in regime   : n/a",
          "  samples_used       : 0", "  final value        : 0.0"]),
        # a zero flow: every sample's ||P||_E^2 is 0
        ("run", {"amplitude": 0}, [], EXIT_CLEAN,
         ["  c_fit              : n/a", "  c_max              : n/a",
          "  samples_used       : 0", "  always in regime   : true"]),
        ("twin", {"amplitude": 1e101}, ["--perturb", "1e-6"], EXIT_DIVERGED,
         ["max ||u1-u2||_L2      : n/a", "max ||P1-P2||_E       : n/a",
          "samples               : 0",
          "status                : numerical divergence at t = 0"]),
        # identical runs: no nonzero difference to fit a slope to
        ("twin", {}, ["--perturb", "0"], EXIT_CLEAN,
         ["log-difference slope  : n/a", "max ||u1-u2||_L2      : 0.0"]),
    ],
    ids=["run_no_sample", "run_all_degenerate", "twin_no_sample", "twin_no_difference"],
)
def test_a_missing_summary_value_reads_na(
    tmp_path, command, initial, flags, code, lines
):
    path = small_config(tmp_path, initial=initial)
    assert main([command, str(path), *flags]) == code
    name = "summary.txt" if command == "run" else "twin_summary.txt"
    summary = (tmp_path / "out" / name).read_text().splitlines()
    assert [line for line in lines if line not in summary] == []


def test_2d_baseline_starts_no_thread(tmp_path):
    # the shipped 2D scenario never reaches the split path: a fresh
    # interpreter running it imports no executor and starts no thread
    code = f"""
import dataclasses, sys, threading
from penflow.cli import run_scenario
from penflow.config import parse_config
cfg = parse_config(open({str(REPO_BASELINE)!r}).read())
cfg = dataclasses.replace(
    cfg,
    solver=dataclasses.replace(cfg.solver, t_end=0.02),
    output_dir={str(tmp_path)!r},
)
run_scenario(cfg)
print("concurrent.futures" in sys.modules, threading.active_count())
"""
    src = str(Path(penflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "1"]
    assert (tmp_path / "series.csv").exists()
