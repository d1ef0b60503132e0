"""Experiment runner CLI.

Commands:
    penflow run <config>                 integrate and persist diagnostics
    penflow twin <config> --perturb e    two runs, the twin's initial
                                         amplitude scaled by (1 + e)
    penflow check <config>               validate the configuration only
    penflow export <run-dir>             tidy per-diagnostic CSV files

Exit status: 0 clean, 1 config/I-O error (for export, a malformed
series.csv too), 2 blow-up accumulator tripped, 3 numerical divergence, 4
regime exit (total pressure nonpositive).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, is_dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .energy import NormSample, NormSeries, norm_E_squared
from .errors import ConfigError, DataError, _field_types
from .config import format_config, parse_config
from .solver import (
    RunSample,
    ScenarioConfig,
    run,
    save_checkpoint,
    simulate,
    until_end,
)
from .spectral import RealField, l2_norm_sq

EXIT_CLEAN = 0
EXIT_CONFIG = 1
EXIT_TRIPPED = 2
EXIT_DIVERGED = 3
EXIT_REGIME = 4


def _leaf_paths(cls, prefix=""):
    """Dotted paths to a dataclass's fields, a nested dataclass expanded."""
    for name, hint in _field_types(cls):
        if is_dataclass(hint):
            yield from _leaf_paths(hint, f"{prefix}{name}.")
        else:
            yield prefix + name


# one column per NormSample field (regime expanded into RegimeReport's),
# then two of the BlowupState after the sample
_SAMPLE_PATHS = tuple(_leaf_paths(NormSample))
_BLOWUP_FIELDS = ("accumulator", "tripped")
SERIES_COLUMNS = [p.rpartition(".")[2] for p in _SAMPLE_PATHS] + list(_BLOWUP_FIELDS)

CHECKPOINT_SAMPLE_STRIDE = 10


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x))


def series_rows(series: NormSeries):
    sample_values = attrgetter(*_SAMPLE_PATHS)
    blowup_values = attrgetter(*_BLOWUP_FIELDS)
    for sample, blow in zip(series.samples, series.blowup_history):
        yield [*sample_values(sample), *blowup_values(blow)]


def write_series_csv(series: NormSeries, path: Path) -> None:
    lines = [",".join(SERIES_COLUMNS)]
    for row in series_rows(series):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def outcome(record) -> tuple[str, int]:
    """The status text and exit status of how a run ended, the first ending
    that applies in this order; record is a NormSeries or a TwinReport."""
    if record.diverged_at is not None:
        return f"numerical divergence at t = {record.diverged_at:.6g}", EXIT_DIVERGED
    if record.regime_exit_at is not None:
        t = record.regime_exit_at
        return f"regime exit at t = {t:.6g}: total pressure nonpositive", EXIT_REGIME
    if record.tripped:
        return "accumulator tripped", EXIT_TRIPPED
    return "clean", EXIT_CLEAN


def write_summary(series: NormSeries, path: Path) -> None:
    cfg = series.scenario
    bound = series.bound
    last = series.samples[-1] if series.samples else None
    worst_delta = max((s.regime.delta_T_rel for s in series.samples), default=0.0)
    in_regime = series.regime_exit_at is None and all(
        s.regime.in_regime for s in series.samples
    )
    lines = [
        "penflow run summary",
        "===================",
        f"samples recorded     : {len(series)}",
        f"final time           : {_fmt(last.t) if last else 'n/a'}",
        f"status               : {outcome(series)[0]}",
        "",
        "dissipation bound fit (grad_energy <= C * ||P||_E^2)",
        f"  c_fit              : {_fmt(bound.c_fit) if bound else 'n/a'}",
        f"  c_max              : {_fmt(bound.c_max) if bound else 'n/a'}",
        f"  samples_used       : {bound.samples_used if bound else 0}",
        "",
        "blow-up accumulator (integral of ||P||_E^2 dt)",
        f"  final value        : {_fmt(series.blowup.accumulator)}",
        f"  threshold          : {_fmt(series.blowup.threshold)}",
        f"  tripped            : {_fmt(series.blowup.tripped)}",
        "  note: a trip can mean the solution approaches a loss of",
        "  regularity, or merely that the threshold is calibrated too",
        "  low for this mesh and scenario; both readings are possible.",
        "",
        "quasi-incompressible regime (|T - T0|/T0 < 2%)",
        f"  worst delta_T_rel  : {_fmt(worst_delta)}",
        f"  always in regime   : {_fmt(in_regime)}",
    ]
    if cfg is not None:
        lines += ["", "scenario", "--------", format_config(cfg).rstrip()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_scenario(cfg: ScenarioConfig) -> tuple[NormSeries, int]:
    """Execute one scenario, writing series.csv, summary.txt and checkpoints."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    sample_count = 0

    def on_sample(rs: RunSample) -> None:
        nonlocal sample_count
        if sample_count % CHECKPOINT_SAMPLE_STRIDE == 0:
            save_checkpoint(outdir / f"u_{rs.index:06d}.ckpt", rs.state.u, rs.state.t)
            save_checkpoint(
                outdir / f"p_model_{rs.index:06d}.ckpt", rs.p_model, rs.state.t
            )
        sample_count += 1

    series = run(cfg, on_sample=on_sample)
    write_series_csv(series, outdir / "series.csv")
    write_summary(series, outdir / "summary.txt")
    return series, outcome(series)[1]


@dataclass
class TwinReport:
    """Paired-run uniqueness probe: difference norms at matched times."""

    perturbation: float
    times: list[float]
    dp_norm_E: list[float]
    du_l2: list[float]
    divergence_rate: float | None = None
    diverged_at: float | None = None
    regime_exit_at: float | None = None
    # a twin run has no blow-up accumulator to trip
    tripped = False


def twin_run(cfg: ScenarioConfig, perturbation: float) -> TwinReport:
    """Run the scenario and its twin, whose initial amplitude is scaled by
    (1 + perturbation); make_initial is linear in the amplitude, so the
    twin starts from (1 + perturbation) * u0.

    Reports ||P1 - P2||_E and ||u1 - u2||_L2 at every matched sample, plus
    the least-squares slope of log ||u1 - u2|| against t.  A divergence or
    a regime exit of either run ends both, with the samples before it kept.
    """
    if not 0 <= perturbation < math.inf:
        raise ConfigError("perturbation must be nonnegative and finite")
    twin = replace(
        cfg, ic=replace(cfg.ic, amplitude=cfg.ic.amplitude * (1 + perturbation))
    )
    report = TwinReport(perturbation, [], [], [])
    grid = cfg.grid
    for a, b in until_end(report, zip(simulate(cfg), simulate(twin))):
        # the pressure differences are taken on the half spectra, which
        # norm_E_squared sums
        d_p = RealField.from_half_spectrum(
            grid, a.state.P.half_spectrum() - b.state.P.half_spectrum()
        )
        d_dtp = RealField.from_half_spectrum(
            grid, a.dtp.half_spectrum() - b.dtp.half_spectrum()
        )
        d_u = RealField(grid, a.state.u.data - b.state.u.data)
        report.times.append(a.sample.t)
        report.dp_norm_E.append(float(np.sqrt(norm_E_squared(d_p, d_dtp)[0])))
        report.du_l2.append(float(np.sqrt(l2_norm_sq(d_u))))
    pts = [(t, d) for t, d in zip(report.times, report.du_l2) if d > 0]
    if len(pts) >= 2:
        ts = np.array([p[0] for p in pts])
        logs = np.log(np.array([p[1] for p in pts]))
        report.divergence_rate = float(np.polyfit(ts, logs, 1)[0])
    return report


def write_twin_report(report: TwinReport, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["t,dp_norm_E,du_l2"]
    for t, p, u in zip(report.times, report.dp_norm_E, report.du_l2):
        lines.append(f"{_fmt(t)},{_fmt(p)},{_fmt(u)}")
    (outdir / "twin_series.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = [
        "penflow twin-run summary",
        "========================",
        f"perturbation          : {_fmt(report.perturbation)}",
        f"samples               : {len(report.times)}",
        f"max ||u1-u2||_L2      : {_fmt(max(report.du_l2, default=0.0))}",
        f"max ||P1-P2||_E       : {_fmt(max(report.dp_norm_E, default=0.0))}",
        f"log-difference slope  : {_fmt(report.divergence_rate)}",
        f"diverged              : {_fmt(report.diverged_at is not None)}",
        f"regime exit at t      : {_fmt(report.regime_exit_at) or 'none'}",
    ]
    (outdir / "twin_summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")


def read_series_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a series.csv; DataError if it has no header
    or a row whose field count is not the header's."""
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise DataError(f"{path} has no header")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for lineno, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {lineno} has {len(row)} fields, the header "
                f"{len(header)}"
            )
    return header, rows


def export_plot_data(run_dir: Path) -> list[Path]:
    """Write one tidy (t, value) CSV per diagnostic column of series.csv."""
    header, rows = read_series_csv(Path(run_dir) / "series.csv")
    written = []
    for idx, name in enumerate(header):
        if name == "t":
            continue
        out = Path(run_dir) / f"plot_{name}.csv"
        lines = [
            f"# penflow diagnostic export: {name} against time",
            "# columns: t (s), value (model units; empty where undefined)",
            f"t,{name}",
        ]
        for row in rows:
            lines.append(f"{row[0]},{row[idx]}")
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(out)
    return written


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    if getattr(args, "output_dir", None):
        cfg = replace(cfg, output_dir=args.output_dir)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, ic=replace(cfg.ic, seed=args.seed))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="penflow",
        description="Pseudo-spectral Navier-Stokes runs with pressure-energy "
        "norm diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a scenario configuration file")
        p.add_argument("--output-dir", help="override the configured output path")
        p.add_argument("--seed", type=int, help="override the configured seed")
        return p

    add_config_cmd("run", "integrate a scenario and persist its diagnostics")
    twin = add_config_cmd("twin", "uniqueness probe: paired perturbed runs")
    twin.add_argument(
        "--perturb", type=float, required=True, help="relative initial perturbation"
    )
    add_config_cmd("check", "validate a configuration without running it")
    exp = sub.add_parser("export", help="write plot-ready CSVs from a finished run")
    exp.add_argument("run_dir", help="directory containing series.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "export":
            try:
                written = export_plot_data(Path(args.run_dir))
            except DataError as exc:
                # a malformed series.csv; elsewhere a DataError is a bug
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            for path in written:
                print(path)
            return EXIT_CLEAN
        cfg = _load_config(args)
        if args.command == "check":
            print("configuration OK")
            return EXIT_CLEAN
        if args.command == "run":
            series, code = run_scenario(cfg)
            print(f"wrote {Path(cfg.output_dir) / 'series.csv'} ({len(series)} samples)")
            return code
        report = twin_run(cfg, args.perturb)
        write_twin_report(report, Path(cfg.output_dir))
        print(f"wrote {Path(cfg.output_dir) / 'twin_series.csv'}")
        return outcome(report)[1]
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
