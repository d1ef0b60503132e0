"""Plain-text scenario configuration: sections with `key = value` lines.

Example document (all keys optional, defaults shown in format_config):

    [grid]
    dim = 2
    n = 64

    [solver]
    dt = 0.001
    t_end = 1.0

parse_config collects every problem it finds (with line numbers) before
raising, so a broken file reports all of its errors at once.
"""

from __future__ import annotations

from .energy import MATERIAL_DERIVATIVE_MODES
from .errors import ConfigError
from .flow import ThermoParams
from .solver import (
    DEFAULT_BLOWUP_THRESHOLD,
    IC_KINDS,
    InitialCondition,
    ScenarioConfig,
    SolverConfig,
)
from .spectral import GridSpec

_SCHEMA = {
    "grid": {"dim": int, "n": int},
    "initial": {"kind": str, "amplitude": float, "seed": int, "spectrum_peak": int},
    "solver": {
        "dt": float,
        "t_end": float,
        "nu": float,
        "scheme": str,
        "cfl_safety": float,
        "source_prefactor": float,
    },
    "thermo": {"rho": float, "R": float, "c_v": float, "mu": float, "P0": float, "T0": float},
    "diagnostics": {"mode": str, "blowup_threshold": float},
    "output": {"output_every": int, "output_dir": str},
}


def _parse_sections(text: str, errors: list[str]):
    """Raw (section, key) -> (value string, line number) map."""
    values: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any known section")
            continue
        if key not in _SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in values:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
            continue
        values[(section, key)] = (value, lineno)
    return values


def _get(values, errors, section, key, default):
    if (section, key) not in values:
        return default
    raw, lineno = values.pop((section, key))
    typ = _SCHEMA[section][key]
    if typ is str:
        return raw
    try:
        if typ is int:
            return int(raw)
        return float(raw)
    except ValueError:
        errors.append(
            f"line {lineno}: {key} must be {'an integer' if typ is int else 'a number'},"
            f" got {raw!r}"
        )
        return default


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a configuration document.

    Raises ConfigError listing every problem found, each with its line
    reference where one exists.
    """
    errors: list[str] = []
    values = _parse_sections(text, errors)
    lines = {k: v[1] for k, v in values.items()}

    def where(section, key):
        return f"line {lines[(section, key)]}: " if (section, key) in lines else ""

    dim = _get(values, errors, "grid", "dim", 2)
    n = _get(values, errors, "grid", "n", 64)
    kind = _get(values, errors, "initial", "kind", "taylor_green_2d")
    amplitude = _get(values, errors, "initial", "amplitude", 1.0)
    seed = _get(values, errors, "initial", "seed", 0)
    spectrum_peak = _get(values, errors, "initial", "spectrum_peak", 4)
    dt = _get(values, errors, "solver", "dt", 1e-3)
    t_end = _get(values, errors, "solver", "t_end", 1.0)
    nu_where = where("solver", "nu")
    nu = _get(values, errors, "solver", "nu", None)
    scheme = _get(values, errors, "solver", "scheme", "rk4")
    cfl_safety = _get(values, errors, "solver", "cfl_safety", 0.5)
    source_prefactor = _get(values, errors, "solver", "source_prefactor", None)
    rho = _get(values, errors, "thermo", "rho", 1.0)
    R = _get(values, errors, "thermo", "R", 287.0)
    c_v = _get(values, errors, "thermo", "c_v", 717.5)
    mu = _get(values, errors, "thermo", "mu", 0.1)
    P0 = _get(values, errors, "thermo", "P0", 101325.0)
    T0 = _get(values, errors, "thermo", "T0", None)
    mode = _get(values, errors, "diagnostics", "mode", "model_rhs")
    blowup_threshold = _get(
        values, errors, "diagnostics", "blowup_threshold", DEFAULT_BLOWUP_THRESHOLD
    )
    output_every = _get(values, errors, "output", "output_every", 10)
    output_dir = _get(values, errors, "output", "output_dir", "runs/out")

    if dim not in (2, 3):
        errors.append(f"{where('grid', 'dim')}dim must be 2 or 3")
    if n < 8 or (n & (n - 1)) != 0:
        errors.append(f"{where('grid', 'n')}n must be a power of two >= 8")
    if kind not in IC_KINDS:
        errors.append(f"{where('initial', 'kind')}kind must be one of {IC_KINDS}")
    if spectrum_peak < 1:
        errors.append(
            f"{where('initial', 'spectrum_peak')}spectrum_peak must be >= 1"
        )
    if dt <= 0:
        errors.append(f"{where('solver', 'dt')}dt must be positive")
    if t_end < 0:
        errors.append(f"{where('solver', 't_end')}t_end must be nonnegative")
    if scheme != "rk4":
        errors.append(f"{where('solver', 'scheme')}scheme must be rk4")
    if not 0 < cfl_safety <= 1:
        errors.append(f"{where('solver', 'cfl_safety')}cfl_safety must lie in (0, 1]")
    for name, value in (("rho", rho), ("R", R), ("c_v", c_v), ("mu", mu), ("P0", P0)):
        if value <= 0:
            errors.append(f"{where('thermo', name)}{name} must be positive")
    if T0 is not None and T0 <= 0:
        errors.append(f"{where('thermo', 'T0')}T0 must be positive")
    if mode not in MATERIAL_DERIVATIVE_MODES:
        errors.append(
            f"{where('diagnostics', 'mode')}mode must be one of"
            f" {MATERIAL_DERIVATIVE_MODES}"
        )
    if blowup_threshold < 0:
        errors.append(
            f"{where('diagnostics', 'blowup_threshold')}blowup_threshold must be"
            " nonnegative"
        )
    if output_every < 1:
        errors.append(f"{where('output', 'output_every')}output_every must be >= 1")

    # the solver viscosity is mu/rho; an explicit nu must agree
    if nu is None:
        if rho > 0 and mu > 0:
            nu = mu / rho
        else:
            nu = 0.1
    elif rho > 0 and mu > 0 and abs(nu - mu / rho) > 1e-12 * max(1.0, abs(nu)):
        errors.append(f"{nu_where}nu must equal mu/rho = {mu / rho!r}")

    if (kind == "taylor_green_2d" and dim != 2) or (
        kind == "taylor_green_3d" and dim != 3
    ):
        errors.append(f"{where('initial', 'kind')}{kind} requires dim = {kind[-2]}")

    if errors:
        raise ConfigError(errors)

    return ScenarioConfig(
        grid=GridSpec(dim=dim, n=n),
        ic=InitialCondition(
            kind=kind, amplitude=amplitude, seed=seed, spectrum_peak=spectrum_peak
        ),
        solver=SolverConfig(
            dt=dt,
            t_end=t_end,
            nu=nu,
            scheme=scheme,
            cfl_safety=cfl_safety,
            source_prefactor=source_prefactor,
        ),
        thermo=ThermoParams(rho=rho, R=R, c_v=c_v, mu=mu),
        P0=P0,
        T0=T0,
        mode=mode,
        blowup_threshold=blowup_threshold,
        output_every=output_every,
        output_dir=output_dir,
    )


def format_config(cfg: ScenarioConfig) -> str:
    """Emit the canonical document; parse_config(format_config(cfg)) == cfg."""
    lines = [
        "[grid]",
        f"dim = {cfg.grid.dim}",
        f"n = {cfg.grid.n}",
        "",
        "[initial]",
        f"kind = {cfg.ic.kind}",
        f"amplitude = {cfg.ic.amplitude!r}",
        f"seed = {cfg.ic.seed}",
        f"spectrum_peak = {cfg.ic.spectrum_peak}",
        "",
        "[solver]",
        f"dt = {cfg.solver.dt!r}",
        f"t_end = {cfg.solver.t_end!r}",
        f"nu = {cfg.solver.nu!r}",
        f"scheme = {cfg.solver.scheme}",
        f"cfl_safety = {cfg.solver.cfl_safety!r}",
    ]
    if cfg.solver.source_prefactor is not None:
        lines.append(f"source_prefactor = {cfg.solver.source_prefactor!r}")
    lines += [
        "",
        "[thermo]",
        f"rho = {cfg.thermo.rho!r}",
        f"R = {cfg.thermo.R!r}",
        f"c_v = {cfg.thermo.c_v!r}",
        f"mu = {cfg.thermo.mu!r}",
        f"P0 = {cfg.P0!r}",
        f"T0 = {cfg.T0!r}",
        "",
        "[diagnostics]",
        f"mode = {cfg.mode}",
        f"blowup_threshold = {cfg.blowup_threshold!r}",
        "",
        "[output]",
        f"output_every = {cfg.output_every}",
        f"output_dir = {cfg.output_dir}",
        "",
    ]
    return "\n".join(lines)
