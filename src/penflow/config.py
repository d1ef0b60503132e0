"""Plain-text scenario configuration: sections with `key = value` lines.

Example document (all keys optional, defaults shown in format_config):

    [grid]
    dim = 2
    n = 64

    [solver]
    dt = 0.001
    t_end = 1.0

Every rule, type and default lives in the configuration dataclasses
(GridSpec, InitialCondition, SolverConfig, ThermoParams and ScenarioConfig):
a value's text is converted with the annotation of the field its key sets.
parse_config reads the document, builds those objects from the keys it
gives and prefixes each problem they report with its line, so a broken file
reports all of its errors at once, in line order.  A rule that compares
sections (a Taylor-Green kind against dim) is reported once the grid,
initial, solver and thermo settings are all valid, on the line of the key
it names or, if that key is absent, of the other key it compares.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .errors import ConfigError, _field_types, type_issue
from .solver import ScenarioConfig

# file section -> its keys; a key names the dataclass field it sets and is
# unique across sections
_SCHEMA = {
    "grid": ("dim", "n"),
    "initial": ("kind", "amplitude", "seed", "spectrum_peak"),
    "solver": ("dt", "t_end", "cfl_safety"),
    "thermo": ("rho", "R", "c_v", "mu", "P0"),
    "diagnostics": ("mode", "blowup_threshold"),
    "output": ("output_every", "output_dir"),
}

# ScenarioConfig's sub-objects
_PARTS = ("grid", "ic", "solver", "thermo")

# field name -> annotation, over ScenarioConfig and its sub-objects; a key's
# annotation is int, float or str, which also converts its text
_TYPES = dict(_field_types(ScenarioConfig))
for _part in _PARTS:
    _TYPES.update(_field_types(_TYPES[_part]))

# keys that are derived from others, not set: the hint a line setting one gets
_DERIVED = {"nu": "the viscosity is [thermo] mu/rho"}

# a rule comparing sections names one key; if the file lacks it, the issue
# goes to the other key's line
_COMPARED = {"kind": "dim"}


def _parse_lines(text: str, issues: list[tuple[int, str]]):
    """key -> typed value, and key -> line number of every key seen."""
    given: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                issues.append((lineno, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            issues.append((lineno, f"expected `key = value`, got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            issues.append((lineno, f"key {key!r} outside any known section"))
            continue
        if key not in _SCHEMA[section]:
            issue = f"unknown key {key!r} in section [{section}]"
            if key in _DERIVED:
                issue += f" ({_DERIVED[key]})"
            issues.append((lineno, issue))
            continue
        if key in lines:
            issues.append((lineno, f"duplicate key {key!r} in [{section}]"))
            continue
        lines[key] = lineno
        typ = _TYPES[key]
        try:
            given[key] = typ(value)
        except ValueError:
            issues.append((lineno, type_issue(key, typ, value)))
    return given, lines


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a configuration document.

    Raises ConfigError listing every problem found in line order, each with
    its line reference where one exists; issues without a line come last.
    """
    issues: list[tuple[int | None, str]] = []
    given, lines = _parse_lines(text, issues)
    own = {f.name for f in fields(ScenarioConfig)}

    def report(exc: ConfigError, cross_section: bool = True):
        for key, issue in zip(exc.fields, exc.issues):
            if cross_section or key in own:
                issues.append((lines.get(key, lines.get(_COMPARED.get(key))), issue))

    defaults = ScenarioConfig()
    parts = {}
    for name in _PARTS:
        part = getattr(defaults, name)
        kwargs = {f.name: given.pop(f.name) for f in fields(part) if f.name in given}
        try:
            parts[name] = replace(part, **kwargs)
        except ConfigError as exc:
            report(exc)
    try:
        cfg = ScenarioConfig(
            **{name: parts.get(name, getattr(defaults, name)) for name in _PARTS},
            **given,
        )
    except ConfigError as exc:
        # a rule comparing sections waits until every section is valid
        report(exc, cross_section=len(parts) == len(_PARTS))
    if issues:
        issues.sort(key=lambda item: (item[0] is None, item[0] or 0))
        raise ConfigError(
            [issue if n is None else f"line {n}: {issue}" for n, issue in issues]
        )
    return cfg


def format_config(cfg: ScenarioConfig) -> str:
    """Emit the canonical document; parse_config(format_config(cfg)) == cfg."""
    parts = [getattr(cfg, name) for name in _PARTS] + [cfg]
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            part = next(p for p in parts if key in {f.name for f in fields(p)})
            lines.append(f"{key} = {getattr(part, key)}")
        lines.append("")
    return "\n".join(lines)
