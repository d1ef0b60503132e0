"""The scalar rules: positive, nonnegative and one_of, applied alike by the
configuration dataclasses and by every public function taking a scalar; and
the scans that each rule's exception is raised from the one place that
owns the rule."""

import ast
import math
from itertools import product
from pathlib import Path

import pytest

import penflow
from penflow import (
    BlowupState,
    ConfigError,
    GridSpec,
    InitialCondition,
    NormSample,
    RegimeReport,
    ScenarioConfig,
    SolverConfig,
    ThermoParams,
    blowup_update,
    evolve_pressure_model,
    make_initial,
    material_derivative,
    norm_B,
    regime_check,
    sobolev_norm,
    step,
    temperature_from_pressure,
    twin_run,
)
from penflow.energy import FINITE_DIFFERENCE
from penflow.errors import nonnegative, one_of, positive

SRC = Path(penflow.__file__).resolve().parent


class TestConstructors:
    @pytest.mark.parametrize("value", [1e-300, 1.0, 5])
    def test_positive_passes(self, value):
        assert positive("dt", value) == ("dt", True, "dt must be positive and finite")

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_positive_fails(self, value):
        assert positive("dt", value)[1] is False

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_nonnegative_passes(self, value):
        assert nonnegative("t", value)[1] is True

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf])
    def test_nonnegative_fails(self, value):
        issue = "t must be nonnegative and finite"
        assert nonnegative("t", value) == ("t", False, issue)

    def test_one_of(self):
        assert one_of("mode", "a", ("a", "b"))[1] is True
        issue = "mode must be one of ('a', 'b')"
        assert one_of("mode", "c", ("a", "b")) == ("mode", False, issue)


def _state():
    return make_initial(InitialCondition(), GridSpec(2, 16))


def _evolve(dt):
    state = _state()
    return evolve_pressure_model(state, state.P, SolverConfig(), dt=dt)


def _material_derivative(dt):
    state = _state()
    P = state.P
    return material_derivative(P, P, state.u, dt, FINITE_DIFFERENCE, ThermoParams())


def _norm_B(dt):
    P = _state().P
    return norm_B([(P, P), (P, P)], dt)


def _blowup_update(dt):
    regime = RegimeReport(delta_T_rel=0.0, in_regime=True, T_h2_norm=0.0)
    sample = NormSample(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, regime)
    return blowup_update(BlowupState(threshold=1.0), sample, dt)


# caller -> (the scalar's name, the call with that scalar set to v)
_SCALAR_CALLERS = {
    "step": ("dt", lambda v: step(_state(), SolverConfig(), dt=v)),
    "evolve_pressure_model": ("dt", _evolve),
    "temperature_from_pressure": (
        "P0",
        lambda v: temperature_from_pressure(_state().P, ThermoParams(), v),
    ),
    "regime_check": ("P0", lambda v: regime_check(_state().P, ThermoParams(), P0=v)),
    "material_derivative": ("dt", _material_derivative),
    "norm_B": ("dt", _norm_B),
    "blowup_update": ("dt", _blowup_update),
    "sobolev_norm": ("order", lambda v: sobolev_norm(_state().P, v)),
    "twin_run": ("perturbation", lambda v: twin_run(ScenarioConfig(), v)),
}

# what each rule says, by the scalar's name
_ISSUES = {
    "dt": "dt must be positive and finite",
    "P0": "P0 must be positive and finite",
    "order": "order must be one of (-1, 0, 1, 2)",
    "perturbation": "perturbation must be nonnegative and finite",
}

_CASES = [
    *product(["step", "evolve_pressure_model"], [0.0, -0.01, math.nan, math.inf]),
    *product(
        [
            "temperature_from_pressure",
            "regime_check",
            "material_derivative",
            "norm_B",
            "blowup_update",
        ],
        [math.nan, math.inf],
    ),
    ("sobolev_norm", 3),
    ("sobolev_norm", 0.5),
    ("twin_run", -1e-6),
    ("twin_run", math.nan),
]


@pytest.mark.parametrize("caller, value", _CASES)
def test_malformed_scalar_raises(caller, value):
    # a negative dt used to integrate backwards, and a NaN dt gave a NaN
    # accumulator that could never trip again
    name, call = _SCALAR_CALLERS[caller]
    with pytest.raises(ConfigError) as exc:
        call(value)
    assert exc.value.issues == [_ISSUES[name]]
    assert exc.value.fields == [name]


def _scopes(path: Path, matches):
    """(qualified name of the enclosing def, line) of every node of a
    module for which matches(node) is true."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if matches(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _raises(path: Path, exception: str):
    """_scopes of every raise of the named exception in a module."""

    def matches(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _name(exc) == exception

    return _scopes(path, matches)


def _found(scan):
    """(module, scope, line) of every scan(path) hit in the package."""
    return [
        (path.stem, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in scan(path)
    ]


def _assert_raised_only_by(exception: str, allowed: set) -> None:
    """Every raise of exception in the package is in one of the allowed
    (module, def) pairs, and each of them has one: a raise anywhere else is
    a rule written twice."""
    found = _found(lambda path: _raises(path, exception))
    stray = [
        f"{module}.{scope or '<module>'}:{line}"
        for module, scope, line in found
        if (module, scope) not in allowed
    ]
    assert stray == []
    assert {(module, scope) for module, scope, _ in found} == allowed


def test_config_error_is_raised_only_by_the_rule_checks():
    # every rule goes through errors.check_rules, and parse_config adds the
    # line numbers
    _assert_raised_only_by(
        "ConfigError", {("errors", "check_rules"), ("config", "parse_config")}
    )


def test_divergence_error_is_raised_only_by_flow_state_and_the_model_step():
    # FlowState judges every velocity, an initial one and each step's; the
    # model-pressure step's result (_new_model, for evolve_pressure_model
    # and advance alike) judges its pressure; and a sample (_diagnose)
    # judges the growth of the kinetic energy
    _assert_raised_only_by(
        "DivergenceError",
        {
            ("flow", "FlowState.__init__"),
            ("solver", "_new_model"),
            ("solver", "_diagnose"),
        },
    )


def test_arity_error_is_raised_only_by_the_field_rules():
    # the rule on fields, the rule on a field's array, a real view's memory,
    # and FlowState's divergence-free check
    _assert_raised_only_by(
        "ArityError",
        {
            ("spectral", "check_field"),
            ("spectral", "_check_layout"),
            ("spectral", "real_view"),
            ("flow", "FlowState.__init__"),
        },
    )


def test_degenerate_norm_is_compared_in_one_function():
    # _diagnose alone decides that a sample is degenerate, by giving it no
    # ratio; bound_check reads the ratio
    def compares(node):
        return isinstance(node, ast.Compare) and any(
            _name(side) == "DEGENERATE_NORM" for side in [node.left, *node.comparators]
        )

    found = _found(lambda path: _scopes(path, compares))
    assert {(module, scope) for module, scope, _ in found} == {("solver", "_diagnose")}
    assert len(found) == 1


def test_numpy_fft_is_referenced_only_in_spectral():
    # the README's claim: spectral.py is the only module that does FFTs
    def references_fft(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "fft" and _name(node.value) in ("np", "numpy")
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.fft") or (
                module == "numpy" and any(a.name == "fft" for a in node.names)
            )
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.fft") for a in node.names)
        return False

    found = _found(lambda path: _scopes(path, references_fft))
    assert found, "the scan found no numpy.fft reference at all"
    assert {module for module, _, _ in found} == {"spectral"}


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level function, class or constant of a
    module whose name starts with _ and is no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_referenced():
    # a module-level private name that nothing in the package reads outside
    # its own definition is a leftover of code that is gone
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    checked, unreferenced = [], []
    for tree in trees:
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            checked.append(name)
            if not any(
                id(node) not in own
                and (node.name if isinstance(node, ast.alias) else _name(node)) == name
                for node in nodes
            ):
                unreferenced.append(name)
    assert checked, "the scan found no private name at all"
    assert unreferenced == []
