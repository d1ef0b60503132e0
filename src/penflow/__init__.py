"""Pseudo-spectral incompressible Navier-Stokes solver with pressure-energy
norm diagnostics on the 2*pi-periodic box."""

from .errors import (
    ArityError,
    ConfigError,
    CorruptionError,
    DataError,
    DivergenceError,
    GaugeError,
    PenflowError,
    RegimeError,
    SymmetryError,
)
from .spectral import (
    GridSpec,
    RealField,
    SpectralField,
    backward,
    dealias,
    divergence,
    forward,
    gradient,
    integrate,
    l2_norm_sq,
    laplacian,
    poisson_solve,
    sobolev_norm,
)
from .flow import (
    FlowState,
    RegimeReport,
    ThermoParams,
    dissipation_phi,
    gradient_energy,
    kinetic_energy,
    leray_project,
    pressure_poisson,
    regime_check,
    temperature_from_pressure,
)
from .energy import (
    FINITE_DIFFERENCE,
    MODEL_RHS,
    BlowupState,
    BoundFit,
    NormSample,
    NormSeries,
    blowup_update,
    bound_check,
    inner_product_E,
    material_derivative,
    norm_B,
    norm_E_squared,
    variational_residual,
)
from .solver import (
    InitialCondition,
    ScenarioConfig,
    SolverConfig,
    advance,
    evolve_pressure_model,
    load_checkpoint,
    make_initial,
    run,
    save_checkpoint,
    simulate,
    step,
)
from .config import format_config, parse_config
from .cli import export_plot_data, run_scenario, twin_run

__version__ = "0.1.0"
