"""Entanglement dynamics of two three-point giant atoms on a 1D waveguide
with tunable directional (chiral) coupling."""

from types import ModuleType as _ModuleType

from .model import (
    ChiralitySpec,
    InitialState,
    INITIAL_EG,
    INITIAL_GE,
    LayoutConfiguration,
    LayoutError,
    Preset,
    PRESET_POSITIONS,
    make_layout,
    make_preset,
    rates_from_chirality,
)
from .coefficients import CoefficientSet, coefficients
from .dynamics import (
    AmplitudePair,
    EffectiveHamiltonian,
    ModeClass,
    ModeReport,
    PhysicalityError,
    Trajectory,
    build_heff,
    concurrence,
    dark_modes,
    propagate_closed,
    trajectory,
)
from .experiments import (
    CALIBRATION_TARGETS,
    CalibrationResult,
    ChiralityScanResult,
    InitialStateComparison,
    MaxResult,
    PhaseKind,
    SpecialPhase,
    SweepGrid,
    all_orderings,
    calibrate_presets,
    chirality_scan,
    compare_initial_states,
    evaluate_concurrence,
    find_max,
    find_special_phases,
    layout_from_pattern,
    sweep,
)
from .io_cli import (
    ConfigError,
    ExperimentSpec,
    GridRange,
    cli_main,
    parse_experiment_config,
    render_svg_heatmap,
    serialize_results,
    serialize_spec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
