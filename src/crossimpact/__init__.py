"""Cross-impact influence-network engine.

Simulates coupled relationship strengths between societal subsystems,
calibrates fixed utility weights from observed performance, and audits
composite-index quality against the measured series.
"""

from .analysis import (
    InfluenceRanking,
    QualityPoint,
    TrendReport,
    influence_ranking,
    jacobi_eigendecomposition,
    quality_coefficient,
    trend,
)
from .calibration import (
    CalibrationReport,
    PolicyFunction,
    TuneOptions,
    solve_utility_min_norm,
    tune_initial_r,
    verify_min_norm,
)
from .errors import (
    CrossImpactError,
    DegenerateRankingError,
    DomainError,
    InfeasibleRowError,
    InputError,
    ParseError,
    SequencingError,
    ShapeError,
    ValidationError,
)
from .model import (
    Branch,
    BranchCounts,
    DEFAULT_SUBSYSTEM_NAMES,
    InfluenceMatrix,
    ModelOptions,
    PerformanceVector,
    PolicyIntervention,
    RelationshipUpdate,
    SimulationTrace,
    StepResult,
    SubsystemSet,
    TraceStep,
    UtilityMatrix,
    compute_weights,
    simulate,
    step,
    update_matrix,
    update_relationship,
)
from .scenario_io import (
    Scenario,
    SeriesTable,
    TuneResult,
    parse_matrix,
    parse_qc_table,
    parse_ranking,
    parse_scenario,
    parse_series,
    parse_trace,
    parse_tune_result,
    write_matrix,
    write_qc_table,
    write_ranking,
    write_scenario,
    write_series,
    write_trace,
    write_tune_result,
)

__version__ = "0.1.0"
