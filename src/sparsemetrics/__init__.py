"""Sparsity measures, axiomatic compliance checks, and experiments."""

__version__ = "0.1.0"

from .errors import (
    CatalogMiss,
    DegenerateInput,
    GenerationFailure,
    InvalidParams,
    InvalidTransform,
    NonSeparableMeasure,
    SparsemetricsError,
)
from .measures import (
    MEASURE_ORDER,
    MEASURES,
    CoefficientVector,
    LorenzCurve,
    Measure,
    MeasureSpec,
    evaluate,
    gini,
    lorenz_curve,
)
from .transforms import (
    CRITERION_ORDER,
    Criterion,
    CriterionTrial,
    Relation,
    babies,
    bill_gates,
    clone,
    reapply,
    rising_tide,
    robin_hood,
    sample_trial,
    scale,
    trial_ticks,
)
from .compliance import (
    CATALOG_PAIRS,
    DISPUTED_CELLS,
    ERRATUM_NOTES,
    EXPECTED_TRUE,
    KNOWN_DEAD_MAPPINGS,
    TABLE4_WITNESSES,
    CellVerdict,
    TableResult,
    catalog_verdict,
    check_cell,
    compliance_map,
    full_table,
    relation_holds,
    run_counterexamples,
    theorem_consistency,
)
from .experiments import (
    DistributionSpec,
    ExperimentResult,
    bernoulli_sweep,
    contribution_curves,
    distributional_gini,
    minmax_normalize,
    poisson_convergence,
    sample_gini,
    sample_vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
