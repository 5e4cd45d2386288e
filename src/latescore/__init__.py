"""Weak-instrument-robust inference for the local average treatment effect.

The package computes per-unit influence-function scores from cross-fitted
nuisance estimates, inverts the studentized score test in closed form
(the solution set of a quadratic inequality, which can be a finite
interval, rays, a point, the empty set or the whole line), and compares
the result against the Wald interval of the doubly robust ratio
estimator.  A replication engine and a sampler for the weak-instrument
limiting distribution support coverage and distributional studies.
"""

from .data import CsvSchema, Dataset, FoldAssignment, load_csv, make_folds, write_csv
from .errors import (
    CsvParseError,
    DecompositionError,
    DegenerateDataError,
    DegenerateFoldError,
    InvalidConfigError,
    LatescoreError,
    WeakDenominatorError,
)
from .inference import (
    ConfidenceSet,
    DrmlResult,
    QuadCoefficients,
    drml_estimate,
    invert_score_test,
    quad_coefficients,
    score_statistic,
)
from .nuisance import (
    LearnerSpec,
    LinearModel,
    LogisticModel,
    NuisancePredictions,
    cross_fit,
    fit_cell_mean,
    fit_logistic,
    fit_ols,
)
from .scores import ScoreSample, compute_scores
from .simulation import (
    DgpParams,
    ReplicationResult,
    StudyCell,
    StudySpec,
    dgp_generate,
    run_replication,
    run_study,
)
from .weakiv import (
    WeakIVConfig,
    exact_weakiv_config,
    sample_weak_limit,
)

__version__ = "0.1.0"
