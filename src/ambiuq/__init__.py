"""Uncertainty decomposition toolkit for ambiguous question answering.

Total uncertainty of a prediction p against a ground truth p* is the
cross-entropy CE(p*, p), which splits into an aleatoric part H(p*) and an
epistemic part KL(p*||p). The package provides that arithmetic, the
entropy-threshold bounds relating predictive entropy to epistemic
uncertainty, Dirichlet-posterior expected uncertainties over estimated
ground truths, prediction-side estimators, rank metrics, a corpus
co-occurrence pipeline for constructing ground-truth answer distributions,
and a simulation harness that verifies the bounds empirically.
"""

from .bounds import (
    BoundQuery,
    Thm2Bound,
    alpha_delta,
    binary_entropy,
    eu_lower_bound_high_entropy,
    gamma_delta,
    h_max,
    mi_counterexample,
    nonidentifiability_witnesses,
    thm2_probability_bound,
)
from .corpus import (
    Chunk,
    GroundTruthRecord,
    InvertedIndex,
    QuestionSpec,
    build_ground_truth,
    build_index,
    chunk_corpus,
    cooccurrence_count,
    cross_validate,
)
from .dirichlet import (
    digamma,
    expected_aleatoric,
    expected_cross_entropy,
    expected_epistemic,
    posterior,
)
from .dist import (
    Categorical,
    Decomposition,
    cross_entropy,
    decompose,
    entropy,
    js_divergence,
    kl,
    normalize,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    EstimatorUnavailableError,
    SupportError,
    UQError,
    ValidationError,
)
from .estimators import (
    AnswerSample,
    AnswerSampleSet,
    EnsemblePrediction,
    EquivalenceMap,
    align,
    align_ensemble,
    cluster,
    msp,
    mutual_information,
)
from .metrics import EvalRecord, Summary, aucroc, concordance, score_columns, summarize
from .porter import stem
from .simlab import (
    ExperimentResult,
    SimConfig,
    gamma_ablation,
    run_experiment,
)

__version__ = "0.1.0"
