"""Black-box generator calibration toolkit.

Diagnoses intra-mode collapse in a generative model through nothing but
samples: a Monte Carlo collapse score per anchor, population statistics
over an anchor collection, and worst-case dense-mode search in an
identity-embedding space.  Two calibration methods then reshape the
latent distribution without touching the model: a reweighted Gaussian
mixture fit to clustered latents, and convex-hull importance sampling
with per-mode acceptance probabilities.
"""

from .diagnosis import (
    ConsistencyResult,
    ConvergenceCurve,
    DenseModeResult,
    MccsValue,
    PopulationStats,
    build_report,
    convergence_curve,
    find_worst_mode,
    mccs,
    mode_consistency_check,
    population_stats,
    top_k_modes,
)
from .embedding import cosine_distance, mccs as mccs_of_mean, similarity
from .errors import (
    AcceptanceStallError,
    BadMagicError,
    BbgcError,
    CalibrationError,
    DegenerateDataError,
    DiagnosisError,
    DimensionMismatchError,
    EmptyClusterError,
    EmptyCollectionError,
    EmptyModeListError,
    EmptyStoreError,
    InvalidConfigError,
    KTooLargeError,
    MalformedResponseError,
    NonFiniteError,
    OverlappingCollectionsError,
    SizesOutOfRangeError,
    SourceError,
    SourceTimeoutError,
    SourceUnavailableError,
    StoreFormatError,
    TooFewAnchorsError,
    TruncatedStoreError,
    VersionMismatchError,
    ZeroDenseCountError,
    ZeroVectorError,
)
from .gmm import (
    MixtureModel,
    calibrate_gmm,
    kmeans_fit,
    load_mixture,
    sample_calibrated,
    save_mixture,
)
from .importance import (
    AcceptanceStats,
    HullMembership,
    ImportanceSamplingPlan,
    PlanEntry,
    build_plan,
    hull_membership,
    load_plan,
    sample_calibrated_is,
    save_plan,
)
from .source import (
    RemoteSource,
    SourceSpec,
    SubprocessSource,
    SyntheticSource,
    build_synthetic_model,
    generate,
    load_source_spec,
    open_source,
    run_worker,
    sample_latents,
)
from .store import (
    SampleStore,
    StoreWriter,
    export_table,
    latents_disjoint,
    read_header,
    read_store,
    write_store,
)

__version__ = "1.0.0"
