"""subnyq: multi-coset sub-Nyquist sampling, reconstruction, and spectrum sensing.

Sparse multiband signals can be acquired far below their top frequency by
keeping p of every L base-grid samples.  This package covers the whole chain:
signal models and supports, coset decomposition and the measurement matrix,
conditioning-driven pattern search, pseudo-inverse reconstruction, blind
support recovery from sample statistics (AIC/MDL/EFT order selection with
MUSIC-like or least-squares localization), and a wideband spectrum-sensing
pipeline with detection-probability sweeps.
"""

__version__ = "0.1.0"

from .blind import (
    BlindReport,
    CorrelationMatrix,
    EigenSpectrum,
    OrderEstimate,
    aic_order,
    eft_order,
    eigendecompose,
    estimate_support,
    estimate_support_batch,
    mdl_order,
    music_localize,
    nlls_localize,
    sample_correlation,
)
from .patterns import (
    PatternSearchResult,
    SearchBudgetError,
    blind_sfs,
    cond_histogram,
    condition_number,
    exhaustive_pattern_search,
    sfs_cost,
    sfs_pattern_search,
)
from .reconstruct import (
    FrequencyReconstruction,
    IllPosedError,
    InterpolationFilter,
    ReconstructionReport,
    design_filter,
    filter_streams,
    pseudo_inverse,
    reconstruct_frequency,
    reconstruct_time,
    spectral_index_from_support,
)
from .sampling import (
    BlindParameters,
    CosetStreams,
    MeasurementMatrix,
    SamplingPattern,
    SpectralIndexSet,
    average_rate,
    blind_parameters,
    build_measurement_matrix,
    coset_decompose,
    reduce_matrix,
)
from .sensing import (
    PdPoint,
    PdResult,
    SensingConfig,
    SensingPlan,
    SensingReport,
    pd_sweep,
    plan_sensing,
    sense,
)
from .signals import (
    BandSpec,
    MultibandSignalSpec,
    NoiseModel,
    SpectralSupport,
    TimeSeries,
    apply_noise,
    bandlimited_noise,
    lebesgue_measure,
    nyquist_rate,
    occupancy,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
