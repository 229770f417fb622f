"""Dictionary-learning toolkit for anomaly detection."""

from .sparse_coding import (
    CodingConfig,
    Dictionary,
    SparseCode,
    SparseCodeMatrix,
    atom_popularity,
    batch_code,
    omp,
    representation_errors,
)
from .dictionary_learning import DLConfig, DLResult, init_dictionary, objective, train
from .supervised import (
    DiscriminativeModel,
    PretrainConfig,
    build_indicators,
    classify,
    load_model,
    pretrain,
    save_model,
    stack_training,
)
from .online import (
    LambdaPolicy,
    OnlineState,
    ToddlerOutcome,
    init_state,
    lambda_select,
    load_state,
    rls_update,
    save_state,
    spectral_norm,
    tikhonov_update,
    toddler_step,
)
from .anomaly import ADDLConfig, FilterTrace, PopularityConfig, addl_run, popularity_filter_run
from .data_io import Dataset, SynthConfig, load_csv, normalize, save_csv, subsample, synth_generate
from .evaluation import ConfusionReport, confusion
from .experiments import run_experiment
from .errors import CodingError, ConfigError, DataError, DictadError, NumericalError

__version__ = "0.1.0"
