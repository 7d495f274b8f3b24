"""Diagonal-weight ("crosswise") layers, product algebra, and structured
random features, with deterministic training utilities and a CLI.
"""

from .datasets import Dataset, gen_blobs, gen_xor, load_csv, save_csv
from .diagonal import (
    CrosswiseWeights,
    block_count,
    crosswise_backward,
    crosswise_forward,
    expand_to_dense,
    init_crosswise,
)
from .errors import (
    ConfigError,
    DivergenceError,
    ParameterError,
    SamplingError,
    ShapeError,
    SingularMatrixError,
)
from .features import (
    FeatureMap,
    McKernelBlock,
    apply_zhat,
    feature_map_apply,
    fwht,
    kernel_exact,
    next_power_of_two,
    sample_block,
    sample_feature_map,
)
from .linalg import invert, pinv_full_rank
from .network import (
    EpochRecord,
    LayerSpec,
    MultCounts,
    Network,
    NetworkSpec,
    ParamCounts,
    TrainConfig,
    build_network,
    count_mults,
    count_weights,
    loss_eval,
    model_from_json,
    model_to_json,
    network_backward,
    network_forward,
    sgd_step,
    train,
    train_network,
)
from .products import (
    IdentityCheck,
    IdentityReport,
    hadamard,
    khatri_rao,
    kronecker,
    verify_identities,
)
from .rng import CounterRng, derive_seed, mix64, word_at

__version__ = "0.1.0"
