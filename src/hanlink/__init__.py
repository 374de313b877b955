"""hanlink: probabilistic record linkage with logographic name matching."""

__version__ = "0.1.0"

from .compare import (
    FeatureSpec,
    NamePairs,
    PairFeaturizer,
    default_feature_bank,
    extract_substring,
)
from .encoding import (
    EncodingKind,
    EncodingTable,
    FrequencyTable,
    ambiguity_count,
    han_indicator,
    load_encoding_table,
    log_rel_frequency,
    transform,
)
from .linkage import LinkageModel, PatternTable, em_fit, zeta
from .matcher import (
    MatcherModel,
    ScoreDistribution,
    fit_score_distributions,
    forward_select,
    backward_prune,
    pava,
    train_logistic,
    train_matcher,
)
from .metrics import GroupedRanking, auroc, confusion_at_proportion, eauroc, log_loss
from .fuse import (
    apply_threshold,
    posterior_adjust,
    tau1_select,
    tau2_select,
    transfer_predictions,
)
from .simgen import SimConfig, build_name_model, corrupt_name, generate_pair_files
