"""Desk-scale laboratory for reliability-aware multi-teacher distillation."""

from .distmath import entropy, jsd, kl, sigmoid, softmax_t
from .evalmetrics import RetentionReport, RougeScores, retention, rouge_l, rouge_n, score_pairs
from .longdoc import ChunkConfig, chunk, dedup, jaccard, split_sentences, summarize_long
from .losses import (
    AdaptiveTauConfig,
    CpdpAnchor,
    HiddenPair,
    LossWeights,
    Teachers,
    TokenBatch,
    ce_loss,
    compute_anchor,
    cpdp_loss,
    ewad_loss,
    inter_match_loss,
    kd_loss,
    standard_total,
    tau_from_entropy,
)
from .reliability import (
    ReliabilityConfig,
    TokenReliability,
    agreement,
    confidence,
    confidence_weights,
    gate,
    token_reliability,
)
from .teachercache import (
    MixingConfig,
    PseudoLabelRecord,
    TopKCache,
    read_cache,
    sample_target,
    write_cache,
)
from .toymodel import (
    BOS_ID,
    BOUNDARY_ID,
    EOS_ID,
    ROUTE_DIRECT,
    ROUTE_MAPREDUCE,
    ToyModelParams,
    generate,
    generate_batch,
    init_params,
    load_checkpoint,
    route,
    save_checkpoint,
)
from .training import (
    Corpus,
    CorpusConfig,
    SupervisionBundle,
    TrainConfig,
    TrainResult,
    evaluate_rouge,
    synthetic_corpus,
    synthetic_document,
    train,
)

__version__ = "0.1.0"
