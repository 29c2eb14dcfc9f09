"""Training loop for the toy student: corpus synthesis, supervision bundles,
loss-mode wiring, and plain gradient descent.

Loss modes mirror the staged experiment arms (CE, A2-A5, EWAD, EWAD_CPDP).
The ``MODES`` table below describes each one once: what it consumes and its
loss step, one call per batch over the batch's padded target positions.

Everything is deterministic given (seed, config, corpus): rng streams are
derived from the seed per consumer, batch order is a seeded permutation, and
gradient reductions run in fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distmath import entropy, log_softmax_t
from .evalmetrics import RougeScores, score_pairs
from .losses import (
    AdaptiveTauConfig,
    CpdpAnchor,
    LossWeights,
    HiddenPair,
    StandardGrads,
    Teachers,
    TokenBatch,
    ce_loss,
    compute_anchor,
    cpdp_loss,
    ewad_loss,
    standard_total,
    tau_from_entropy,
)
from .reliability import ReliabilityConfig
from .teachercache import (
    PseudoLabelRecord,
    TopKCache,
    sample_target,
    topk_cache,
)
from .toymodel import (
    BOUNDARY_ID,
    EOS_ID,
    FIRST_CONTENT_ID,
    ToyModelParams,
    backward_batch,
    forward_batch,
    generate_batch,
    init_params,
    padded_rows,
    topk_order,
)

_LOGIT_FLOOR = 1e-12


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


def derive_seed(root: int, stream: int) -> int:
    """Deterministic child seed for one named consumer of the root seed."""
    return int(np.random.SeedSequence([root, stream]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Synthetic corpus


@dataclass(frozen=True)
class CorpusConfig:
    """Seeded generator settings for the toy summarization corpus.

    The compression task emits documents made of boundary-terminated
    sentences; the gold summary keeps every ``stride``-th salient token
    (ids in the upper half of the vocabulary). The copy task emits short
    boundary-free documents whose summary is the document itself.
    """

    n_examples: int
    vocab_size: int = 64
    min_sentences: int = 2
    max_sentences: int = 3
    min_sentence_len: int = 4
    max_sentence_len: int = 7
    stride: int = 2
    seed: int = 0
    task: str = "compress"
    id_prefix: str = "ex"

    def __post_init__(self) -> None:
        if self.vocab_size < FIRST_CONTENT_ID + 2 or self.vocab_size > 64:
            raise ValueError(f"vocab_size must lie in [5, 64], got {self.vocab_size}")
        if self.task not in ("compress", "copy"):
            raise ValueError(f"task must be 'compress' or 'copy', got {self.task!r}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        for name in ("n_examples", "min_sentences", "min_sentence_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for low in ("min_sentences", "min_sentence_len"):
            high = low.replace("min", "max")
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{high} must be >= {low} ({getattr(self, low)}), "
                                 f"got {getattr(self, high)}")
        # synthetic_corpus redraws an empty summary, so a config that gives
        # nothing else would never return
        if self.task == "compress" and self.max_sentences == 0:
            raise ValueError("max_sentences must be >= 1, or every summary is empty")
        if self.max_sentence_len == 0:
            raise ValueError("max_sentence_len must be >= 1, or every summary is empty")


@dataclass
class CorpusExample:
    example_id: str
    document: list[int]
    summary: list[int]


@dataclass
class Corpus:
    examples: list[CorpusExample]
    vocab_size: int

    def __len__(self) -> int:
        return len(self.examples)


def salient_threshold(vocab_size: int) -> int:
    """The least token id a compress summary keeps: V // 2, never a special id."""
    return max(vocab_size // 2, FIRST_CONTENT_ID)


_WORD = 1 << 32
_BLOCK = 1024  # words fetched from the generator at a time


class _Words:
    """numpy's ``rng.integers(low, high)`` values for ``high - low < 2**32``,
    decoded a block of the 32-bit stream at a time by Lemire's rule: a word
    ``w`` is kept iff ``(w * span) % 2**32 >= 2**32 % span`` and gives ``low +
    (w * span >> 32)``; a span of 1 reads no word. ``values[k]`` holds each
    word's value in the k-th range, ``None`` where the rule rejects it, and a
    ``None`` past the last word; a walk that reads a ``None`` calls ``draw``."""

    def __init__(self, rng: np.random.Generator, *ranges: tuple[int, int]):
        for low, high in ranges:
            if not 0 < high - low < _WORD:
                raise ValueError(f"cannot draw integers from [{low}, {high})")
        self.rng, self.ranges = rng, ranges
        self.values: list[list[int | None]] = [[None] for _ in ranges]

    def draw(self, k: int, at: int, n: int) -> tuple[list[int], int]:
        """The next ``n`` values of range ``k`` from word ``at`` on, and the index
        after them. At the end it decodes the next block, so old indices go stale."""
        low, high = self.ranges[k]
        if n < 0:
            raise ValueError(f"cannot draw {n} integers")
        if high - low == 1:
            return [low] * n, at
        mine, out = self.values[k], []
        while len(out) < n:
            if at == len(mine) - 1:
                words = self.rng.integers(0, _WORD, _BLOCK, dtype=np.uint32).astype(np.uint64)
                for (lo, hi), values in zip(self.ranges, self.values):
                    m = words * np.uint64(hi - lo)
                    values[:] = ((m >> np.uint64(32)).astype(np.int64) + lo).tolist() + [None]
                    for j in np.flatnonzero(m & np.uint64(_WORD - 1) < _WORD % (hi - lo)):
                        values[j] = None
                at = 0
            if mine[at] is not None:
                out.append(mine[at])
            at += 1
        return out, at


def synthetic_corpus(cfg: CorpusConfig) -> Corpus:
    """Deterministic toy corpus; identical config gives identical examples.
    Each value is the one that a call of ``rng.integers`` per draw on
    ``default_rng([seed, 11])`` would give: a count is one lookup in
    ``_Words``'s lists, a sentence one slice. A copy document is one sentence."""
    copy = cfg.task == "copy"
    sentences = (1, 2) if copy else (cfg.min_sentences, cfg.max_sentences + 1)
    lens = (cfg.min_sentence_len, cfg.max_sentence_len + 1)
    words = _Words(np.random.default_rng([cfg.seed, 11]),
                   sentences, lens, (FIRST_CONTENT_ID, cfg.vocab_size))
    n_sentences, n_tokens, tokens = words.values
    sentence_step, len_step = (int(high - low > 1) for low, high in (sentences, lens))
    tail = [] if copy else [BOUNDARY_ID]
    thresh = salient_threshold(cfg.vocab_size)
    at, examples = 0, []
    for i in range(cfg.n_examples):
        while True:
            count = n_sentences[at]
            at += sentence_step
            if count is None:
                (count,), at = words.draw(0, at - sentence_step, 1)
            doc = []
            for _ in range(count):
                n = n_tokens[at]
                at += len_step
                if n is None:
                    (n,), at = words.draw(1, at - len_step, 1)
                run = tokens[at:at + n]
                at += n
                if None in run:
                    run, at = words.draw(2, at - n, n)
                doc += run
                doc += tail
            summary = list(doc) if copy else [t for t in doc if t >= thresh][:: cfg.stride]
            if summary:
                break
        examples.append(CorpusExample(f"{cfg.id_prefix}{i:05d}", doc, summary))
    return Corpus(examples=examples, vocab_size=cfg.vocab_size)


def synthetic_document(
    n_tokens: int,
    vocab_size: int = 64,
    seed: int = 0,
    min_sentence_len: int = 4,
    max_sentence_len: int = 8,
    distinct_sentences: int | None = None,
) -> list[int]:
    """A long boundary-delimited token stream for the MapReduce pipeline.

    With ``distinct_sentences`` set, sentences repeat from that small pool so
    deduplication has real work to do. Values are drawn as in
    ``synthetic_corpus``, from ``default_rng([seed, 13])``, by ``_Words.draw``.
    """
    picks = 1 if distinct_sentences is None else distinct_sentences
    words = _Words(np.random.default_rng([seed, 13]), (min_sentence_len, max_sentence_len + 1),
                   (FIRST_CONTENT_ID, vocab_size), (0, picks))
    pool: list[list[int]] = []
    doc: list[int] = []
    at = 0
    while len(doc) < n_tokens:
        if len(pool) == distinct_sentences:
            (k,), at = words.draw(2, at, 1)
            doc += pool[k]
            continue
        (n,), at = words.draw(0, at, 1)
        run, at = words.draw(1, at, n)
        run.append(BOUNDARY_ID)
        if distinct_sentences is None:
            doc += run
        else:
            pool.append(run)
    return doc[:n_tokens]


# ---------------------------------------------------------------------------
# Supervision bundles and cache builders


@dataclass
class SupervisionBundle:
    """Everything the trainer may consume besides the gold corpus."""

    topk: tuple[TopKCache, ...] = ()  # in teacher order
    pseudo: dict[str, list[PseudoLabelRecord]] | None = None
    teacher_params: ToyModelParams | None = None


def index_pseudo(records: list[PseudoLabelRecord]) -> dict[str, list[PseudoLabelRecord]]:
    out: dict[str, list[PseudoLabelRecord]] = {}
    for r in records:
        out.setdefault(r.example_id, []).append(r)
    return out


def pseudo_variant_id(example_id: str, teacher_id: str) -> str:
    return f"{example_id}::pseudo:{teacher_id}"


def _target_with_eos(summary: list[int]) -> list[int]:
    return list(summary) + [EOS_ID]


def topk_from_logits(logits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-position top-k token ids and their logprobs, each of shape
    (positions, min(k, V)), sorted by descending log-probability with ties
    broken toward lower token ids, as ``topk_order`` picks them."""
    logp = log_softmax_t(np.asarray(logits, dtype=float), 1.0)
    order = topk_order(logp, k)
    return order, np.take_along_axis(logp, order, axis=-1)


def build_topk_cache(
    params: ToyModelParams,
    corpus: Corpus,
    k: int,
    pseudo: dict[str, list[PseudoLabelRecord]] | None = None,
) -> TopKCache:
    """Teacher-force the model on every gold target, then on each pseudo-label
    sequence in ``pseudo`` (so logit distillation can target whichever
    sequence the mixer selects), and cache the top-k logprobs of each target
    position. The gold targets and the pseudo-label sequences are two
    batches, each one ``forward_batch`` over the padded rows of its
    documents and targets: another batch composition can move the logits in
    the last bit, and with them the cache bytes."""
    exs = corpus.examples
    pairs = [(ex, rec) for ex in exs for rec in (pseudo or {}).get(ex.example_id, [])]
    batches = (
        ([ex.example_id for ex in exs], [ex.document for ex in exs], [ex.summary for ex in exs]),
        ([pseudo_variant_id(ex.example_id, rec.teacher_id) for ex, rec in pairs],
         [ex.document for ex, _ in pairs], [rec.tokens for _, rec in pairs]),
    )
    example_ids, lengths, rows = [], [], [np.zeros((0, corpus.vocab_size))]
    for ids, documents, summaries in batches:
        if ids:
            tgt, tgt_len = padded_rows([_target_with_eos(s) for s in summaries])
            logits, _, _ = forward_batch(params, *padded_rows(documents), tgt, tgt_len)
            example_ids += ids
            lengths += tgt_len.tolist()
            rows.append(logits[np.arange(tgt.shape[1]) < tgt_len[:, None]])
    return topk_cache(example_ids, lengths, *topk_from_logits(np.concatenate(rows), k),
                      corpus.vocab_size, k)


def build_pseudo_records(
    params: ToyModelParams,
    teacher_id: str,
    corpus: Corpus,
    beam_width: int = 4,
    max_len: int = 16,
) -> list[PseudoLabelRecord]:
    """Generate a beam-search pseudo-summary per example.

    An empty generation (immediate end-of-sequence) is replaced by the
    strongest non-terminal first token so the record stays non-empty.
    """
    summaries = generate_batch(params, [ex.document for ex in corpus.examples], mode="beam",
                               beam_width=beam_width, max_len=max_len)
    records = []
    for ex, toks in zip(corpus.examples, summaries):
        if not toks:
            logits, _, _ = forward_batch(params, *padded_rows([ex.document]), [[EOS_ID]], [1])
            row = logits[0, 0]
            row[EOS_ID] = -np.inf
            toks = [int(np.argmax(row))]
        records.append(PseudoLabelRecord(ex.example_id, teacher_id, toks))
    return records


def _exp_normalized(z: np.ndarray) -> np.ndarray:
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    """What one ``train`` run reads. ``seed`` determines the run: the initial
    weights, the batch order, A5's projection and the pseudo-label draws
    (each example's with probability ``p_pseudo``, in every loss mode; 0 by
    default) come from streams of it."""

    loss_mode: str = "CE"
    weights: LossWeights = field(default_factory=LossWeights)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    adaptive_tau_cfg: AdaptiveTauConfig = field(default_factory=AdaptiveTauConfig)
    p_pseudo: float = 0.0
    learning_rate: float = 0.2
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    hidden_dim: int = 16
    fixed_tau: float = 0.8
    anchor_tokens: int = 512
    gen_max_len: int = 16

    def __post_init__(self) -> None:
        if self.loss_mode not in MODES:
            raise ValueError(f"loss_mode must be one of {', '.join(MODES)}, "
                             f"got {self.loss_mode!r}")
        for name, least in (("epochs", 0), ("seed", 0), ("batch_size", 1), ("hidden_dim", 1),
                            ("anchor_tokens", 1), ("gen_max_len", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0.0 <= self.p_pseudo <= 1.0:
            raise ValueError(f"p_pseudo must lie in [0, 1], got {self.p_pseudo}")
        if not self.fixed_tau > 0:
            raise ValueError(f"fixed_tau must be > 0, got {self.fixed_tau}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")

    @property
    def spec(self) -> ModeSpec:
        return MODES[self.loss_mode]


def _ce_step(config, tb, tau, hp, anchor):
    value, g = ce_loss(tb)
    return value, StandardGrads(g, components={"ce": value}), None, None


def _standard_step(config, tb, tau, hp, anchor):
    return (*standard_total(tb, hp, config.weights, tau), None, None)


def _ewad_step(config, tb, tau, hp, anchor):
    """Gated routing, plus mu times the divergence-gap regularizer given an
    anchor: the one place where EWAD and CPDP are combined."""
    value, g, tr = ewad_loss(tb, config.reliability, tau)
    components = {"ce": tb.aggregate(tr.ce_term), "kd": tb.aggregate(tr.kd_term), "cpdp": 0.0}
    cp = None
    if anchor is not None:
        components["cpdp"], c_grad, cp = cpdp_loss(tb, anchor, config.weights)
        mu = config.weights.mu
        value, g = value + mu * components["cpdp"], g + mu * c_grad
    return value, StandardGrads(g, components=components), tr, cp


@dataclass(frozen=True)
class ModeSpec:
    """What one loss mode consumes, and its loss step. Pseudo-label targets
    are not a mode's: every mode mixes them in at ``TrainConfig.p_pseudo``.

    ``step(config, token_batch, tau, hidden_pair, anchor)`` takes one whole
    batch and returns its loss, its gradients with the logged loss
    components (each summed over the batch's sequences, as the loss is), and
    the EWAD and CPDP traces (None where the mode has none). ``tau`` holds
    one value per position, the adaptive per-sample temperature, when
    ``adaptive_tau`` is set, else it is ``config.fixed_tau``.
    """

    step: Callable[..., tuple]
    teachers: int = 0           # top-k caches of this many leading teachers
    adaptive_tau: bool = False  # per-sample temperature from teacher entropy
    hidden: bool = False        # teacher hidden states and a learned projection
    anchor: bool = False        # CPDP anchor over the first calibration tokens


MODES: dict[str, ModeSpec] = {
    # gold cross-entropy only (baseline)
    "CE": ModeSpec(_ce_step),
    # + fixed-temperature logit distillation from teacher 1
    "A2": ModeSpec(_standard_step, teachers=1),
    # A2's loss: the ablation's pseudo-label stage, named so that outputs record it
    "A3": ModeSpec(_standard_step, teachers=1),
    # + per-sample adaptive temperature
    "A4": ModeSpec(_standard_step, teachers=1, adaptive_tau=True),
    # + projected hidden-state matching
    "A5": ModeSpec(_standard_step, teachers=1, adaptive_tau=True, hidden=True),
    # reliability-gated dual-teacher routing
    "EWAD": ModeSpec(_ewad_step, teachers=2),
    # gated routing plus the divergence-gap regularizer
    "EWAD_CPDP": ModeSpec(_ewad_step, teachers=2, anchor=True),
}


def validate_supervision(config: TrainConfig, bundle: SupervisionBundle) -> None:
    """Check the bundle supplies what the loss mode consumes, before any work."""
    spec, mode = config.spec, config.loss_mode
    if len(bundle.topk) < spec.teachers:
        raise ValueError(f"loss_mode {mode} requires {spec.teachers} top-k cache(s), one per "
                         f"teacher, got {len(bundle.topk)}")
    if config.p_pseudo > 0 and bundle.pseudo is None:
        raise ValueError(f"p_pseudo {config.p_pseudo} requires pseudo-label records")
    if spec.hidden and bundle.teacher_params is None:
        raise ValueError(f"loss_mode {mode} requires teacher parameters for hidden states")


@dataclass
class Supervision:
    """The training split laid out once for teacher forcing: every document
    and its chosen target as ``padded_rows`` and their lengths, in corpus
    order; each example's first row in ``teachers``; its mean teacher-1
    entropy in the adaptive-tau modes (else None); A5's frozen-teacher hidden
    states over those rows (else None); and the CPDP anchor."""

    src: np.ndarray
    src_len: np.ndarray
    tgt: np.ndarray
    tgt_len: np.ndarray
    offsets: np.ndarray
    entropy: np.ndarray | None
    teachers: Teachers
    teacher_hidden: np.ndarray | None
    anchor: CpdpAnchor | None

    def batch(self, params: ToyModelParams, idx) -> tuple:
        """Teacher-force ``params`` on the examples ``idx``, padded to the
        longest of them: (logits, hidden, forward cache, TokenBatch)."""
        idx = np.asarray(idx)
        src_len, tgt_len = self.src_len[idx], self.tgt_len[idx]
        lt = tgt_len.max()
        logits, hidden, fcache = forward_batch(
            params, self.src[idx, :src_len.max()], src_len, self.tgt[idx, :lt], tgt_len)
        tgt_mask = np.arange(lt) < tgt_len[:, None]
        # padded positions point at teacher row 0, which TokenBatch never reads
        rows = np.where(tgt_mask, self.offsets[idx, None] + np.arange(lt), 0)
        tb = TokenBatch(self.tgt[idx, :lt].ravel(), tgt_mask.ravel(),
                        logits.reshape(rows.size, -1), self.teachers.take(rows.ravel()),
                        sequence=np.repeat(np.arange(len(idx)), lt))
        return logits, hidden, fcache, tb


def prepare_supervision(
    config: TrainConfig, corpus: Corpus, bundle: SupervisionBundle
) -> Supervision:
    """Validate the bundle, then resolve every example's target and teacher
    logits in corpus order, plus the teacher hidden states and the CPDP
    anchor when the mode uses them. When ``config.p_pseudo`` > 0 the targets
    are drawn by ``sample_target`` from ``derive_seed(config.seed, 3)``.

    The teachers' logits are checked here, once; everything the losses
    derive from them is computed once over all the rows (see ``Teachers``),
    as are the hidden states. The anchor is the mean inter-teacher KL over
    the first ``config.anchor_tokens`` target positions, in corpus order.
    """
    if not corpus.examples:
        raise ValueError("cannot supervise an empty corpus")
    validate_supervision(config, bundle)
    spec = config.spec
    caches = bundle.topk[:spec.teachers]
    for which, topk in enumerate(caches, 1):
        if topk.vocab_size != corpus.vocab_size:
            raise ValueError(f"teacher {which} cache has vocab_size {topk.vocab_size}, "
                             f"corpus.vocab_size is {corpus.vocab_size}")
    firsts = [topk.first.tolist() for topk in caches]
    mix_seed = derive_seed(config.seed, 3)
    targets, starts = [], [[] for _ in caches]
    for i, ex in enumerate(corpus.examples):
        summary, provenance = list(ex.summary), "gold"
        if config.p_pseudo > 0:
            records = bundle.pseudo.get(ex.example_id)
            if not records:
                raise ValueError(f"missing pseudo-label record for {ex.example_id}")
            summary, provenance = sample_target(ex.summary, records, config.p_pseudo, mix_seed, i)
        target = _target_with_eos(summary)

        rec_id = ex.example_id
        if provenance.startswith("pseudo:"):
            rec_id = pseudo_variant_id(ex.example_id, provenance.split(":", 1)[1])

        for which, (topk, first_of, start) in enumerate(zip(caches, firsts, starts), 1):
            r = topk.index.get(rec_id)
            if r is None:
                raise ValueError(f"missing cache record {rec_id} for teacher {which}")
            first, end = first_of[r], first_of[r + 1]
            if end - first != len(target):
                raise ValueError(f"cache record {rec_id} covers {end - first} positions, "
                                 f"target has {len(target)}")
            start.append(first)
        targets.append(target)

    src, src_len = padded_rows([ex.document for ex in corpus.examples])
    tgt, lengths = padded_rows(targets)
    # every example's rows of each cache, densified in one step
    offsets = np.cumsum(lengths) - lengths
    within = np.arange(lengths.sum()) - np.repeat(offsets, lengths)
    logits = [np.log(np.maximum(topk.densify(np.repeat(start, lengths) + within), _LOGIT_FLOOR))
              for topk, start in zip(caches, starts)]
    h_bar = None
    if spec.adaptive_tau:
        h = np.atleast_1d(entropy(_exp_normalized(logits[0])))
        h_bar = np.array([h[a:a + n].mean() for a, n in zip(offsets.tolist(), lengths.tolist())])

    teachers = Teachers(*logits)
    teacher_hidden = None
    if spec.hidden:  # the teacher is frozen: its state at every target position
        teacher_hidden = forward_batch(bundle.teacher_params, src, src_len, tgt, lengths)[1]
    anchor = None
    if spec.anchor:
        n = config.anchor_tokens
        anchor = compute_anchor(_exp_normalized(teachers.logits(1)[:n]),
                                _exp_normalized(teachers.logits(2)[:n]))
    return Supervision(src, src_len, tgt, lengths, offsets, h_bar, teachers,
                       teacher_hidden, anchor)


@dataclass
class TrainResult:
    params: ToyModelParams
    anchor: CpdpAnchor | None
    metrics: list[dict]


def train(
    config: TrainConfig,
    corpus: Corpus,
    bundle: SupervisionBundle | None = None,
    val_corpus: Corpus | None = None,
) -> TrainResult:
    """Plain gradient descent under the configured loss mode.

    Each batch is one loss call over its padded target positions; the
    objective is the mean of the per-sequence means. One update and one
    finiteness check cover every trained array: the model's, then A5's
    projection. Deterministic for a fixed (config, corpus, bundle). Raises
    TrainingDiverged if the loss or an array leaves the finite range.
    """
    bundle = bundle or SupervisionBundle()
    spec = config.spec
    v = corpus.vocab_size
    n = len(corpus.examples)
    sup = prepare_supervision(config, corpus, bundle)
    params = init_params(v, config.hidden_dim, np.random.default_rng([config.seed, 1]))
    trained = params.arrays()
    if spec.hidden:
        trained["projection"] = 0.2 * np.random.default_rng([config.seed, 3]).standard_normal(
            (config.hidden_dim, sup.teacher_hidden.shape[2]))
    order_rng = np.random.default_rng([config.seed, 2])

    metrics: list[dict] = []

    for epoch in range(config.epochs):
        order = order_rng.permutation(n)
        sums = {"loss": 0.0, "ce": 0.0, "kd": 0.0, "inter": 0.0, "cpdp": 0.0}
        # per-position counts: gate sum and size, CPDP clamp/floor hits and size
        lam_sum, lam_count, clamped, floored, cpdp_count = 0.0, 0, 0, 0, 0
        n_batches = 0

        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            bsz = len(batch_idx)
            logits, hidden, fcache, tb = sup.batch(params, batch_idx)
            lt = logits.shape[1]
            tau = config.fixed_tau
            if spec.adaptive_tau:
                h = sup.entropy[batch_idx]
                tau = np.repeat(
                    tau_from_entropy(h, float(np.mean(h)), config.adaptive_tau_cfg), lt
                )
            hp = None
            if spec.hidden:
                hp = HiddenPair(hidden.reshape(bsz * lt, -1),
                                sup.teacher_hidden[batch_idx, :lt].reshape(bsz * lt, -1),
                                trained["projection"])

            # the loss sums the per-sequence means; the objective is their mean
            value, g, etr, ctr = spec.step(config, tb, tau, hp, sup.anchor)
            dlogits = g.logits.reshape(logits.shape) / bsz
            dhidden = None if g.hidden is None else g.hidden.reshape(hidden.shape) / bsz

            grads = backward_batch(params, fcache, dlogits, dhidden)
            if g.projection is not None:  # None when alpha_inter is 0
                grads["projection"] = g.projection / bsz
            for name, grad in grads.items():
                trained[name] -= config.learning_rate * grad
            n_batches += 1
            sums["loss"] += value
            for key, component in g.components.items():
                sums[key] += component
            if etr is not None:
                lam_sum += float(etr.gate.sum())
                lam_count += etr.gate.size
            if ctr is not None:
                clamped += int(ctr.clamped.sum())
                floored += int(ctr.entropy_floored.sum())
                cpdp_count += ctr.clamped.size
            if not (np.isfinite(sums["loss"])
                    and all(np.all(np.isfinite(a)) for a in trained.values())):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, batch {n_batches - 1}: "
                    "non-finite loss or parameters"
                )

        row = {
            "epoch": epoch,
            **{key: total / n for key, total in sums.items()},
            "lambda_mean": (lam_sum / lam_count) if lam_count else None,
            "cpdp_clamped_frac": (clamped / cpdp_count) if cpdp_count else None,
            "entropy_floored_frac": (floored / cpdp_count) if cpdp_count else None,
        }
        if val_corpus is not None:
            row["val_rougeL"] = evaluate_rouge(
                params, val_corpus, max_len=config.gen_max_len
            ).rougeL
        metrics.append(row)

    return TrainResult(params=params, anchor=sup.anchor, metrics=metrics)


def evaluate_rouge(
    params: ToyModelParams, corpus: Corpus, max_len: int = 16
) -> RougeScores:
    """Greedy-decode every example and average token-level F1 scores."""
    if not corpus.examples:
        raise ValueError("cannot evaluate on an empty corpus")
    hyps = generate_batch(params, [ex.document for ex in corpus.examples], mode="greedy",
                          max_len=max_len)
    return score_pairs(zip(hyps, [ex.summary for ex in corpus.examples]))
