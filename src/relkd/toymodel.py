"""Tiny autoregressive encoder-decoder with hand-derived backpropagation.

One tanh recurrence plays both roles: the document is consumed first
(conditioning pass, no outputs), then the target is consumed teacher-forced,
emitting logits at every target position:

    h_t = tanh(R h_{t-1} + E[prev_token]),   logits_t = h_t O

The batched paths carry boolean masks; padded steps leave the hidden state
untouched so padded and unpadded runs of the same example agree exactly.
Token id 0 is the end-of-sequence marker, 1 starts decoding, and 2 marks
sentence boundaries for the long-document pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import write_text_atomic
from .distmath import log_softmax_t

EOS_ID = 0
BOS_ID = 1
BOUNDARY_ID = 2
FIRST_CONTENT_ID = 3

ROUTE_DIRECT = "direct"
ROUTE_MAPREDUCE = "mapreduce"

CHECKPOINT_VERSION = 1


@dataclass
class ToyModelParams:
    """Embedding (V, d), recurrence (d, d), output (d, V)."""

    embed: np.ndarray
    recur: np.ndarray
    out: np.ndarray

    def __post_init__(self) -> None:
        self.embed = np.asarray(self.embed, dtype=float)
        self.recur = np.asarray(self.recur, dtype=float)
        self.out = np.asarray(self.out, dtype=float)
        v, d = self.embed.shape
        if self.recur.shape != (d, d) or self.out.shape != (d, v):
            raise ValueError("parameter shapes are inconsistent")
        for a in (self.embed, self.recur, self.out):
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters must be finite")

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.embed.shape[1]

    def copy(self) -> "ToyModelParams":
        return ToyModelParams(self.embed.copy(), self.recur.copy(), self.out.copy())


@dataclass
class ParamGrads:
    embed: np.ndarray
    recur: np.ndarray
    out: np.ndarray


def init_params(
    vocab_size: int, hidden_dim: int, rng: np.random.Generator, scale: float = 0.2
) -> ToyModelParams:
    return ToyModelParams(
        embed=scale * rng.standard_normal((vocab_size, hidden_dim)),
        recur=scale * rng.standard_normal((hidden_dim, hidden_dim)),
        out=scale * rng.standard_normal((hidden_dim, vocab_size)),
    )


def _check_tokens(tokens: np.ndarray, vocab_size: int) -> None:
    if tokens.size and (tokens.min() < 0 or tokens.max() >= vocab_size):
        raise ValueError("token id out of range for vocabulary")


def _step(params: ToyModelParams, h: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """One recurrence step for every row: h (..., d), tokens (...)."""
    return np.tanh(h @ params.recur.T + params.embed[tokens])


def _recur(
    params: ToyModelParams,
    h: np.ndarray,
    tokens: np.ndarray,
    mask: np.ndarray,
    states: np.ndarray | None = None,
) -> np.ndarray:
    """Consume time-major token rows (L, B) from hidden states h (B, d);
    masked-off steps keep h. Returns the final states. When ``states``, a
    time-major (L + 1, B, d) array, is given, step s computes in its
    contiguous block ``states[s + 1]``.

    ``recur.T`` is taken once. Each step gathers its embeddings from one
    contiguous row of ``tokens``, adds them and applies tanh in place on
    its product, and copies the previous state back onto masked-off rows.
    The gather stays inside the loop: evaluation encodes thousands of rows
    at once, and gathering every step ahead of time costs more than it
    saves. Without ``states`` each product gets a fresh array: with
    thousands of rows that measured faster than reusing two blocks in turn.
    """
    recur_t = params.recur.T
    for s, (tok, keep) in enumerate(zip(tokens, ~mask[:, :, None])):
        step = h @ recur_t if states is None else np.matmul(h, recur_t, out=states[s + 1])
        step += params.embed[tok]
        np.tanh(step, out=step)
        np.copyto(step, h, where=keep)
        h = step
    return h


def padded_rows(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Token sequences as EOS-padded rows of one int array, and their lengths."""
    seqs = [np.asarray(seq, dtype=int) for seq in seqs]
    lengths = np.array([seq.size for seq in seqs], dtype=int)
    rows = np.full((len(seqs), lengths.max(initial=0)), EOS_ID, dtype=int)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.concatenate(seqs)
    return rows, lengths


def forcing_rows(documents, targets):
    """Documents and their targets as padded rows for teacher forcing:
    (src, src_len, tgt, tgt_in, tgt_len), where tgt_in is BOS followed by
    the target shifted right."""
    src, src_len = padded_rows(documents)
    tgt, tgt_len = padded_rows(targets)
    tgt_in = np.concatenate([np.full((len(tgt), 1), BOS_ID), tgt[:, :-1]], axis=1)
    return src, src_len, tgt, tgt_in, tgt_len


@dataclass
class ForwardCache:
    """Per-step activations retained for backpropagation, time-major so that
    each step's (B, d) block is contiguous. The source and the target input
    are one run of the recurrence: ``tokens`` and ``mask`` are (Ls + Lt, B),
    the source steps first, and ``states`` is (Ls + Lt + 1, B, d), with
    ``states[s]`` every row's state after s steps (``states[0]`` is zero)."""

    tokens: np.ndarray
    mask: np.ndarray
    states: np.ndarray
    target_steps: int


def _check_mask(mask: np.ndarray, tokens: np.ndarray, name: str) -> None:
    if mask.shape != tokens.shape:
        raise ValueError(f"{name}_mask has shape {mask.shape}, but {name} has shape "
                         f"{tokens.shape}")


def forward_batch(
    params: ToyModelParams,
    src: np.ndarray,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    tgt_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Teacher-forced pass over a padded batch.

    Returns per-position logits (B, Lt, V), the hidden states that produced
    them (B, Lt, d; a view of the cache's time-major states), and the
    activation cache for backward_batch. Token arrays that are not 2-D with
    one row per example, or a mask whose shape differs from its token
    array's, raise ValueError.
    """
    src = np.asarray(src, dtype=int)
    src_mask = np.asarray(src_mask, dtype=bool)
    tgt_in = np.asarray(tgt_in, dtype=int)
    tgt_mask = np.asarray(tgt_mask, dtype=bool)
    if src.ndim != 2 or tgt_in.ndim != 2 or len(src) != len(tgt_in):
        raise ValueError(f"src {src.shape} and tgt_in {tgt_in.shape} must be 2-D "
                         "with the same number of rows")
    _check_mask(src_mask, src, "src")
    _check_mask(tgt_mask, tgt_in, "tgt")
    _check_tokens(src, params.vocab_size)
    _check_tokens(tgt_in, params.vocab_size)

    tokens = np.concatenate([src.T, tgt_in.T])
    mask = np.concatenate([src_mask.T, tgt_mask.T])
    states = np.zeros((len(tokens) + 1, len(src), params.hidden_dim))
    _recur(params, states[0], tokens, mask, states)

    hidden = states[src.shape[1] + 1:].transpose(1, 0, 2)
    logits = hidden @ params.out
    return logits, hidden, ForwardCache(tokens, mask, states, tgt_in.shape[1])


def backward_batch(
    params: ToyModelParams,
    cache: ForwardCache,
    dlogits: np.ndarray,
    dhidden: np.ndarray | None = None,
) -> ParamGrads:
    """Backpropagate per-position logit (B, Lt, V) and optional hidden-state
    (B, Lt, d) gradients through the recurrence; padded steps pass gradients
    through untouched. Gradients of any other shape raise ValueError.

    Steps are visited last to first: the target steps, then the source
    steps. Reversed views of the cache's time-major arrays give every step
    in that order without a copy. Only what depends on the step before stays
    in the loop: adding the step's output gradient to dh, ``dpre = dh *
    deriv``, ``dpre @ recur`` and the pass-through of padded rows. The rest
    runs once per call: the output gradients ``dlogits @ out.T``, the tanh
    derivative ``1 - h**2`` zeroed on padded steps, and the ``out`` and
    ``recur`` gradients as one stacked product per step, summed in visit
    order from zero. The embedding gradient is one ``np.bincount`` over
    ``token * d + column``, with the weights in visit order, then row order.
    Each bin thus receives the same additions in the same order as a
    per-step ``np.add.at`` gave it, and the gradients keep their bits.
    """
    lt = cache.target_steps
    n, b = cache.tokens.shape
    v, d = params.vocab_size, params.hidden_dim
    if dlogits.shape != (b, lt, v):
        raise ValueError(f"dlogits has shape {dlogits.shape}, expected {(b, lt, v)}")
    if dhidden is not None and dhidden.shape != (b, lt, d):
        raise ValueError(f"dhidden has shape {dhidden.shape}, expected {(b, lt, d)}")

    h_out = cache.states[:0:-1]    # the state each visited step produced
    h_in = cache.states[-2::-1]    # and the state it started from
    mask = cache.mask[::-1, :, None]
    deriv = np.square(h_out)
    np.subtract(1.0, deriv, out=deriv)
    deriv *= mask
    g_logits = dlogits.transpose(1, 0, 2)[::-1]
    g_lin = np.matmul(g_logits, params.out.T)
    g_hid = None if dhidden is None else dhidden.transpose(1, 0, 2)[::-1]

    dpre = np.empty((n, b, d))
    dh = np.zeros((b, d))
    for i in range(n):
        if i < lt:
            dh += g_lin[i]
            if g_hid is not None:
                dh += g_hid[i]
        np.multiply(dh, deriv[i], out=dpre[i])
        dh = np.where(mask[i], dpre[i] @ params.recur, dh)

    def summed(x, y):
        # products laid out in visit order, so the sum runs in visit order
        prods = np.matmul(x.transpose(0, 2, 1), y, out=np.empty((len(x), d, y.shape[2])))
        return np.add.reduce(prods, axis=0, initial=0.0)

    index = (cache.tokens[::-1, :, None] * d + np.arange(d)).ravel()
    g_embed = np.bincount(index, dpre.ravel(), minlength=v * d).reshape(v, d)
    return ParamGrads(embed=g_embed, recur=summed(dpre, h_in), out=summed(h_out[:lt], g_logits))


def route(document, context_limit: int) -> str:
    """Length routing: documents within the context limit go direct."""
    if context_limit < 1:
        raise ValueError("context limit must be >= 1")
    return ROUTE_DIRECT if len(document) <= context_limit else ROUTE_MAPREDUCE


def generate(
    params: ToyModelParams,
    document,
    mode: str = "greedy",
    beam_width: int = 4,
    max_len: int = 32,
) -> list[int]:
    """Decode a summary for one document: generate_batch on a batch of one."""
    return generate_batch(params, [document], mode, beam_width, max_len)[0]


def generate_batch(
    params: ToyModelParams,
    documents,
    mode: str = "greedy",
    beam_width: int = 4,
    max_len: int = 32,
) -> list[list[int]]:
    """Decode a summary for each document; EOS terminates and is stripped.

    The documents are encoded as one padded, masked batch, and each decoding
    step is one product over every row. Greedy takes the argmax at every
    step. Beam keeps ``beam_width`` hypotheses per document ranked by summed
    log-probability, breaking ties toward the lexicographically smallest
    token sequence.
    """
    if mode not in ("greedy", "beam"):
        raise ValueError(f"unknown generation mode {mode!r}")
    if mode == "beam" and beam_width < 1:
        raise ValueError("beam width must be >= 1")
    documents = [list(doc) for doc in documents]
    if not documents:
        return []
    rows, lengths = padded_rows(documents)
    _check_tokens(rows, params.vocab_size)
    h0 = _recur(params, np.zeros((len(documents), params.hidden_dim)),
                np.ascontiguousarray(rows.T), np.arange(rows.shape[1])[:, None] < lengths)
    if mode == "greedy":
        return _greedy(params, h0, max_len)
    return _beam(params, h0, beam_width, max_len)


def _greedy(params: ToyModelParams, h: np.ndarray, max_len: int) -> list[list[int]]:
    b = h.shape[0]
    toks = np.zeros((b, max(max_len, 0)), dtype=int)
    n_out = np.zeros(b, dtype=int)
    alive = np.ones(b, dtype=bool)
    prev = np.full(b, BOS_ID)
    for t in range(max_len):
        h = _step(params, h, prev)
        prev = np.argmax(h @ params.out, axis=1)
        alive &= prev != EOS_ID
        if not alive.any():
            break
        toks[:, t] = prev
        n_out += alive
    return [row[:n].tolist() for row, n in zip(toks, n_out)]


def _beam(params: ToyModelParams, h0: np.ndarray, k: int, max_len: int) -> list[list[int]]:
    """Beam search over (B, k) hypothesis slots; a dead slot scores -inf.

    The live hypotheses of a document all have the same length, and its
    slots hold them in lexicographic order. So the order of the flattened
    (slot, token) candidates is the order of their token sequences: a stable
    sort by score breaks ties toward the smaller sequence, and the selected
    candidates, put back in flattened order, keep the slots sorted.
    """
    b, v = h0.shape[0], params.vocab_size
    score = np.full((b, k), -np.inf)
    score[:, 0] = 0.0
    h = np.repeat(h0[:, None], k, axis=1)
    prev = np.full((b, k), BOS_ID)
    seqs = np.zeros((b, k, 0), dtype=int)
    done: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(b)]
    for _ in range(max_len):
        h = _step(params, h, prev)
        cand = (score[:, :, None] + log_softmax_t(h @ params.out, 1.0)).reshape(b, k * v)
        pick = np.sort(np.argsort(-cand, axis=1, kind="stable")[:, :k], axis=1)
        parent, prev = pick // v, pick % v
        score = np.take_along_axis(cand, pick, axis=1)
        h = np.take_along_axis(h, parent[:, :, None], axis=1)
        seqs = np.concatenate(
            [np.take_along_axis(seqs, parent[:, :, None], axis=1), prev[:, :, None]], axis=2
        )
        ended = (prev == EOS_ID) & np.isfinite(score)
        for i, j in zip(*np.nonzero(ended)):
            done[i].append((float(score[i, j]), tuple(seqs[i, j, :-1].tolist())))
        score[ended] = -np.inf
        if not np.isfinite(score).any():
            break
    for i, j in zip(*np.nonzero(np.isfinite(score))):
        done[i].append((float(score[i, j]), tuple(seqs[i, j].tolist())))
    return [list(min(row, key=lambda e: (-e[0], e[1]))[1]) for row in done]


def save_checkpoint(
    path,
    params: ToyModelParams,
    *,
    hbar_batch: float | None = None,
    projection: np.ndarray | None = None,
    meta: dict | None = None,
) -> None:
    """Write a JSON checkpoint: dimensions, flat parameter arrays, and the
    persisted running mean of teacher batch entropy when available."""
    obj = {
        "version": CHECKPOINT_VERSION,
        "vocab_size": params.vocab_size,
        "hidden_dim": params.hidden_dim,
        "embed": params.embed.ravel().tolist(),
        "recur": params.recur.ravel().tolist(),
        "out": params.out.ravel().tolist(),
        "hbar_batch": hbar_batch,
        "projection": None
        if projection is None
        else {"shape": list(projection.shape), "data": np.ravel(projection).tolist()},
        "meta": meta or {},
    }
    write_text_atomic(path, json.dumps(obj, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ToyModelParams, dict]:
    """Read a checkpoint; returns (params, extras) where extras carries
    hbar_batch, the projection matrix (if any), and meta. A malformed
    checkpoint raises ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise ValueError("checkpoint must be a JSON object")
        if obj.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {obj.get('version')!r}")
        v, d = obj["vocab_size"], obj["hidden_dim"]
        params = ToyModelParams(
            embed=np.array(obj["embed"]).reshape(v, d),
            recur=np.array(obj["recur"]).reshape(d, d),
            out=np.array(obj["out"]).reshape(d, v),
        )
        proj = None
        if obj.get("projection") is not None:
            shape = tuple(obj["projection"]["shape"])
            proj = np.array(obj["projection"]["data"]).reshape(shape)
        if not isinstance(obj.get("meta", {}), dict):
            raise ValueError("checkpoint meta must be a JSON object")
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    extras = {
        "hbar_batch": obj.get("hbar_batch"),
        "projection": proj,
        "meta": obj.get("meta", {}),
    }
    return params, extras
