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
    """Consume padded token columns (B, L) from hidden states h (B, d);
    masked-off steps keep h. Step s's state goes to ``states[:, s + 1]``
    when given. Returns the final states."""
    for s in range(tokens.shape[1]):
        h = np.where(mask[:, s, None], _step(params, h, tokens[:, s]), h)
        if states is not None:
            states[:, s + 1] = h
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
    """Per-step activations retained for backpropagation."""

    src: np.ndarray
    src_mask: np.ndarray
    tgt_in: np.ndarray
    tgt_mask: np.ndarray
    enc_states: np.ndarray   # (B, Ls + 1, d): h_0 .. h_Ls
    dec_states: np.ndarray   # (B, Lt + 1, d): h_enc_final .. h_{enc+Lt}


def forward_batch(
    params: ToyModelParams,
    src: np.ndarray,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    tgt_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Teacher-forced pass over a padded batch.

    Returns per-position logits (B, Lt, V), the hidden states that produced
    them (B, Lt, d), and the activation cache for backward_batch.
    """
    src = np.asarray(src, dtype=int)
    src_mask = np.asarray(src_mask, dtype=bool)
    tgt_in = np.asarray(tgt_in, dtype=int)
    tgt_mask = np.asarray(tgt_mask, dtype=bool)
    _check_tokens(src, params.vocab_size)
    _check_tokens(tgt_in, params.vocab_size)

    b, ls = src.shape
    lt = tgt_in.shape[1]
    d = params.hidden_dim

    enc_states = np.zeros((b, ls + 1, d))
    h = _recur(params, np.zeros((b, d)), src, src_mask, enc_states)
    dec_states = np.zeros((b, lt + 1, d))
    dec_states[:, 0] = h
    _recur(params, h, tgt_in, tgt_mask, dec_states)

    hidden = dec_states[:, 1:]
    logits = hidden @ params.out
    cache = ForwardCache(src, src_mask, tgt_in, tgt_mask, enc_states, dec_states)
    return logits, hidden, cache


def backward_batch(
    params: ToyModelParams,
    cache: ForwardCache,
    dlogits: np.ndarray,
    dhidden: np.ndarray | None = None,
) -> ParamGrads:
    """Backpropagate per-position logit (and optional hidden-state) gradients
    through the recurrence; padded steps pass gradients through untouched."""
    b, lt, _ = dlogits.shape
    g_embed = np.zeros_like(params.embed)
    g_recur = np.zeros_like(params.recur)
    g_out = np.zeros_like(params.out)

    dh = np.zeros((b, params.hidden_dim))
    for t in reversed(range(lt)):
        h_t = cache.dec_states[:, t + 1]
        h_prev = cache.dec_states[:, t]
        g = dlogits[:, t]
        g_out += h_t.T @ g
        dh = dh + g @ params.out.T
        if dhidden is not None:
            dh = dh + dhidden[:, t]
        active = cache.tgt_mask[:, t, None]
        dpre = np.where(active, dh * (1.0 - h_t**2), 0.0)
        g_recur += dpre.T @ h_prev
        np.add.at(g_embed, cache.tgt_in[:, t], dpre)
        dh = np.where(active, dpre @ params.recur, dh)

    for s in reversed(range(cache.src.shape[1])):
        h_s = cache.enc_states[:, s + 1]
        h_prev = cache.enc_states[:, s]
        active = cache.src_mask[:, s, None]
        dpre = np.where(active, dh * (1.0 - h_s**2), 0.0)
        g_recur += dpre.T @ h_prev
        np.add.at(g_embed, cache.src[:, s], dpre)
        dh = np.where(active, dpre @ params.recur, dh)

    return ParamGrads(embed=g_embed, recur=g_recur, out=g_out)


def forward(
    params: ToyModelParams, input_tokens, target_tokens
) -> tuple[np.ndarray, np.ndarray]:
    """Single-example teacher-forced pass: forward_batch on the batch of one
    that ``forcing_rows`` lays out. Returns (logits, hidden) of shape (T, V)
    and (T, d) aligned with target_tokens."""
    src, _, tgt, tgt_in, _ = forcing_rows([list(input_tokens)], [list(target_tokens)])
    _check_tokens(tgt, params.vocab_size)
    if tgt.size < 1:
        raise ValueError("target must contain at least one token")
    logits, hidden, _ = forward_batch(params, src, np.ones(src.shape, dtype=bool),
                                      tgt_in, np.ones(tgt.shape, dtype=bool))
    return logits[0], hidden[0]


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
    h0 = _recur(params, np.zeros((len(documents), params.hidden_dim)), rows,
                np.arange(rows.shape[1]) < lengths[:, None])
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
