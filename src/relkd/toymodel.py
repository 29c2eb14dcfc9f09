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
    h = np.zeros((b, d))
    for s in range(ls):
        upd = np.tanh(h @ params.recur.T + params.embed[src[:, s]])
        h = np.where(src_mask[:, s, None], upd, h)
        enc_states[:, s + 1] = h

    dec_states = np.zeros((b, lt + 1, d))
    dec_states[:, 0] = h
    for t in range(lt):
        upd = np.tanh(h @ params.recur.T + params.embed[tgt_in[:, t]])
        h = np.where(tgt_mask[:, t, None], upd, h)
        dec_states[:, t + 1] = h

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
    """Single-example teacher-forced pass.

    The decoder consumes BOS followed by the targets shifted right; returns
    (logits, hidden) of shape (T, V) and (T, d) aligned with target_tokens.
    """
    inp = np.asarray(list(input_tokens), dtype=int)
    tgt = np.asarray(list(target_tokens), dtype=int)
    _check_tokens(tgt, params.vocab_size)
    if tgt.size < 1:
        raise ValueError("target must contain at least one token")
    tgt_in = np.concatenate([[BOS_ID], tgt[:-1]])
    logits, hidden, _ = forward_batch(
        params,
        inp.reshape(1, -1),
        np.ones((1, inp.size), dtype=bool),
        tgt_in.reshape(1, -1),
        np.ones((1, tgt.size), dtype=bool),
    )
    return logits[0], hidden[0]


def route(document, context_limit: int) -> str:
    """Length routing: documents within the context limit go direct."""
    if context_limit < 1:
        raise ValueError("context limit must be >= 1")
    return ROUTE_DIRECT if len(document) <= context_limit else ROUTE_MAPREDUCE


def _encode(params: ToyModelParams, tokens: np.ndarray) -> np.ndarray:
    h = np.zeros(params.hidden_dim)
    for tok in tokens:
        h = np.tanh(params.recur @ h + params.embed[tok])
    return h


def generate(
    params: ToyModelParams,
    document,
    mode: str = "greedy",
    beam_width: int = 4,
    max_len: int = 32,
) -> list[int]:
    """Decode a summary for the document; EOS terminates and is stripped.

    Greedy takes the argmax at every step. Beam keeps ``beam_width``
    hypotheses ranked by summed log-probability, breaking ties toward the
    lexicographically smallest token sequence.
    """
    doc = np.asarray(list(document), dtype=int)
    _check_tokens(doc, params.vocab_size)
    h0 = _encode(params, doc)

    if mode == "greedy":
        h, prev = h0, BOS_ID
        toks: list[int] = []
        for _ in range(max_len):
            h = np.tanh(params.recur @ h + params.embed[prev])
            nxt = int(np.argmax(h @ params.out))
            if nxt == EOS_ID:
                break
            toks.append(nxt)
            prev = nxt
        return toks

    if mode != "beam":
        raise ValueError(f"unknown generation mode {mode!r}")
    if beam_width < 1:
        raise ValueError("beam width must be >= 1")

    # (score, tokens, state); tokens include any terminal EOS until selection.
    active: list[tuple[float, tuple[int, ...], np.ndarray]] = [(0.0, (), h0)]
    completed: list[tuple[float, tuple[int, ...]]] = []
    for _ in range(max_len):
        expansions: list[tuple[float, tuple[int, ...], np.ndarray]] = []
        for score, toks, h in active:
            prev = toks[-1] if toks else BOS_ID
            h2 = np.tanh(params.recur @ h + params.embed[prev])
            logp = log_softmax_t(h2 @ params.out, 1.0)
            for v in range(params.vocab_size):
                expansions.append((score + float(logp[v]), toks + (v,), h2))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        active = []
        for score, toks, h2 in expansions[:beam_width]:
            if toks[-1] == EOS_ID:
                completed.append((score, toks[:-1]))
            else:
                active.append((score, toks, h2))
        if not active:
            break
    completed.extend((score, toks) for score, toks, _ in active)
    completed.sort(key=lambda e: (-e[0], e[1]))
    return list(completed[0][1])


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
    hbar_batch, the projection matrix (if any), and meta."""
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {obj.get('version')!r}")
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
    extras = {
        "hbar_batch": obj.get("hbar_batch"),
        "projection": proj,
        "meta": obj.get("meta", {}),
    }
    return params, extras
