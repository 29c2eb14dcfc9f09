"""Tiny autoregressive encoder-decoder with hand-derived backpropagation.

One tanh recurrence plays both roles: the document is consumed first
(conditioning pass, no outputs), then the target is consumed teacher-forced,
emitting logits at every target position:

    h_t = tanh(R h_{t-1} + E[prev_token]),   logits_t = h_t O

The batched paths take padded token rows and their lengths; padded steps
leave the hidden state untouched so padded and unpadded runs of the same
example agree exactly.
Token id 0 is the end-of-sequence marker, 1 starts decoding, and 2 marks
sentence boundaries for the long-document pipeline.

A checkpoint is one JSON object of its version, the dimensions, ``meta`` and
each array as ``encode_floats`` text: base64 of little-endian float64, which
keeps every bit. Top-k caches use the same codec, ``encode_base64``/``decode_base64``.
"""

from __future__ import annotations

import json
import math
from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .atomic import write_text_atomic
from .distmath import log_softmax_scaled

EOS_ID = 0
BOS_ID = 1
BOUNDARY_ID = 2
FIRST_CONTENT_ID = 3

ROUTE_DIRECT = "direct"
ROUTE_MAPREDUCE = "mapreduce"

CHECKPOINT_VERSION = 2


def param_shapes(vocab_size: int, hidden_dim: int) -> dict[str, tuple[int, int]]:
    """The model's arrays by name and shape, in the order init_params draws them."""
    return {"embed": (vocab_size, hidden_dim), "recur": (hidden_dim, hidden_dim),
            "out": (hidden_dim, vocab_size)}


@dataclass
class ToyModelParams:
    """The model's arrays, shaped as ``param_shapes`` declares."""

    embed: np.ndarray
    recur: np.ndarray
    out: np.ndarray

    def __post_init__(self) -> None:
        for name, a in self.arrays().items():
            setattr(self, name, np.asarray(a, dtype=float))
        v, d = self.embed.shape
        shapes = param_shapes(v, d)
        if any(a.shape != shapes[name] for name, a in self.arrays().items()):
            raise ValueError("parameter shapes are inconsistent")
        if not all(np.all(np.isfinite(a)) for a in self.arrays().values()):
            raise ValueError("parameters must be finite")

    def arrays(self) -> dict[str, np.ndarray]:
        """The model's arrays by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.embed.shape[1]

    def copy(self) -> "ToyModelParams":
        return ToyModelParams(**{name: a.copy() for name, a in self.arrays().items()})


def init_params(
    vocab_size: int, hidden_dim: int, rng: np.random.Generator, scale: float = 0.2
) -> ToyModelParams:
    return ToyModelParams(**{name: scale * rng.standard_normal(shape)
                             for name, shape in param_shapes(vocab_size, hidden_dim).items()})


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
    time-major (L + 1, B, d) array, is given, ``states[s + 1]`` holds step
    s's embeddings on entry and its state on return.

    ``recur.T`` is taken once. With ``states`` a step adds ``h @ recur.T``,
    written into one scratch block, to its embeddings in place (addition
    commutes: the bits are kept). Without, it adds the embeddings gathered
    from one row of ``tokens`` to a fresh product: decoding encodes
    thousands of rows at once, and gathering ahead or reusing blocks
    measured slower there. Then tanh runs in place, and the previous state
    is copied back onto masked-off rows, on the steps that have any.
    """
    recur_t = params.recur.T
    scratch = None if states is None else np.empty_like(h)
    for s, (tok, keep, full) in enumerate(zip(tokens, ~mask[:, :, None], mask.all(axis=1))):
        step = h @ recur_t if states is None else states[s + 1]
        step += params.embed[tok] if states is None else np.matmul(h, recur_t, out=scratch)
        np.tanh(step, out=step)
        if not full:
            np.copyto(step, h, where=keep)
        h = step
    return h


def integral(kind: type) -> bool:
    """Whether values of ``kind`` are integers: int or a numpy integer, not bool."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def padded_rows(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Token sequences as EOS-padded rows of one int array, and their lengths.
    The rows are filled from one pass over all the tokens, in order. A token
    that is not an integer (a bool, float or str) raises ValueError."""
    seqs = list(seqs)
    bad = sorted(kind.__name__ for kind in set(map(type, chain.from_iterable(seqs)))
                 if not integral(kind))
    if bad:
        raise ValueError(f"tokens must be integers, got {', '.join(bad)}")
    lengths = np.array([len(seq) for seq in seqs], dtype=int)
    rows = np.full((len(seqs), lengths.max(initial=0)), EOS_ID, dtype=int)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(seqs), dtype=int, count=lengths.sum())
    return rows, lengths


@dataclass
class ForwardCache:
    """Per-step activations retained for backpropagation, time-major so that
    each step's (B, d) block is contiguous. The source and the target input
    (BOS, then the target shifted right) are one run of the recurrence:
    ``tokens`` and ``mask`` are (Ls + Lt, B), the source steps first, and
    ``states`` is (Ls + Lt + 1, B, d), with ``states[s]`` every row's state
    after s steps (``states[0]`` is zero)."""

    tokens: np.ndarray
    mask: np.ndarray
    states: np.ndarray
    target_steps: int


def _length_mask(lengths, rows: np.ndarray, name: str) -> np.ndarray:
    """The time-major (L, B) mask of the first ``lengths[b]`` cells of each
    of the (B, L) rows."""
    lengths = np.asarray(lengths)
    width = rows.shape[1]
    if (lengths.shape != (len(rows),) or lengths.min(initial=0) < 0
            or lengths.max(initial=0) > width):
        raise ValueError(f"{name}_len {lengths.tolist()} must hold one length in "
                         f"[0, {width}] for each of the {len(rows)} rows")
    return np.arange(width)[:, None] < lengths


def forward_batch(
    params: ToyModelParams,
    src: np.ndarray,
    src_len,
    tgt: np.ndarray,
    tgt_len,
) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Teacher-forced pass over a padded batch: read the first ``src_len[b]``
    tokens of each source row, then predict the first ``tgt_len[b]`` tokens
    of each target row from BOS and the target tokens before them.

    Returns per-position logits (B, Lt, V), the hidden states that produced
    them (B, Lt, d; a view of the cache's time-major states), and the
    activation cache for backward_batch. Token arrays that are not 2-D with
    one row per example, or lengths that are not one per row in [0, width],
    raise ValueError.
    """
    src = np.asarray(src, dtype=int)
    tgt = np.asarray(tgt, dtype=int)
    if src.ndim != 2 or tgt.ndim != 2 or len(src) != len(tgt):
        raise ValueError(f"src {src.shape} and tgt {tgt.shape} must be 2-D "
                         "with the same number of rows")
    mask = np.concatenate([_length_mask(src_len, src, "src"),
                           _length_mask(tgt_len, tgt, "tgt")])
    # the target input: BOS, then every target token but the last
    tokens = np.concatenate([src.T, np.full((1, len(tgt)), BOS_ID), tgt.T])[:-1]
    _check_tokens(tokens, params.vocab_size)
    states = np.zeros((len(tokens) + 1, len(src), params.hidden_dim))
    # the ids are checked: "clip" writes straight into out, "raise" buffers it
    np.take(params.embed, tokens, axis=0, out=states[1:], mode="clip")
    _recur(params, states[0], tokens, mask, states)

    hidden = states[src.shape[1] + 1:].transpose(1, 0, 2)
    logits = hidden @ params.out
    return logits, hidden, ForwardCache(tokens, mask, states, tgt.shape[1])


def backward_batch(
    params: ToyModelParams,
    cache: ForwardCache,
    dlogits: np.ndarray,
    dhidden: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Backpropagate per-position logit (B, Lt, V) and optional hidden-state
    (B, Lt, d) gradients through the recurrence; padded steps pass gradients
    through untouched. Returns each array's gradient, keyed and ordered as in
    ``param_shapes``. Gradients of any other shape raise ValueError.

    Steps are visited last to first: the target steps, then the source
    steps. Reversed views of the cache's time-major arrays give every step
    in that order without a copy. The tanh derivative ``1 - h**2`` is
    computed once, in visit order, and zeroed on padded cells; the loop
    turns each step's block of it into ``dpre = dh * deriv`` in place. Only
    what depends on the step before stays in the loop: adding the step's
    output gradient to dh, dpre, and ``dpre @ recur``, into dh, or on a
    step with padded rows into a scratch block copied onto dh's other rows.
    The rest runs once: the output gradients ``dlogits @ out.T``, and the
    ``out`` and ``recur`` gradients as one stacked product per step, summed
    in visit order from zero. The embedding gradient is one ``np.bincount``
    over ``token * d + column``, weights in visit order, then row order: each
    bin receives a per-step ``np.add.at``'s additions in its order. So the
    gradients keep their bits.
    """
    lt = cache.target_steps
    b = cache.tokens.shape[1]
    v, d = params.vocab_size, params.hidden_dim
    if dlogits.shape != (b, lt, v):
        raise ValueError(f"dlogits has shape {dlogits.shape}, expected {(b, lt, v)}")
    if dhidden is not None and dhidden.shape != (b, lt, d):
        raise ValueError(f"dhidden has shape {dhidden.shape}, expected {(b, lt, d)}")

    h_out = cache.states[:0:-1]    # the state each visited step produced
    h_in = cache.states[-2::-1]    # and the state it started from
    mask = cache.mask[::-1]
    dpre = np.square(h_out)
    np.subtract(1.0, dpre, out=dpre)
    dpre[~mask] = 0.0
    g_logits = dlogits.transpose(1, 0, 2)[::-1]
    g_lin = np.matmul(g_logits, params.out.T)
    g_hid = None if dhidden is None else dhidden.transpose(1, 0, 2)[::-1]

    dh = np.zeros((b, d))
    scratch = np.empty((b, d))
    for i, full in enumerate(mask.all(axis=1)):
        if i < lt:
            dh += g_lin[i]
            if g_hid is not None:
                dh += g_hid[i]
        np.multiply(dh, dpre[i], out=dpre[i])
        prod = np.matmul(dpre[i], params.recur, out=dh if full else scratch)
        if not full:
            np.copyto(dh, prod, where=mask[i, :, None])

    def summed(x, y):
        # products laid out in visit order, so the sum runs in visit order
        prods = np.matmul(x.transpose(0, 2, 1), y, out=np.empty((len(x), d, y.shape[2])))
        return np.add.reduce(prods, axis=0, initial=0.0)

    index = (cache.tokens[::-1, :, None] * d + np.arange(d)).ravel()
    g_embed = np.bincount(index, dpre.ravel(), minlength=v * d).reshape(v, d)
    return {"embed": g_embed, "recur": summed(dpre, h_in), "out": summed(h_out[:lt], g_logits)}


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
    max_len: int = 16,
) -> list[int]:
    """Decode a summary for one document: generate_batch on a batch of one."""
    return generate_batch(params, [document], mode, beam_width, max_len)[0]


def generate_batch(params: ToyModelParams, documents, mode: str = "greedy",
                   beam_width: int = 4, max_len: int = 16) -> list[list[int]]:
    """Decode a summary for each document: decode_rows on its padded rows."""
    return decode_rows(params, *padded_rows(documents), mode, beam_width, max_len)


def decode_rows(params: ToyModelParams, rows: np.ndarray, lengths, mode: str = "greedy",
                beam_width: int = 4, max_len: int = 16) -> list[list[int]]:
    """Decode a summary for the first ``lengths[b]`` tokens of each EOS-padded
    row of ``rows`` (as ``padded_rows`` gives them); EOS terminates and is
    stripped.

    The rows are encoded as one masked batch, and each decoding step is one
    product over every row. Greedy takes the argmax at every step. Beam
    keeps ``beam_width`` hypotheses per row ranked by summed
    log-probability, breaking ties toward the lexicographically smallest
    token sequence.
    """
    if mode not in ("greedy", "beam"):
        raise ValueError(f"unknown generation mode {mode!r}")
    if mode == "beam" and beam_width < 1:
        raise ValueError("beam width must be >= 1")
    if not len(rows):
        return []
    _check_tokens(rows, params.vocab_size)
    h0 = _recur(params, np.zeros((len(rows), params.hidden_dim)),
                np.ascontiguousarray(rows.T), _length_mask(lengths, rows, "row"))
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
    return [row[:n] for row, n in zip(toks.tolist(), n_out.tolist())]


def topk_order(x: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of a stable argsort of each row of ``-x``: only
    rows with a tie (-inf ties -inf) in their first k + 1 are sorted stably."""
    order = np.argsort(-x, axis=-1)[:, :k + 1]
    top = np.take_along_axis(x, order, axis=-1)
    tied = ~(top[:, :-1] > top[:, 1:]).all(axis=1)
    order[tied] = np.argsort(-x[tied], axis=-1, kind="stable")[:, :k + 1]
    return order[:, :k]


def _beam(params: ToyModelParams, h0: np.ndarray, k: int, max_len: int) -> list[list[int]]:
    """Beam search over (B, k) hypothesis slots; a dead slot scores -inf.

    The live hypotheses of a document all have the same length, and its
    slots hold them in lexicographic order. So the order of the flattened
    (slot, token) candidates is the order of their token sequences:
    ``topk_order`` breaks ties toward the smaller sequence, and the selected
    candidates, put back in flattened order, keep the slots sorted.

    A document leaves the batch (``docs`` maps the rows left to ``done``)
    once no live slot scores at least ``best``, its best finished score. That
    is exact: scores never rise, as a log-softmax is <= 0 (``x - max`` <= 0,
    and the log of a sum holding exp(0) = 1 is >= 0); a tie with ``best``
    stays (``>=``) for the lexicographic tie-break; and the rows left keep
    their bits, as matmul on the (B, k, d) state runs one product per
    document and the log-softmax, ``topk_order`` and the sorts go row by row.
    """
    b, v = h0.shape[0], params.vocab_size
    score = np.full((b, k), -np.inf)
    score[:, 0] = 0.0
    h = np.repeat(h0[:, None], k, axis=1)
    prev = np.full((b, k), BOS_ID)
    seqs = np.zeros((b, k, 0), dtype=int)
    best = np.full((b, 1), -np.inf)
    docs = np.arange(b)
    done: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(b)]
    for _ in range(max_len):
        h = _step(params, h, prev)
        cand = (score[:, :, None] + log_softmax_scaled(h @ params.out)).reshape(-1, k * v)
        pick = np.sort(topk_order(cand, k), axis=1)
        parent, prev = pick // v, pick % v
        score = np.take_along_axis(cand, pick, axis=1)
        h = np.take_along_axis(h, parent[:, :, None], axis=1)
        seqs = np.concatenate(
            [np.take_along_axis(seqs, parent[:, :, None], axis=1), prev[:, :, None]], axis=2
        )
        ended = (prev == EOS_ID) & np.isfinite(score)
        for i, j in zip(*np.nonzero(ended)):
            done[docs[i]].append((float(score[i, j]), tuple(seqs[i, j, :-1].tolist())))
        best = np.maximum(best, score.max(axis=1, keepdims=True, where=ended, initial=-np.inf))
        score[ended] = -np.inf
        keep = (score >= best).any(axis=1)
        docs, score, h, prev, seqs, best = (a[keep] for a in (docs, score, h, prev, seqs, best))
        if not len(docs):
            break
    for i, j in zip(*np.nonzero(np.isfinite(score))):
        done[docs[i]].append((float(score[i, j]), tuple(seqs[i, j].tolist())))
    return [list(min(row, key=lambda e: (-e[0], e[1]))[1]) for row in done]


def encode_base64(blob) -> str:
    """The base64 text of ``blob``'s bytes, without a newline."""
    return b2a_base64(blob, newline=False).decode("ascii")


def decode_base64(texts, name: str) -> list[bytes]:
    """The bytes of each base64 text in ``texts``, decoded strictly; a text that
    is not a base64 string raises ValueError naming ``name`` and the reason."""
    try:
        return [a2b_base64(text, strict_mode=True) for text in texts]
    except (TypeError, ValueError) as exc:  # not a string, not ASCII or not base64
        raise ValueError(f"{name} must be a base64 string ({exc})") from None


def encode_floats(a) -> str:
    """The base64 of ``a``'s values as little-endian float64 bytes."""
    return encode_base64(np.asarray(a, dtype="<f8").tobytes())


def decode_floats(text, shape: tuple, name: str) -> np.ndarray:
    """``encode_floats`` text as a new writable array of ``shape``; text that is not
    base64, or not 8 bytes per value, raises ValueError naming ``name``."""
    (blob,) = decode_base64([text], name)
    if len(blob) != 8 * math.prod(shape):
        raise ValueError(f"{name} must hold 8 bytes per value of shape {shape}")
    return np.frombuffer(blob, "<f8").reshape(shape).astype(float)  # a copy: writable


def save_checkpoint(path, params: ToyModelParams, *, meta: dict | None = None) -> None:
    """Write a checkpoint: one JSON object of the version, the dimensions,
    ``meta`` and each array as its ``encode_floats`` text. A meta that is not
    standard JSON (a NaN or an infinity) raises ValueError naming ``path``
    before any file is written."""
    obj = {
        "version": CHECKPOINT_VERSION,
        "vocab_size": params.vocab_size,
        "hidden_dim": params.hidden_dim,
        "meta": meta or {},
        **{name: encode_floats(a) for name, a in params.arrays().items()},
    }
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint meta must be standard JSON ({exc})") from None
    write_text_atomic(path, text + "\n")


def _not_standard_json(constant: str):
    raise ValueError(f"checkpoint must be standard JSON, got {constant}")


def load_checkpoint(path) -> tuple[ToyModelParams, dict]:
    """Read a checkpoint; returns (params, meta). Keys it does not read are
    ignored. A malformed checkpoint, one of another version, or one that
    ``save_checkpoint`` would not write (a NaN or an infinity) raises
    ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f, parse_constant=_not_standard_json)
        if not isinstance(obj, dict):
            raise ValueError("checkpoint must be a JSON object")
        version = obj.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:  # True == 1.0 == 1
            raise ValueError(f"unsupported checkpoint version {version!r} (this relkd reads "
                             f"version {CHECKPOINT_VERSION}; retrain it with distill)")
        v, d = obj["vocab_size"], obj["hidden_dim"]
        for name, size in (("vocab_size", v), ("hidden_dim", d)):
            if not (integral(type(size)) and size > 0):
                raise ValueError(f"{name} must be a positive integer, got {size!r}")
        params = ToyModelParams(**{name: decode_floats(obj[name], shape, name)
                                   for name, shape in param_shapes(v, d).items()})
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError("checkpoint meta must be a JSON object")
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc} entry") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params, meta
