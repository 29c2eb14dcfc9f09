"""Independent oracles for the test suite.

Everything here is a deliberately naive, straight-line reimplementation using
the math module and explicit Python loops: no shared code with the package
beyond the contracts it checks. Gradient checks use central finite
differences at double precision.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from relkd.distmath import entropy
from relkd.losses import tau_from_entropy
from relkd.toymodel import (
    BOUNDARY_ID,
    FIRST_CONTENT_ID,
    _check_tokens,
    forcing_rows,
    forward_batch,
)
from relkd.training import Corpus, CorpusConfig, CorpusExample, salient_threshold

KL_FLOOR = 1e-12
ENTROPY_FLOOR = 1e-8
GATE_EPS = 1e-12


def softmax_scalar(zs, tau=1.0):
    m = max(z / tau for z in zs)
    e = [math.exp(z / tau - m) for z in zs]
    s = sum(e)
    return [x / s for x in e]


def entropy_scalar(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def kl_scalar(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / max(qi, KL_FLOOR))
    return total


def jsd_scalar(p, q):
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    return 0.5 * kl_scalar(p, m) + 0.5 * kl_scalar(q, m)


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def clip01(x):
    return min(max(x, 0.0), 1.0)


def ewad_forward_scalar(gold, mask, z_s, z_t1, z_t2,
                        k=5.0, delta=0.5, tau_w=1.0, tau=1.0,
                        lambda_override=None, equal_weights=False):
    """Straight-line recomputation of the gated routing loss value."""
    vocab = len(z_s[0])
    vals = []
    for t in range(len(gold)):
        if not mask[t]:
            continue
        p1 = softmax_scalar(z_t1[t])
        p2 = softmax_scalar(z_t2[t])
        c1 = clip01(1.0 - entropy_scalar(p1) / math.log(vocab))
        c2 = clip01(1.0 - entropy_scalar(p2) / math.log(vocab))
        if equal_weights:
            w1 = w2 = 0.5
        else:
            w1 = sigmoid_scalar((c1 - c2) / tau_w)
            w2 = 1.0 - w1
        a = clip01(1.0 - jsd_scalar(p1, p2) / math.log(2.0))
        if lambda_override is None:
            lam = min(max(sigmoid_scalar(k * (a - delta)), GATE_EPS), 1.0 - GATE_EPS)
        else:
            lam = lambda_override
        p1s = softmax_scalar(z_t1[t], tau)
        p2s = softmax_scalar(z_t2[t], tau)
        ps_soft = softmax_scalar(z_s[t], tau)
        kd = w1 * kl_scalar(p1s, ps_soft) + w2 * kl_scalar(p2s, ps_soft)
        ps = softmax_scalar(z_s[t])
        ce = -math.log(ps[gold[t]])
        vals.append(lam * kd + (1.0 - lam) * ce)
    return sum(vals) / len(vals)


def cpdp_forward_scalar(mask, z_s, z_t1, z_t2, delta_star, clamp=100.0,
                        frozen_entropy=None):
    """Straight-line recomputation of the divergence-gap regularizer.

    ``frozen_entropy`` substitutes fixed per-position student entropies,
    which is what the detached-normalizer gradient check differentiates.
    """
    vals = []
    for t in range(len(z_s)):
        if not mask[t]:
            continue
        p1 = softmax_scalar(z_t1[t])
        p2 = softmax_scalar(z_t2[t])
        ps = softmax_scalar(z_s[t])
        if frozen_entropy is None:
            h = entropy_scalar(ps)
        else:
            h = frozen_entropy[t]
        h = max(h, ENTROPY_FLOOR)
        r = (kl_scalar(p1, ps) - kl_scalar(p2, ps)) / h - delta_star
        v = r * r
        vals.append(clamp if v >= clamp else v)
    return sum(vals) / len(vals)


def central_diff(f, x, h=1e-6):
    """Central finite differences of a scalar function over an array."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    """Max abs difference over max(1, largest gradient magnitude)."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / scale)


def lcs_bruteforce(a, b):
    """LCS length by enumerating every subsequence of the shorter sequence."""
    if len(a) > len(b):
        a, b = b, a

    def is_subseq(s, t):
        it = iter(t)
        return all(x in it for x in s)

    best = 0
    for bits in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if bits >> i & 1]
        if len(sub) > best and is_subseq(sub, b):
            best = len(sub)
    return best


def random_instance(rng, vocab=None, seq_len=None, scale=2.0):
    """Random logits instance for gradient and value checks."""
    vocab = int(vocab if vocab is not None else rng.integers(3, 9))
    seq_len = int(seq_len if seq_len is not None else rng.integers(1, 7))
    mask = rng.random(seq_len) < 0.8
    if not mask.any():
        mask[int(rng.integers(seq_len))] = True
    return {
        "gold": rng.integers(0, vocab, seq_len),
        "mask": mask,
        "z_s": scale * rng.standard_normal((seq_len, vocab)),
        "z_t1": scale * rng.standard_normal((seq_len, vocab)),
        "z_t2": scale * rng.standard_normal((seq_len, vocab)),
    }


def validate_topk_record_oracle(example_id, positions, vocab_size, k=None, mass_tol=1e-6):
    """The per-record top-k checks, one position and one pair at a time.
    Raises ValueError naming the record and position of the first fault;
    returns the probability mass each position keeps."""
    if not example_id:
        raise ValueError("record id must be non-empty")
    if vocab_size < 2:
        raise ValueError(f"{example_id}: vocab_size must be >= 2")
    masses = []
    for pos, pairs in enumerate(positions):
        if len(pairs) == 0:
            raise ValueError(f"{example_id} position {pos}: empty pair list")
        if k is not None and len(pairs) > k:
            raise ValueError(f"{example_id} position {pos}: {len(pairs)} entries exceed k={k}")
        ids = [t for t, _ in pairs]
        lps = [lp for _, lp in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"{example_id} position {pos}: duplicate token ids")
        if any(t < 0 or t >= vocab_size for t in ids):
            raise ValueError(f"{example_id} position {pos}: token id out of range")
        if not all(math.isfinite(lp) for lp in lps):
            raise ValueError(f"{example_id} position {pos}: non-finite logprob")
        if any(lps[i] < lps[i + 1] for i in range(len(lps) - 1)):
            raise ValueError(f"{example_id} position {pos}: logprobs not sorted descending")
        masses.append(sum(math.exp(lp) for lp in lps))
        if masses[-1] > 1.0 + mass_tol:
            raise ValueError(f"{example_id} position {pos}: probability mass exceeds 1")
    return masses


def records_of(cache):
    """A TopKCache's records as (example_id, positions) pairs, rebuilt from
    its flat arrays one position and one entry at a time, token ids as ints
    and logprobs as floats."""
    records = []
    for r, example_id in enumerate(cache.example_ids):
        positions = []
        for j in range(int(cache.first[r]), int(cache.first[r + 1])):
            entries = range(int(cache.bounds[j]), int(cache.bounds[j + 1]))
            positions.append([(int(cache.ids[e]), float(cache.logprobs[e])) for e in entries])
        records.append((example_id, positions))
    return records


def write_raw(path, records, vocab_size, k):
    """(example_id, positions) records as a top-k cache file, unchecked, so
    that faults reach the reader; returns the path."""
    header = {"version": 1, "kind": "topk", "vocab_size": vocab_size, "k": k}
    lines = [json.dumps({"id": example_id, "positions": positions})
             for example_id, positions in records]
    path.write_text("\n".join([json.dumps(header), *lines]) + "\n")
    return path


def topk_pairs(ids, logprobs):
    """Rows of top-k token ids and logprobs as per-position lists of
    (token_id, logprob) pairs, token ids as ints and logprobs as floats."""
    return [list(zip(*row)) for row in zip(ids.tolist(), logprobs.tolist())]


def adaptive_tau_oracle(teacher_dists, mask, batch_mean_entropy, cfg):
    """Per-sample temperature from the sample's mean teacher entropy over its
    masked positions, through the package's ``tau_from_entropy``: the
    per-sequence value that each position's temperature in ``train`` equals."""
    mask = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    h_bar = float(np.atleast_1d(entropy(np.asarray(teacher_dists)[idx])).mean())
    return float(tau_from_entropy(h_bar, batch_mean_entropy, cfg))


def densify_oracle(positions, vocab_size):
    """One record's positions as (T, V) rows: the cached masses renormalized
    over their own support, zero elsewhere; the masses are exponentiated and
    summed as zero-padded rows of the record's widest position."""
    counts = np.array([len(pairs) for pairs in positions], dtype=int)
    pairs = np.array([pair for pos in positions for pair in pos], dtype=float).reshape(-1, 2)
    rows = np.repeat(np.arange(len(positions)), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    mass = np.zeros((len(positions), counts.max(initial=1)))
    mass[rows, cols] = np.exp(pairs[:, 1])
    p = np.zeros((len(positions), vocab_size))
    p[rows, pairs[:, 0].astype(int)] = mass[rows, cols] / mass.sum(axis=1)[rows]
    return p


def synthetic_corpus_oracle(cfg: CorpusConfig) -> Corpus:
    """The corpus generator drawing one ``rng.integers`` call per value."""
    rng = np.random.default_rng([cfg.seed, 11])
    thresh = salient_threshold(cfg.vocab_size)
    examples = []
    for i in range(cfg.n_examples):
        while True:
            if cfg.task == "copy":
                ln = int(rng.integers(cfg.min_sentence_len, cfg.max_sentence_len + 1))
                doc = rng.integers(FIRST_CONTENT_ID, cfg.vocab_size, ln).tolist()
                summary = list(doc)
            else:
                n_sent = int(rng.integers(cfg.min_sentences, cfg.max_sentences + 1))
                doc = []
                for _ in range(n_sent):
                    ln = int(rng.integers(cfg.min_sentence_len, cfg.max_sentence_len + 1))
                    doc.extend(rng.integers(FIRST_CONTENT_ID, cfg.vocab_size, ln).tolist())
                    doc.append(BOUNDARY_ID)
                salient = [t for t in doc if t >= thresh]
                summary = salient[:: cfg.stride]
            if summary:
                break
        examples.append(
            CorpusExample(f"{cfg.id_prefix}{i:05d}", [int(t) for t in doc], [int(t) for t in summary])
        )
    return Corpus(examples=examples, vocab_size=cfg.vocab_size)


def synthetic_document_oracle(
    n_tokens: int,
    vocab_size: int = 64,
    seed: int = 0,
    min_sentence_len: int = 4,
    max_sentence_len: int = 8,
    distinct_sentences: int | None = None,
) -> list[int]:
    """The long-document generator drawing one ``rng.integers`` call per value."""
    rng = np.random.default_rng([seed, 13])
    pool = None
    if distinct_sentences is not None:
        pool = []
        for _ in range(distinct_sentences):
            ln = int(rng.integers(min_sentence_len, max_sentence_len + 1))
            s = rng.integers(FIRST_CONTENT_ID, vocab_size, ln).tolist() + [BOUNDARY_ID]
            pool.append([int(t) for t in s])
    doc: list[int] = []
    while len(doc) < n_tokens:
        if pool is not None:
            s = pool[int(rng.integers(len(pool)))]
        else:
            ln = int(rng.integers(min_sentence_len, max_sentence_len + 1))
            s = rng.integers(FIRST_CONTENT_ID, vocab_size, ln).tolist() + [BOUNDARY_ID]
        doc.extend(int(t) for t in s)
    return doc[:n_tokens]


# ---------------------------------------------------------------------------
# ROUGE, sentence splitting and dedup as they were first written: Counter-based
# n-gram counts, a max() DP row, a per-token sentence scan and a set rebuilt
# per comparison.


def _f1_oracle(match: float, hyp_total: int, ref_total: int) -> float:
    if match == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    p = match / hyp_total
    r = match / ref_total
    return 2.0 * p * r / (p + r)


def rouge_n_oracle(hyp, ref, n: int) -> float:
    """Clipped n-gram overlap F1 (n in {1, 2})."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    hyp, ref = list(hyp), list(ref)
    hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
    ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    match = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    return _f1_oracle(match, sum(hyp_grams.values()), sum(ref_grams.values()))


def lcs_length_oracle(a, b) -> int:
    """Longest common subsequence length by dynamic programming."""
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b):
            cur[j + 1] = prev[j] + 1 if x == y else max(prev[j + 1], cur[j])
        prev = cur
    return prev[-1]


def rouge_l_oracle(hyp, ref) -> float:
    """LCS-based F1: P = LCS/|hyp|, R = LCS/|ref|."""
    hyp, ref = list(hyp), list(ref)
    return _f1_oracle(lcs_length_oracle(hyp, ref), len(hyp), len(ref))


def score_pairs_oracle(pairs):
    """Mean ROUGE-1/2/L F1 over (hypothesis, reference) token sequences."""
    pairs = list(pairs)
    n = len(pairs)
    return (sum(rouge_n_oracle(h, r, 1) for h, r in pairs) / n,
            sum(rouge_n_oracle(h, r, 2) for h, r in pairs) / n,
            sum(rouge_l_oracle(h, r) for h, r in pairs) / n)


def split_sentences_oracle(tokens) -> list[list[int]]:
    """Partition a token stream at boundary tokens (kept with their sentence)."""
    tokens = list(tokens)
    if not tokens:
        raise ValueError("document must be non-empty")
    sentences: list[list[int]] = []
    cur: list[int] = []
    for t in tokens:
        cur.append(t)
        if t == BOUNDARY_ID:
            sentences.append(cur)
            cur = []
    if cur:
        sentences.append(cur)
    return sentences


def jaccard_oracle(a, b) -> float:
    """Set Jaccard similarity over token ids; two empty sets count as 1."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def dedup_oracle(sentences: list[list[int]], cfg) -> list[list[int]]:
    """Scan in order, dropping any sentence too similar to one already kept."""
    kept: list[list[int]] = []
    for s in sentences:
        if all(jaccard_oracle(s, k) <= cfg.jaccard_threshold for k in kept):
            kept.append(s)
    return kept


def forward_one(params, input_tokens, target_tokens):
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


def forward_batch_oracle(params, src, src_mask, tgt_in, tgt_mask):
    """The batched teacher-forced pass with batch-major (B, L + 1, d) state
    arrays, one recurrence for the source and one for the target. Returns
    logits, hidden states and the cache tuple for backward_batch_oracle."""
    b, ls = src.shape
    lt = tgt_in.shape[1]
    d = params.hidden_dim

    def recur(h, tokens, mask, states):
        for s in range(tokens.shape[1]):
            step = np.tanh(h @ params.recur.T + params.embed[tokens[:, s]])
            h = np.where(mask[:, s, None], step, h)
            states[:, s + 1] = h
        return h

    enc_states = np.zeros((b, ls + 1, d))
    h = recur(np.zeros((b, d)), src, src_mask, enc_states)
    dec_states = np.zeros((b, lt + 1, d))
    dec_states[:, 0] = h
    recur(h, tgt_in, tgt_mask, dec_states)
    hidden = dec_states[:, 1:]
    return hidden @ params.out, hidden, (src, src_mask, tgt_in, tgt_mask, enc_states, dec_states)


def backward_batch_oracle(params, cache, dlogits, dhidden=None):
    """Backpropagation one step at a time, every parameter gradient summed
    inside the step loop and the embedding gradient scattered with one
    np.add.at per step. Returns (g_embed, g_recur, g_out)."""
    src, src_mask, tgt_in, tgt_mask, enc_states, dec_states = cache
    b, lt, _ = dlogits.shape
    g_embed = np.zeros_like(params.embed)
    g_recur = np.zeros_like(params.recur)
    g_out = np.zeros_like(params.out)

    dh = np.zeros((b, params.hidden_dim))
    for t in reversed(range(lt)):
        h_t = dec_states[:, t + 1]
        h_prev = dec_states[:, t]
        g = dlogits[:, t]
        g_out += h_t.T @ g
        dh = dh + g @ params.out.T
        if dhidden is not None:
            dh = dh + dhidden[:, t]
        active = tgt_mask[:, t, None]
        dpre = np.where(active, dh * (1.0 - h_t**2), 0.0)
        g_recur += dpre.T @ h_prev
        np.add.at(g_embed, tgt_in[:, t], dpre)
        dh = np.where(active, dpre @ params.recur, dh)

    for s in reversed(range(src.shape[1])):
        h_s = enc_states[:, s + 1]
        h_prev = enc_states[:, s]
        active = src_mask[:, s, None]
        dpre = np.where(active, dh * (1.0 - h_s**2), 0.0)
        g_recur += dpre.T @ h_prev
        np.add.at(g_embed, src[:, s], dpre)
        dh = np.where(active, dpre @ params.recur, dh)

    return g_embed, g_recur, g_out
