"""Probability-vector math: temperature softmax, entropy, KL, Jensen-Shannon.

All functions work on the last axis, so a (V,) vector and a (T, V) batch of
per-position distributions go through the same code path. Logs are natural
logs throughout; results are in nats.
"""

from __future__ import annotations

import numpy as np

# Floor applied to the second argument of kl() before the division. Sparse
# distributions densified from a top-k cache carry exact zeros; without the
# floor KL(p || q) would be infinite off the cached support.
KL_Q_FLOOR = 1e-12

PROB_SUM_ATOL = 1e-9


def check_prob_dist(p: np.ndarray, name: str = "p") -> np.ndarray:
    """Validate a probability vector (or batch of them on the last axis)."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] < 2:
        raise ValueError(f"{name}: vocabulary size must be >= 2, got {p.shape[-1]}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"{name}: entries must be finite")
    if np.any(p < 0):
        raise ValueError(f"{name}: entries must be non-negative")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > PROB_SUM_ATOL):
        raise ValueError(f"{name}: entries must sum to 1 within {PROB_SUM_ATOL}")
    return p


def _checked(logits: np.ndarray, tau: float) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return z


def softmax_t(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax over the last axis, stabilized by max-subtraction."""
    return softmax_scaled(_checked(logits, tau) / tau)


def log_softmax_t(logits: np.ndarray, tau: float) -> np.ndarray:
    """log(softmax_t(logits, tau)), computed without exponentiating first."""
    return log_softmax_scaled(_checked(logits, tau) / tau)


def softmax_scaled(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of finite logits already divided by the
    temperature. Unchecked: callers validate their logits once, up front."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax_scaled(x: np.ndarray) -> np.ndarray:
    """log(softmax_scaled(x)), computed without exponentiating first."""
    x = x - x.max(axis=-1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x


def entropy(p: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats over the last axis; 0*log(0) counts as 0."""
    p = np.asarray(p, dtype=float)
    x = np.where(p > 0, p, 1.0)  # off the support the term is 1 * log(1) = 0.0
    terms = np.log(x)
    terms *= x
    out = -terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def kl(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """KL(p || q) in nats over the last axis; q floored at KL_Q_FLOOR. Terms
    off the support (p <= 0, or NaN) are 0.0; the log reads 1 there, not 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(f"dimension mismatch: {p.shape[-1]} vs {q.shape[-1]}")
    off = ~(p > 0)
    terms = np.divide(p, np.maximum(q, KL_Q_FLOOR))
    np.copyto(terms, 1.0, where=off)
    np.log(terms, out=terms)
    terms *= p
    np.copyto(terms, 0.0, where=off)
    out = terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def jsd(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence: 0.5*KL(p||m) + 0.5*KL(q||m), m = (p+q)/2.

    Symmetric, bounded in [0, ln 2]. The midpoint is positive wherever either
    argument is, so the KL floor never engages here.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1] != q.shape[-1]:
        raise ValueError(f"dimension mismatch: {p.shape[-1]} vs {q.shape[-1]}")
    m = 0.5 * (p + q)
    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


# Margin that keeps a clipped sigmoid strictly inside (0, 1) where float64
# saturates it (|x| >~ 37): the trust gate and the adaptive temperature.
OPEN_EPS = 1e-12


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    return float(out) if out.ndim == 0 else out
