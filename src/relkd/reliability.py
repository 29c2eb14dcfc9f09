"""Two-axis token reliability: teacher confidence, confidence-proportional
weights, inter-teacher agreement, and the sigmoid trust gate.

Each quantity is one function over the last axis, as in ``distmath``: a
(V,) distribution gives a float, a (T, V) batch of positions an array. Every
call validates its distributions; the losses call these once per run, over
all target positions (see ``losses.Teachers``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distmath import OPEN_EPS, check_prob_dist, entropy, jsd, sigmoid


@dataclass(frozen=True)
class ReliabilityConfig:
    """How the gate and the teacher weights are formed. Defaults are the
    reference operating point: steepness 5.0, threshold 0.5, weight
    temperature 1.0, nothing pinned. The ablation arms pin the gate to
    ``lambda_override`` and/or the weights to 0.5 (``equal_teacher_weights``);
    ``token_reliability`` applies the pins, while ``gate`` and
    ``confidence_weights`` stay the paper's unpinned formulas."""

    gate_steepness: float = 5.0
    gate_threshold: float = 0.5
    weight_temperature: float = 1.0
    lambda_override: float | None = None
    equal_teacher_weights: bool = False

    def __post_init__(self) -> None:
        if not self.gate_steepness > 0:
            raise ValueError(f"gate_steepness must be > 0, got {self.gate_steepness}")
        if not 0.0 <= self.gate_threshold <= 1.0:
            raise ValueError(f"gate_threshold must lie in [0, 1], got {self.gate_threshold}")
        if not self.weight_temperature > 0:
            raise ValueError(f"weight_temperature must be > 0, got {self.weight_temperature}")
        if self.lambda_override is not None and not 0.0 <= self.lambda_override <= 1.0:
            raise ValueError(f"lambda_override must lie in [0, 1], got {self.lambda_override}")


@dataclass(frozen=True)
class TokenReliability:
    """Reliability record: confidences, weights, agreement, gate; floats for
    one position, arrays for a (T, V) batch of positions."""

    c1: float | np.ndarray
    c2: float | np.ndarray
    w1: float | np.ndarray
    w2: float | np.ndarray
    agreement: float | np.ndarray
    gate: float | np.ndarray


def confidence(p: np.ndarray) -> float | np.ndarray:
    """1 - H(p)/ln|V| over the last axis, clipped into [0, 1]: 0 for uniform,
    1 for one-hot."""
    p = check_prob_dist(p)
    c = np.clip(1.0 - entropy(p) / np.log(p.shape[-1]), 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def confidence_weights(c1, c2, cfg: ReliabilityConfig) -> tuple[float | np.ndarray, ...]:
    """(w1, w2): the two-way softmax of paired confidences (floats, or arrays)
    at the weight temperature; w1 > w2 iff c1 > c2."""
    w1 = sigmoid((np.asarray(c1, dtype=float) - c2) / cfg.weight_temperature)
    return w1, 1.0 - w1


def agreement(p1: np.ndarray, p2: np.ndarray) -> float | np.ndarray:
    """1 - JSD(p1, p2)/ln 2 over the last axis, clipped into [0, 1]: 1 for
    identical teachers, 0 for disjoint."""
    p1 = check_prob_dist(p1, "p1")
    p2 = check_prob_dist(p2, "p2")
    if p1.shape[-1] != p2.shape[-1]:
        raise ValueError("teacher distributions must share a vocabulary")
    a = np.clip(1.0 - jsd(p1, p2) / np.log(2.0), 0.0, 1.0)
    return float(a) if a.ndim == 0 else a


def gate(a: float | np.ndarray, cfg: ReliabilityConfig) -> float | np.ndarray:
    """sigmoid(k * (a - delta)); strictly increasing, clipped to stay
    strictly inside (0, 1)."""
    g = sigmoid(cfg.gate_steepness * (np.asarray(a, dtype=float) - cfg.gate_threshold))
    g = np.clip(g, OPEN_EPS, 1.0 - OPEN_EPS)
    return float(g) if g.ndim == 0 else g


def token_reliability(
    p1: np.ndarray, p2: np.ndarray, cfg: ReliabilityConfig
) -> TokenReliability:
    """Full reliability decomposition over the last axis, with ``cfg``'s pins
    applied: w1 = w2 = 0.5 and the gate equal to ``lambda_override``."""
    c1 = confidence(p1)
    c2 = confidence(p2)
    w1, w2 = confidence_weights(c1, c2, cfg)
    a = agreement(p1, p2)
    lam = gate(a, cfg)
    if cfg.equal_teacher_weights:
        w1 = w2 = 0.0 * c1 + 0.5  # 0.5 in c1's shape, a float for a float
    if cfg.lambda_override is not None:
        lam = 0.0 * a + cfg.lambda_override
    return TokenReliability(c1=c1, c2=c2, w1=w1, w2=w2, agreement=a, gate=lam)
