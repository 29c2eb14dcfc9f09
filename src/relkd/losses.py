"""Training objectives with hand-derived gradients.

Every loss returns its scalar value together with analytic gradients with
respect to the student logits (and, for the hidden-state match, the student
hiddens and the projection). Teachers are frozen supervision: no gradient
flows into teacher distributions, reliability weights, or the trust gate.

Conventions shared by all losses:
  * aggregation is the mean over masked (non-padding) positions; a batch of
    flattened sequences gets the sum of its per-sequence means (see
    ``TokenBatch``);
  * reliability quantities (confidence, agreement, gate) are computed from
    raw teacher softmaxes, while distillation KL terms use the distillation
    temperature;
  * the divergence-gap regularizer runs at temperature 1 and treats the
    student entropy as a constant during differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distmath import entropy, kl, log_softmax_scaled, sigmoid, softmax_scaled, softmax_t
from .reliability import ReliabilityConfig, token_reliability

# Floor for the student entropy in the divergence-gap ratio; the ratio is
# undefined at H = 0 and a (near-)deterministic student would otherwise blow
# it up. Floored positions are flagged in the trace.
ENTROPY_FLOOR = 1e-8

# Keeps the adaptive temperature strictly inside (tau_min, tau_max) when the
# sigmoid saturates in float64.
_OPEN_EPS = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights for the composite objective.

    ``alpha_hard`` is derived so the three alphas sum to one by construction.
    ``mu`` scales the divergence-gap regularizer; per-token regularizer values
    are clamped at ``cpdp_clamp``.
    """

    alpha_kd: float = 0.01
    alpha_inter: float = 0.0
    mu: float = 0.05
    cpdp_clamp: float = 100.0
    alpha_hard: float = field(init=False)

    def __post_init__(self) -> None:
        if self.alpha_kd < 0 or self.alpha_inter < 0:
            raise ValueError("loss weights must be non-negative")
        if self.alpha_kd + self.alpha_inter > 1.0:
            raise ValueError("alpha_kd + alpha_inter must not exceed 1")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not self.cpdp_clamp > 0:
            raise ValueError("cpdp_clamp must be positive")
        object.__setattr__(self, "alpha_hard", 1.0 - self.alpha_kd - self.alpha_inter)


@dataclass(frozen=True)
class AdaptiveTauConfig:
    """Bounds for the per-sample distillation temperature."""

    tau_min: float = 0.5
    tau_max: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_min < self.tau_max:
            raise ValueError("require 0 < tau_min < tau_max")


@dataclass(frozen=True)
class CpdpAnchor:
    """Fixed inter-teacher divergence target, computed once before training."""

    delta_star: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.delta_star):
            raise ValueError("delta_star must be finite")


class Teachers:
    """Frozen teacher logits, (T, V) each, and what the losses derive from them.

    Teachers receive no gradient, so each derived quantity is computed at
    most once: ``take(rows)`` gives the teachers at some of the positions,
    and anything asked of it is computed over every position of the parent
    on first use, then gathered. Logits are checked once, on construction.
    """

    def __init__(self, teacher1_logits=None, teacher2_logits=None) -> None:
        self._parent, self._rows, self._memo = None, None, {}
        for which, z in ((1, teacher1_logits), (2, teacher2_logits)):
            if z is not None:
                z = np.asarray(z, dtype=float)
                if z.ndim != 2 or not np.all(np.isfinite(z)):
                    raise ValueError(f"teacher{which} logits must be finite, of shape (T, V)")
                self._memo[("logits", which)] = z
        shapes = {z.shape for z in self._memo.values()}
        if len(shapes) > 1:
            raise ValueError("teacher logits must share one shape")
        self.shape = shapes.pop() if shapes else None
        self.present = frozenset(key[1] for key in self._memo)

    def take(self, rows) -> Teachers:
        """The teachers at ``rows``, sharing everything computed for these."""
        view = Teachers()
        view._parent, view._rows, view.present = self, np.asarray(rows, dtype=int), self.present
        view.shape = self.shape and (view._rows.size, self.shape[1])
        return view

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = (compute(self) if self._parent is None
                               else self._parent._get(key, compute)[self._rows])
        return self._memo[key]

    def logits(self, which: int) -> np.ndarray:
        if which not in self.present:
            raise ValueError(f"requires teacher{which} logits")
        return self._get(("logits", which), None)

    def probs(self, which: int, tau=1.0) -> np.ndarray:
        """Softmax of one teacher at ``tau``: a scalar, or a (T, 1) column of
        per-position temperatures (computed for these rows only)."""
        if np.ndim(tau):
            return softmax_scaled(self.logits(which) / tau)
        return self._get(("probs", which, float(tau)), lambda t: softmax_t(t.logits(which), tau))

    def reliability(self, rcfg: ReliabilityConfig, lambda_override: float | None = None,
                    equal_weights: bool = False) -> tuple[np.ndarray, ...]:
        """Per-position (c1, c2, w1, w2, agreement, gate) from the raw
        (temperature-1) softmaxes; the overrides pin the gate or the weights."""

        def compute(t: Teachers) -> np.ndarray:
            r = token_reliability(t.probs(1), t.probs(2), rcfg)
            w1, w2 = (np.full(r.c1.shape, 0.5),) * 2 if equal_weights else (r.w1, r.w2)
            lam = r.gate if lambda_override is None else np.full(r.gate.shape, lambda_override)
            return np.stack([r.c1, r.c2, w1, w2, r.agreement, lam], axis=1)

        return tuple(self._get(("reliability", rcfg, lambda_override, equal_weights), compute).T)

    def divergence_gap_direction(self) -> np.ndarray:
        """p_T2 - p_T1 at temperature 1: d(KL1 - KL2)/dz_S with H held fixed."""
        return self._get(("gap",), lambda t: t.probs(2) - t.probs(1))


class TokenBatch:
    """Teacher-forced positions: gold ids, padding mask, (T, V) student
    logits, each position's ``sequence`` and the teachers at the positions.

    Masked positions of sequence j weigh 1/m_j, so every loss is the masked
    mean of one sequence, or the sum of the per-sequence means of a batch
    flattened into the rows (the caller divides by B). Weighting divides by
    m_j as a per-sequence call does, so the rows match it bit for bit.
    """

    def __init__(
        self,
        gold_ids,
        mask,
        student_logits,
        teacher1_logits=None,
        teacher2_logits=None,
        *,
        sequence=None,
        teachers: Teachers | None = None,
    ) -> None:
        self.gold_ids = np.asarray(gold_ids, dtype=int)
        self.mask = np.asarray(mask, dtype=bool)
        self.student_logits = np.asarray(student_logits, dtype=float)
        if self.student_logits.ndim != 2:
            raise ValueError("student_logits must have shape (T, V)")
        t, v = self.student_logits.shape
        if t < 1:
            raise ValueError("batch must contain at least one position")
        if self.gold_ids.shape != (t,) or self.mask.shape != (t,):
            raise ValueError("gold_ids and mask must have length T")
        if np.any(self.gold_ids < 0) or np.any(self.gold_ids >= v):
            raise ValueError("gold ids must lie in [0, vocab)")
        if not np.all(np.isfinite(self.student_logits)):
            raise ValueError("student logits must be finite")
        if teachers is None:
            teachers = Teachers(teacher1_logits, teacher2_logits)
        elif teacher1_logits is not None or teacher2_logits is not None:
            raise ValueError("pass teacher logits or teachers, not both")
        if teachers.shape not in (None, (t, v)):
            raise ValueError("teacher logits must have shape (T, V)")
        self.teachers = teachers
        self.positions = _masked_positions(self.mask)
        seq = np.zeros(t, dtype=int) if sequence is None else np.asarray(sequence, dtype=int)
        if seq.shape != (t,) or np.any(seq < 0):
            raise ValueError("sequence must hold one non-negative index per position")
        # m_j of the sequence of each masked position
        self.seq_lengths = np.bincount(seq[self.positions])[seq[self.positions]].astype(float)

    def weigh(self, rows: np.ndarray) -> np.ndarray:
        """Values or gradient rows, one per masked position, weighted 1/m_j
        (divided by m_j)."""
        return rows / (self.seq_lengths if rows.ndim == 1 else self.seq_lengths[:, None])

    def aggregate(self, values: np.ndarray) -> float:
        """The loss of one value per masked position: the masked mean, summed
        over the sequences."""
        return float(self.weigh(values).sum())

    def temperature(self, tau):
        """``tau`` checked: a scalar, or a (T, 1) column of one per position."""
        tau = np.asarray(tau, dtype=float)
        if tau.shape not in ((), self.mask.shape) or not np.all(tau > 0):
            raise ValueError("temperatures must be positive, a scalar or one per position")
        return float(tau) if tau.ndim == 0 else tau[:, None]


class HiddenPair:
    """Per-position student/teacher hidden states plus the learned projection.

    The projection maps student space to teacher space: (T, d_S) @ (d_S, d_T).
    """

    def __init__(self, student_hidden, teacher_hidden, projection) -> None:
        self.student_hidden = np.asarray(student_hidden, dtype=float)
        self.teacher_hidden = np.asarray(teacher_hidden, dtype=float)
        self.projection = np.asarray(projection, dtype=float)
        if self.student_hidden.ndim != 2 or self.teacher_hidden.ndim != 2:
            raise ValueError("hidden states must have shape (T, d)")
        if self.student_hidden.shape[0] != self.teacher_hidden.shape[0]:
            raise ValueError("student and teacher hidden position counts differ")
        if self.projection.shape != (
            self.student_hidden.shape[1],
            self.teacher_hidden.shape[1],
        ):
            raise ValueError("projection shape must be (d_S, d_T)")


@dataclass
class EwadTrace:
    """Per-masked-position reliability and loss components, as arrays in the
    order of ``TokenBatch.positions``."""

    c1: np.ndarray
    c2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    agreement: np.ndarray
    gate: np.ndarray
    kd_term: np.ndarray
    ce_term: np.ndarray


@dataclass
class CpdpTrace:
    """Per-masked-position regularizer diagnostics, in the order of
    ``TokenBatch.positions``."""

    kl_t1: np.ndarray
    kl_t2: np.ndarray
    student_entropy: np.ndarray
    ratio: np.ndarray
    value: np.ndarray
    clamped: np.ndarray
    entropy_floored: np.ndarray


@dataclass
class StandardGrads:
    """Gradients of a training objective, plus the unweighted per-component
    values (for metrics logging without recomputation)."""

    logits: np.ndarray
    hidden: np.ndarray | None = None
    projection: np.ndarray | None = None
    components: dict[str, float] = field(default_factory=dict)


def _masked_positions(mask: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("mask selects no positions; masked mean is undefined")
    return idx


def ce_loss(batch: TokenBatch) -> tuple[float, np.ndarray]:
    """Gold negative log-likelihood, averaged over masked positions."""
    idx = batch.positions
    rows, gold = np.arange(idx.size), batch.gold_ids[idx]
    logp = log_softmax_scaled(batch.student_logits[idx])
    value = -batch.aggregate(logp[rows, gold])

    grad = np.zeros_like(batch.student_logits)
    p = np.exp(logp)
    p[rows, gold] -= 1.0
    grad[idx] = batch.weigh(p)
    return value, grad


def kd_loss(batch: TokenBatch, tau) -> tuple[float, np.ndarray]:
    """tau^2-scaled KL between temperature-softened teacher and student;
    ``tau`` is a scalar or one temperature per position."""
    tau = batch.temperature(tau)
    idx = batch.positions
    p_t = batch.teachers.probs(1, tau)[idx]
    tau_m = tau if np.ndim(tau) == 0 else tau[idx]
    p_s = softmax_scaled(batch.student_logits[idx] / tau_m)
    value = batch.aggregate(np.ravel(tau_m * tau_m) * kl(p_t, p_s))

    grad = np.zeros_like(batch.student_logits)
    grad[idx] = batch.weigh(tau_m * (p_s - p_t))
    return value, grad


def inter_match_loss(
    h: HiddenPair, mask, seq_lengths=None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared distance between unit-normalized projected student hiddens and
    unit-normalized teacher hiddens, averaged over masked positions; returns
    (value, d/d_hidden, d/d_proj). ``seq_lengths`` (``TokenBatch.seq_lengths``)
    weighs each masked position 1/m_j instead, for a batch of sequences."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (h.student_hidden.shape[0],):
        raise ValueError("mask must have one entry per position")
    idx = _masked_positions(mask)
    m = np.full(idx.size, float(idx.size)) if seq_lengths is None else np.asarray(seq_lengths)

    hs = h.student_hidden[idx]
    ht = h.teacher_hidden[idx]
    a = hs @ h.projection
    na = np.linalg.norm(a, axis=1)
    nt = np.linalg.norm(ht, axis=1)
    if np.any(na == 0) or np.any(nt == 0):
        raise ValueError("zero-norm hidden vector; normalization undefined")
    u = a / na[:, None]
    v = ht / nt[:, None]
    value = float((((u - v) ** 2).sum(axis=1) / m).sum())

    # d||u - v||^2 / da = 2((u.v) u - v) / ||a||, with u = a/||a||.
    uv = (u * v).sum(axis=1)
    da = 2.0 * (uv[:, None] * u - v) / na[:, None]
    grad_hidden = np.zeros_like(h.student_hidden)
    grad_hidden[idx] = da @ h.projection.T / m[:, None]
    grad_proj = hs.T @ (da / m[:, None])
    return value, grad_hidden, grad_proj


def standard_total(
    batch: TokenBatch,
    h: HiddenPair | None,
    weights: LossWeights,
    tau,
) -> tuple[float, StandardGrads]:
    """alpha_hard*CE + alpha_kd*KD + alpha_inter*InterMatch.

    Zero-weighted components are skipped entirely, so the degenerate weight
    settings reproduce the surviving components exactly. ``tau`` is a
    scalar or one temperature per position.
    """
    ce_v, grad_logits = ce_loss(batch)
    value = weights.alpha_hard * ce_v
    grad_logits = weights.alpha_hard * grad_logits
    grads = StandardGrads(
        logits=grad_logits, components={"ce": ce_v, "kd": 0.0, "inter": 0.0}
    )

    if weights.alpha_kd > 0:
        kd_v, kd_g = kd_loss(batch, tau)
        value += weights.alpha_kd * kd_v
        grads.logits += weights.alpha_kd * kd_g
        grads.components["kd"] = kd_v

    if weights.alpha_inter > 0:
        if h is None:
            raise ValueError("alpha_inter > 0 requires hidden states")
        iv, gh, gw = inter_match_loss(h, batch.mask, batch.seq_lengths)
        value += weights.alpha_inter * iv
        grads.hidden = weights.alpha_inter * gh
        grads.projection = weights.alpha_inter * gw
        grads.components["inter"] = iv

    return float(value), grads


def ewad_loss(
    batch: TokenBatch,
    rcfg: ReliabilityConfig,
    tau: float,
    *,
    lambda_override: float | None = None,
    equal_weights: bool = False,
) -> tuple[float, np.ndarray, EwadTrace]:
    """Reliability-gated routing between weighted teacher KD and gold CE.

    Per masked position: gate * (w1 KL(p_T1 || p_S) + w2 KL(p_T2 || p_S))
    + (1 - gate) * (-log p_S(gold)), averaged over the mask. Confidence and
    agreement come from raw (temperature-1) teacher softmaxes; the KL terms
    use the distillation temperature. Gate and weights are data-dependent
    constants: the gradient only flows through the student distributions.

    ``lambda_override`` pins the gate (ablation arms); ``equal_weights``
    pins w1 = w2 = 0.5.
    """
    tau = batch.temperature(tau)
    teachers = batch.teachers
    idx = batch.positions
    rows, gold = np.arange(idx.size), batch.gold_ids[idx]
    c1, c2, w1, w2, a, lam = (
        x[idx] for x in teachers.reliability(rcfg, lambda_override, equal_weights)
    )

    t1_soft = teachers.probs(1, tau)[idx]
    t2_soft = teachers.probs(2, tau)[idx]
    tau_m = tau if np.ndim(tau) == 0 else tau[idx]
    z = batch.student_logits[idx]
    s_soft = softmax_scaled(z / tau_m)
    kd_term = w1 * kl(t1_soft, s_soft) + w2 * kl(t2_soft, s_soft)

    logp = log_softmax_scaled(z)
    ce_term = -logp[rows, gold]

    value = batch.aggregate(lam * kd_term + (1.0 - lam) * ce_term)

    ce_g = np.exp(logp)
    ce_g[rows, gold] -= 1.0
    mix = w1[:, None] * t1_soft + w2[:, None] * t2_soft
    kd_g = (s_soft - mix) / tau_m
    grad = np.zeros_like(batch.student_logits)
    grad[idx] = batch.weigh(lam[:, None] * kd_g + (1.0 - lam)[:, None] * ce_g)

    trace = EwadTrace(c1=c1, c2=c2, w1=w1, w2=w2, agreement=a, gate=lam,
                      kd_term=kd_term, ce_term=ce_term)
    return value, grad, trace


def cpdp_loss(
    batch: TokenBatch,
    anchor: CpdpAnchor,
    weights: LossWeights,
) -> tuple[float, np.ndarray, CpdpTrace]:
    """Squared deviation of the entropy-normalized divergence gap from the
    fixed inter-teacher anchor, clamped per token and averaged over the mask.

    The student entropy normalizer enters the forward value but is held
    constant during differentiation, blocking the trivial raise-the-entropy
    escape; clamped positions contribute zero gradient.
    """
    teachers = batch.teachers
    idx = batch.positions

    p_s = softmax_scaled(batch.student_logits[idx])
    kl1 = kl(teachers.probs(1)[idx], p_s)
    kl2 = kl(teachers.probs(2)[idx], p_s)
    h_s = entropy(p_s)
    floored = h_s < ENTROPY_FLOOR
    h_eff = np.where(floored, ENTROPY_FLOOR, h_s)

    ratio = (kl1 - kl2) / h_eff - anchor.delta_star
    raw = ratio**2
    clamped = raw >= weights.cpdp_clamp
    value_tok = np.where(clamped, weights.cpdp_clamp, raw)
    value = batch.aggregate(value_tok)

    # With H held constant, d(KL1 - KL2)/dz_S = p_T2 - p_T1: the student
    # softmax cancels between the two divergences.
    coeff = np.where(clamped, 0.0, 2.0 * ratio / h_eff)
    grad = np.zeros_like(batch.student_logits)
    grad[idx] = batch.weigh(coeff[:, None] * teachers.divergence_gap_direction()[idx])

    trace = CpdpTrace(kl_t1=kl1, kl_t2=kl2, student_entropy=h_s, ratio=ratio,
                      value=value_tok, clamped=clamped, entropy_floored=floored)
    return value, grad, trace


def compute_anchor(
    teacher1_dists: np.ndarray, teacher2_dists: np.ndarray
) -> CpdpAnchor:
    """Mean inter-teacher KL over a calibration set of distribution pairs."""
    p1 = np.atleast_2d(np.asarray(teacher1_dists, dtype=float))
    p2 = np.atleast_2d(np.asarray(teacher2_dists, dtype=float))
    if p1.shape[0] == 0:
        raise ValueError("calibration set is empty")
    if p1.shape != p2.shape:
        raise ValueError("calibration sets must have matching shapes")
    return CpdpAnchor(delta_star=float(np.atleast_1d(kl(p1, p2)).mean()))


def adaptive_tau(
    teacher_dists: np.ndarray,
    mask,
    batch_mean_entropy: float,
    cfg: AdaptiveTauConfig,
) -> float:
    """Per-sample temperature from the sample's mean teacher entropy over its
    masked positions; see ``tau_from_entropy``."""
    mask = np.asarray(mask, dtype=bool)
    idx = _masked_positions(mask)
    h_bar = float(np.atleast_1d(entropy(np.asarray(teacher_dists)[idx])).mean())
    return float(tau_from_entropy(h_bar, batch_mean_entropy, cfg))


def tau_from_entropy(sample_entropy, batch_mean_entropy: float, cfg: AdaptiveTauConfig):
    """tau = tau_min + (tau_max - tau_min) * sigmoid(H_sample - H_batch),
    elementwise over ``sample_entropy``; the interpolant is clipped so tau
    stays strictly inside the open interval."""
    t = sigmoid(np.asarray(sample_entropy, dtype=float) - batch_mean_entropy)
    t = np.clip(t, _OPEN_EPS, 1.0 - _OPEN_EPS)
    return cfg.tau_min + (cfg.tau_max - cfg.tau_min) * t
