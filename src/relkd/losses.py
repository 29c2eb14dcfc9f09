"""Training objectives with hand-derived gradients.

Every loss returns its scalar value together with analytic gradients with
respect to the student logits (and, for the hidden-state match, the student
hiddens and the projection). Teachers are frozen supervision: no gradient
flows into teacher distributions, reliability weights, or the trust gate.

Conventions shared by all losses:
  * every loss reads only the masked (non-padding) rows that ``TokenBatch``
    gathers, and gets its gradient rows laid back out over all positions by
    ``TokenBatch.expand``;
  * aggregation is the mean over masked positions; a batch of sequences
    laid out in the rows, padded or not, gets the sum of its per-sequence
    means (see ``TokenBatch``);
  * reliability quantities (confidence, agreement, gate) are computed from
    raw teacher softmaxes, while distillation KL terms use the distillation
    temperature;
  * the divergence-gap regularizer runs at temperature 1 and treats the
    student entropy as a constant during differentiation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .distmath import OPEN_EPS, entropy, kl, log_softmax_scaled, sigmoid, softmax_scaled, softmax_t
from .reliability import ReliabilityConfig, TokenReliability, token_reliability

# Floor for the student entropy in the divergence-gap ratio; the ratio is
# undefined at H = 0 and a (near-)deterministic student would otherwise blow
# it up. Floored positions are flagged in the trace.
ENTROPY_FLOOR = 1e-8


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
        for name in ("alpha_kd", "alpha_inter", "mu"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails both comparisons
                raise ValueError(f"{name} must be a finite number >= 0, got {getattr(self, name)}")
        if self.alpha_kd + self.alpha_inter > 1.0:
            raise ValueError(f"alpha_kd + alpha_inter must not exceed 1, got "
                             f"{self.alpha_kd} + {self.alpha_inter}")
        if not self.cpdp_clamp > 0:
            raise ValueError(f"cpdp_clamp must be > 0, got {self.cpdp_clamp}")
        object.__setattr__(self, "alpha_hard", 1.0 - self.alpha_kd - self.alpha_inter)


@dataclass(frozen=True)
class AdaptiveTauConfig:
    """Bounds for the per-sample distillation temperature."""

    tau_min: float = 0.5
    tau_max: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau_min < self.tau_max:
            raise ValueError(f"tau_min must lie in (0, tau_max {self.tau_max}), "
                             f"got {self.tau_min}")


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
        """The teachers at ``rows``, sharing everything computed for these. A
        view's rows are composed onto its parent's, so views do not nest."""
        rows = np.asarray(rows, dtype=int)
        if self._parent is not None:
            return self._parent.take(self._rows[rows])
        view = Teachers()
        view._parent, view._rows, view.present = self, rows, self.present
        view.shape = self.shape and (rows.size, self.shape[1])
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

    def reliability(self, rcfg: ReliabilityConfig) -> TokenReliability:
        """``token_reliability`` of the raw (temperature-1) softmaxes, pins
        included, one row per position; computed once per ``rcfg``."""
        rows = self._get(("reliability", rcfg), lambda t: np.column_stack(
            astuple(token_reliability(t.probs(1), t.probs(2), rcfg))))
        return TokenReliability(*rows.T)

    def divergence_gap_direction(self) -> np.ndarray:
        """p_T2 - p_T1 at temperature 1: d(KL1 - KL2)/dz_S with H held fixed."""
        return self._get(("gap",), lambda t: t.probs(2) - t.probs(1))


class TokenBatch:
    """Teacher-forced positions: gold ids, padding mask, (T, V) student
    logits, the teachers at the positions and each position's ``sequence``.

    The full arrays are checked, then only the masked rows are kept:
    ``gold_ids``, ``student_logits``, ``teachers`` and ``seq_lengths`` hold
    one row per entry of ``positions``, and ``expand`` lays such rows back
    out over all T. ``mask`` keeps its full length. Masked positions of
    sequence j weigh 1/m_j, so every loss is the masked mean of one
    sequence, or the sum of the per-sequence means of a batch of sequences
    laid out in the rows, padded or not (the caller divides by B).
    Weighting divides by m_j as a per-sequence call does, so the rows match
    it bit for bit.
    """

    def __init__(
        self,
        gold_ids,
        mask,
        student_logits,
        teachers: Teachers | None = None,
        *,
        sequence=None,
    ) -> None:
        gold_ids = np.asarray(gold_ids, dtype=int)
        self.mask = np.asarray(mask, dtype=bool)
        student_logits = np.asarray(student_logits, dtype=float)
        if student_logits.ndim != 2:
            raise ValueError("student_logits must have shape (T, V)")
        t, v = student_logits.shape
        if t < 1:
            raise ValueError("batch must contain at least one position")
        if gold_ids.shape != (t,) or self.mask.shape != (t,):
            raise ValueError("gold_ids and mask must have length T")
        if np.any(gold_ids < 0) or np.any(gold_ids >= v):
            raise ValueError("gold ids must lie in [0, vocab)")
        if not np.all(np.isfinite(student_logits)):
            raise ValueError("student logits must be finite")
        teachers = Teachers() if teachers is None else teachers
        if teachers.shape not in (None, (t, v)):
            raise ValueError("teacher logits must have shape (T, V)")
        self.positions = p = np.flatnonzero(self.mask)
        if p.size == 0:
            raise ValueError("mask selects no positions; masked mean is undefined")
        seq = np.zeros(t, dtype=int) if sequence is None else np.asarray(sequence, dtype=int)
        if seq.shape != (t,) or np.any(seq < 0):
            raise ValueError("sequence must hold one non-negative index per position")
        self.gold_ids, self.student_logits = gold_ids[p], student_logits[p]
        self.teachers = teachers.take(p)
        # m_j of the sequence of each masked position
        self.seq_lengths = np.bincount(seq[p])[seq[p]].astype(float)

    def weigh(self, rows: np.ndarray) -> np.ndarray:
        """Values or gradient rows, one per masked position, weighted 1/m_j
        (divided by m_j)."""
        return rows / (self.seq_lengths if rows.ndim == 1 else self.seq_lengths[:, None])

    def aggregate(self, values: np.ndarray) -> float:
        """The loss of one value per masked position: the masked mean, summed
        over the sequences."""
        return float(self.weigh(values).sum())

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """Rows of any width, one per masked position, laid out over all T
        positions with zeros at padding."""
        out = np.zeros((self.mask.size, *rows.shape[1:]))
        out[self.positions] = rows
        return out

    def temperature(self, tau):
        """``tau`` checked: a scalar, or one per position (all T), returned
        as a column over the masked positions."""
        tau = np.asarray(tau, dtype=float)
        if tau.shape not in ((), self.mask.shape) or not np.all(tau > 0):
            raise ValueError("temperatures must be positive, a scalar or one per position")
        return float(tau) if tau.ndim == 0 else tau[self.positions, None]


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


@dataclass(frozen=True)
class EwadTrace(TokenReliability):
    """The reliability record and the two loss terms the gate mixes, as
    arrays in the order of ``TokenBatch.positions``."""

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


def ce_loss(batch: TokenBatch) -> tuple[float, np.ndarray]:
    """Gold negative log-likelihood, averaged over masked positions."""
    rows, gold = np.arange(batch.gold_ids.size), batch.gold_ids
    logp = log_softmax_scaled(batch.student_logits)
    value = -batch.aggregate(logp[rows, gold])

    p = np.exp(logp)
    p[rows, gold] -= 1.0
    return value, batch.expand(batch.weigh(p))


def kd_loss(batch: TokenBatch, tau) -> tuple[float, np.ndarray]:
    """tau^2-scaled KL between temperature-softened teacher and student;
    ``tau`` is a scalar or one temperature per position."""
    tau = batch.temperature(tau)
    p_t = batch.teachers.probs(1, tau)
    p_s = softmax_scaled(batch.student_logits / tau)
    value = batch.aggregate(np.ravel(tau * tau) * kl(p_t, p_s))
    return value, batch.expand(batch.weigh(tau * (p_s - p_t)))


def inter_match_loss(batch: TokenBatch, h: HiddenPair) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared distance between unit-normalized projected student hiddens and
    unit-normalized teacher hiddens at the batch's masked positions, weighed
    as the other losses are; ``h`` holds one row per batch position.
    Returns (value, d/d_hidden, d/d_proj)."""
    if h.student_hidden.shape[0] != batch.mask.size:
        raise ValueError("hidden states must have one row per batch position")
    hs = h.student_hidden[batch.positions]
    ht = h.teacher_hidden[batch.positions]
    a = hs @ h.projection
    na = np.linalg.norm(a, axis=1)
    nt = np.linalg.norm(ht, axis=1)
    if np.any(na == 0) or np.any(nt == 0):
        raise ValueError("zero-norm hidden vector; normalization undefined")
    u = a / na[:, None]
    v = ht / nt[:, None]
    value = batch.aggregate(((u - v) ** 2).sum(axis=1))

    # d||u - v||^2 / da = 2((u.v) u - v) / ||a||, with u = a/||a||.
    uv = (u * v).sum(axis=1)
    da = 2.0 * (uv[:, None] * u - v) / na[:, None]
    return value, batch.expand(batch.weigh(da @ h.projection.T)), hs.T @ batch.weigh(da)


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
        iv, gh, gw = inter_match_loss(batch, h)
        value += weights.alpha_inter * iv
        grads.hidden = weights.alpha_inter * gh
        grads.projection = weights.alpha_inter * gw
        grads.components["inter"] = iv

    return float(value), grads


def ewad_loss(
    batch: TokenBatch,
    rcfg: ReliabilityConfig,
    tau: float,
) -> tuple[float, np.ndarray, EwadTrace]:
    """Reliability-gated routing between weighted teacher KD and gold CE.

    Per masked position: gate * (w1 KL(p_T1 || p_S) + w2 KL(p_T2 || p_S))
    + (1 - gate) * (-log p_S(gold)), averaged over the mask. Confidence and
    agreement come from raw (temperature-1) teacher softmaxes; the KL terms
    use the distillation temperature. Gate and weights are data-dependent
    constants: the gradient only flows through the student distributions.
    ``rcfg`` forms them, its pins included (see ``ReliabilityConfig``).
    """
    tau = batch.temperature(tau)
    teachers = batch.teachers
    rows, gold = np.arange(batch.gold_ids.size), batch.gold_ids
    r = teachers.reliability(rcfg)
    w1, w2, lam = r.w1, r.w2, r.gate

    t1_soft = teachers.probs(1, tau)
    t2_soft = teachers.probs(2, tau)
    z = batch.student_logits
    s_soft = softmax_scaled(z / tau)
    kd_term = w1 * kl(t1_soft, s_soft) + w2 * kl(t2_soft, s_soft)

    logp = log_softmax_scaled(z)
    ce_term = -logp[rows, gold]

    value = batch.aggregate(lam * kd_term + (1.0 - lam) * ce_term)

    ce_g = np.exp(logp)
    ce_g[rows, gold] -= 1.0
    mix = w1[:, None] * t1_soft + w2[:, None] * t2_soft
    kd_g = (s_soft - mix) / tau
    grad = batch.expand(batch.weigh(lam[:, None] * kd_g + (1.0 - lam)[:, None] * ce_g))

    return value, grad, EwadTrace(**vars(r), kd_term=kd_term, ce_term=ce_term)


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
    p_s = softmax_scaled(batch.student_logits)
    kl1 = kl(teachers.probs(1), p_s)
    kl2 = kl(teachers.probs(2), p_s)
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
    grad = batch.expand(batch.weigh(coeff[:, None] * teachers.divergence_gap_direction()))

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


def tau_from_entropy(sample_entropy, batch_mean_entropy: float, cfg: AdaptiveTauConfig):
    """tau = tau_min + (tau_max - tau_min) * sigmoid(H_sample - H_batch),
    elementwise over ``sample_entropy``; the interpolant is clipped so tau
    stays strictly inside the open interval."""
    t = sigmoid(np.asarray(sample_entropy, dtype=float) - batch_mean_entropy)
    t = np.clip(t, OPEN_EPS, 1.0 - OPEN_EPS)
    return cfg.tau_min + (cfg.tau_max - cfg.tau_min) * t
