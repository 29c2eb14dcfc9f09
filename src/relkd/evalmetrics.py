"""Token-level ROUGE F1 scores and teacher-retention reporting.

Scores operate on integer token id sequences; there is no stemming or
stopword handling (meaningless for synthetic vocabularies). ``score_pairs``
is the one implementation: ``rouge_n`` and ``rouge_l`` score one pair
through it, and corpus-level scores are plain means of per-example F1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toymodel import integral, padded_rows


@dataclass(frozen=True)
class RougeScores:
    rouge1: float
    rouge2: float
    rougeL: float

    def __post_init__(self) -> None:
        for name in ("rouge1", "rouge2", "rougeL"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class RetentionReport:
    student: float
    teacher: float
    retention_pct: float


def rouge_n(hyp, ref, n: int) -> float:
    """Clipped n-gram overlap F1 (n in {1, 2}) of one pair: the match count is
    the sum over n-grams g of min(count_hyp(g), count_ref(g)) (Lin 2004), as
    ``score_pairs`` counts it; each side's total is its n-gram count."""
    if not (integral(type(n)) and n in (1, 2)):
        raise ValueError("n must be 1 or 2")
    return getattr(score_pairs([(list(hyp), list(ref))]), f"rouge{n}")


def rouge_l(hyp, ref) -> float:
    """LCS-based F1 of one pair, P = LCS/|hyp| and R = LCS/|ref| (Lin 2004),
    as ``score_pairs`` computes it."""
    return score_pairs([(list(hyp), list(ref))]).rougeL


def _overlap(grams: np.ndarray) -> np.ndarray:
    """sum_g min(count_hyp(g), count_ref(g)) for each pair of interleaved
    hypothesis and reference rows of n-gram codes; a code <= 0 is padding."""
    width = grams.max(initial=0) + 1
    keys = np.arange(len(grams))[:, None] // 2 * width + grams
    (hyp, n_hyp), (ref, n_ref) = (np.unique(keys[side::2][grams[side::2] > 0],
                                            return_counts=True) for side in (0, 1))
    both, i, j = np.intersect1d(hyp, ref, assume_unique=True, return_indices=True)
    return np.bincount(both // width, np.minimum(n_hyp[i], n_ref[j]), minlength=len(grams) // 2)


def score_pairs(pairs) -> RougeScores:
    """Mean ROUGE-1/2/L F1 over (hypothesis, reference) token sequences, all
    pairs at once: each mean is that of the pairs' F1, summed in pair order.

    A token that is not an integer (a bool, float or str) raises ValueError
    (``padded_rows`` checks them).
    Tokens become dense codes from 1 in interleaved 0-padded rows, and a
    bigram one int. The LCS row of each pair takes one step per hypothesis
    position (padded with -1), a running maximum: an LCS row never decreases
    and grows by at most one at a match. F1 is 0 where nothing matches, else
    2PR/(P + R) elementwise.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot score an empty set of pairs")
    rows, lengths = padded_rows(seq for pair in pairs for seq in pair)
    valid = np.arange(rows.shape[1]) < lengths[:, None]
    rows[valid] = np.unique(rows[valid], return_inverse=True)[1] + 1
    bigrams = np.where(rows[:, 1:] > 0, rows[:, :-1] * (rows.max(initial=0) + 1) + rows[:, 1:], 0)
    ref = rows[1::2, :lengths[1::2].max(initial=0)]
    lcs = np.zeros((len(pairs), ref.shape[1] + 1), dtype=int)
    for column in np.where(valid[0::2], rows[0::2], -1).T[:lengths[0::2].max(initial=0)]:
        np.maximum.accumulate(np.where(column[:, None] == ref, lcs[:, :-1] + 1, lcs[:, 1:]),
                              axis=1, out=lcs[:, 1:])
    match = np.stack([_overlap(rows), _overlap(bigrams), lcs[:, -1]])
    totals = np.stack([lengths, np.maximum(lengths - 1, 0), lengths])
    f1, ok = np.zeros(match.shape), match > 0
    p, r = match[ok] / totals[:, 0::2][ok], match[ok] / totals[:, 1::2][ok]
    f1[ok] = 2.0 * p * r / (p + r)
    return RougeScores(*(sum(row) / len(pairs) for row in f1.tolist()))


def retention(student: RougeScores, teacher: RougeScores) -> RetentionReport:
    """Student ROUGE-L as a percentage of teacher ROUGE-L; may exceed 100."""
    if teacher.rougeL <= 0:
        raise ValueError("teacher ROUGE-L must be positive for retention")
    return RetentionReport(
        student=student.rougeL,
        teacher=teacher.rougeL,
        retention_pct=100.0 * student.rougeL / teacher.rougeL,
    )
