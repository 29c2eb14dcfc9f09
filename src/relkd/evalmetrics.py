"""Token-level ROUGE F1 scores and teacher-retention reporting.

Scores operate on token id sequences; there is no stemming or stopword
handling (meaningless for synthetic vocabularies). Corpus-level scores are
plain means of per-example F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice


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


def _f1(match: float, hyp_total: int, ref_total: int) -> float:
    if match == 0 or hyp_total == 0 or ref_total == 0:
        return 0.0
    p = match / hyp_total
    r = match / ref_total
    return 2.0 * p * r / (p + r)


def rouge_n(hyp, ref, n: int) -> float:
    """Clipped n-gram overlap F1 (n in {1, 2}): the match count is the sum over
    n-grams g of min(count_hyp(g), count_ref(g)) (Lin 2004), found by a merge
    of the two sorted n-gram lists; each side's total is its n-gram count."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    hyp, ref = list(hyp), list(ref)
    if n == 2:
        hyp, ref = zip(hyp, hyp[1:]), zip(ref, ref[1:])
    hyp, ref = sorted(hyp), sorted(ref)
    n_hyp, n_ref = len(hyp), len(ref)
    i = j = match = 0
    while i < n_hyp and j < n_ref:
        if hyp[i] < ref[j]:
            i += 1
        elif ref[j] < hyp[i]:
            j += 1
        else:
            match, i, j = match + 1, i + 1, j + 1
    return _f1(match, n_hyp, n_ref)


def lcs_length(a, b) -> int:
    """Longest common subsequence length by dynamic programming."""
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur, left = [0], 0
        for y, diag, up in zip(b, prev, islice(prev, 1, None)):
            left = diag + 1 if x == y else (up if up > left else left)
            cur.append(left)
        prev = cur
    return prev[-1]


def rouge_l(hyp, ref) -> float:
    """LCS-based F1: P = LCS/|hyp|, R = LCS/|ref|."""
    hyp, ref = list(hyp), list(ref)
    return _f1(lcs_length(hyp, ref), len(hyp), len(ref))


def score_pairs(pairs) -> RougeScores:
    """Mean ROUGE-1/2/L F1 over (hypothesis, reference) token sequences."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot score an empty set of pairs")
    n = len(pairs)
    return RougeScores(
        rouge1=sum(rouge_n(h, r, 1) for h, r in pairs) / n,
        rouge2=sum(rouge_n(h, r, 2) for h, r in pairs) / n,
        rougeL=sum(rouge_l(h, r) for h, r in pairs) / n,
    )


def retention(student: RougeScores, teacher: RougeScores) -> RetentionReport:
    """Student ROUGE-L as a percentage of teacher ROUGE-L; may exceed 100."""
    if teacher.rougeL <= 0:
        raise ValueError("teacher ROUGE-L must be positive for retention")
    return RetentionReport(
        student=student.rougeL,
        teacher=teacher.rougeL,
        retention_pct=100.0 * student.rougeL / teacher.rougeL,
    )
