import statistics

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from relkd.cli import _corpus_cfg, load_config, main
from relkd.evalmetrics import (
    RougeScores,
    retention,
    rouge_l,
    rouge_n,
    score_pairs,
)
from relkd.teachercache import read_cache
from relkd.toymodel import init_params, save_checkpoint
from relkd.training import synthetic_corpus

from oracles import (
    _f1_oracle,
    lcs_bruteforce,
    rouge_l_oracle,
    rouge_n_oracle,
    score_pairs_oracle,
)
from test_cli import write_config


def token_seqs(alphabet: int):
    """Token lists of length 0-60 over ``alphabet`` ids, as ints or numpy ints."""
    seq = st.lists(st.integers(40, 39 + alphabet), max_size=60)
    return st.one_of(seq, seq.map(lambda s: [np.int64(t) for t in s]))


# small alphabets, so that ties and repeated n-grams are common
seq_pairs = st.integers(1, 6).flatmap(lambda a: st.tuples(token_seqs(a), token_seqs(a)))
EDGES = [([], []), ([], [40]), ([40], []), ([40], [40]), ([40], [41]), ([40, 40], [40])]


def with_edges(test):
    for pair in EDGES:
        test = example(pair)(test)
    return test


class TestAgainstOracles:
    """``score_pairs``, and ``rouge_n`` and ``rouge_l`` through it, give exactly
    the values of the Counter and dynamic-programming oracles."""

    @pytest.mark.parametrize("n", [1, 2])
    @given(pair=seq_pairs)
    @with_edges
    def test_rouge_n(self, n, pair):
        assert rouge_n(*pair, n) == rouge_n_oracle(*pair, n)

    @given(pair=seq_pairs)
    @with_edges
    def test_rouge_l(self, pair):
        assert rouge_l(*pair) == rouge_l_oracle(*pair)

    # up to 64 pairs, so that one batch mixes empty, 1-token and 60-token
    # sequences of ints and numpy ints
    @given(pairs=st.lists(seq_pairs, min_size=1, max_size=64))
    def test_score_pairs(self, pairs):
        s = score_pairs(pairs)
        assert (s.rouge1, s.rouge2, s.rougeL) == score_pairs_oracle(pairs)

    @given(refs=st.lists(token_seqs(4), min_size=1, max_size=16))
    def test_score_pairs_with_every_hypothesis_empty(self, refs):
        pairs = [([], r) for r in refs]
        s = score_pairs(pairs)
        assert (s.rouge1, s.rouge2, s.rougeL) == score_pairs_oracle(pairs) == (0.0, 0.0, 0.0)

    @given(pairs=st.lists(st.tuples(*[st.lists(st.integers(-3, 2), max_size=12)] * 2),
                          min_size=1, max_size=16))
    def test_score_pairs_with_negative_tokens(self, pairs):
        # the batched arrays pad with -1 and 0, so tokens are recoded before padding
        s = score_pairs(pairs)
        assert (s.rouge1, s.rouge2, s.rougeL) == score_pairs_oracle(pairs)


class TestRougeN:
    def test_identical(self):
        assert rouge_n([1, 2, 3], [1, 2, 3], 1) == 1.0
        assert rouge_n([1, 2, 3], [1, 2, 3], 2) == 1.0

    def test_disjoint(self):
        assert rouge_n([1, 2], [3, 4], 1) == 0.0

    def test_hand_count(self):
        # hyp {a,b,c} vs ref {a,c,d}: 2 matches, P = R = F = 2/3
        assert rouge_n([1, 2, 3], [1, 3, 4], 1) == pytest.approx(2 / 3)

    def test_clipped_counts(self):
        # repeated hyp tokens only count up to their reference multiplicity
        assert rouge_n([1, 1, 1], [1, 2, 3], 1) == pytest.approx(2 * (1 / 3) * (1 / 3) / (2 / 3))

    def test_short_sequences_score_zero(self):
        assert rouge_n([1], [1, 2], 2) == 0.0
        assert rouge_n([], [1], 1) == 0.0

    @pytest.mark.parametrize("n", [0, 3, True, 1.0, 2.0, "1"])
    def test_invalid_n(self, n):
        with pytest.raises(ValueError, match="n must be 1 or 2"):
            rouge_n([1], [1], n)

    def test_numpy_integer_n(self):
        assert rouge_n([1, 2], [1, 2], np.int64(2)) == 1.0


class TestRougeL:
    def test_identical(self):
        assert rouge_l([4, 5, 6], [4, 5, 6]) == 1.0

    def test_transposition(self):
        # LCS of (cat,the,sat) vs (the,cat,sat) is 2 -> F1 = 2/3
        assert rouge_l([1, 2, 3], [2, 1, 3]) == pytest.approx(2 / 3)

    def test_empty_hypothesis(self):
        assert rouge_l([], [1, 2]) == 0.0

    def test_lcs_matches_bruteforce_exhaustive_small(self):
        # every pair over a 2-token alphabet up to length 4
        seqs = []
        for ln in range(5):
            for bits in range(2**ln):
                seqs.append([bits >> i & 1 for i in range(ln)])
        for a in seqs:
            for b in seqs:
                assert rouge_l(a, b) == _f1_oracle(lcs_bruteforce(a, b), len(a), len(b))

    def test_lcs_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = rng.integers(0, 3, rng.integers(0, 7)).tolist()
            b = rng.integers(0, 3, rng.integers(0, 7)).tolist()
            assert rouge_l(a, b) == _f1_oracle(lcs_bruteforce(a, b), len(a), len(b))

    def test_rouge_l_never_exceeds_rouge_1(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = rng.integers(0, 5, rng.integers(1, 10)).tolist()
            b = rng.integers(0, 5, rng.integers(1, 10)).tolist()
            assert rouge_l(a, b) <= rouge_n(a, b, 1) + 1e-12


class TestScorePairs:
    def test_mean_of_examples(self):
        pairs = [([1, 2], [1, 2]), ([1], [2])]
        s = score_pairs(pairs)
        assert s.rouge1 == pytest.approx(0.5)
        assert s.rougeL == pytest.approx(0.5)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            score_pairs([])

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pairs = [
                (rng.integers(0, 4, rng.integers(0, 6)).tolist(),
                 rng.integers(0, 4, rng.integers(1, 6)).tolist())
                for _ in range(3)
            ]
            s = score_pairs(pairs)
            for v in (s.rouge1, s.rouge2, s.rougeL):
                assert 0.0 <= v <= 1.0


SCORERS = {
    "rouge_n": lambda hyp, ref: rouge_n(hyp, ref, 1),
    "rouge_l": rouge_l,
    "score_pairs": lambda hyp, ref: score_pairs([([1], [1]), (hyp, ref)]).rouge1,
}


class TestTokenTypes:
    """Every scorer compares integer tokens only: a token that padding would
    truncate (3.5), parse ('4') or read as 1 (True) is rejected, on either side."""

    @pytest.mark.parametrize("scorer", SCORERS.values(), ids=SCORERS)
    @pytest.mark.parametrize("token", [3.5, "4", True, np.float64(3)],
                             ids=["float", "str", "bool", "float64"])
    def test_a_token_that_is_not_an_integer_is_rejected(self, scorer, token):
        for pair in (([token], [3]), ([3], [token])):
            with pytest.raises(ValueError, match="tokens must be integers, got "):
                scorer(*pair)

    @pytest.mark.parametrize("scorer", SCORERS.values(), ids=SCORERS)
    def test_numpy_integer_tokens_are_accepted(self, scorer):
        assert scorer([np.int64(3)], [3]) == scorer([3], [np.int64(3)]) == 1.0

    def test_the_message_names_each_type(self):
        with pytest.raises(ValueError, match="got float, str$"):
            score_pairs([(["4"], [3.5]), ([4], [4])])


def test_the_mean_over_cached_pseudo_labels_equals_the_oracle(tmp_path):
    # the benchmark's pseudo_rougeL: the mean rouge_l of each pseudo-label
    # against the gold summary of its training example
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 8, np.random.default_rng(3)))
    cfg = write_config(tmp_path / "c.json", teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    gold = {ex.example_id: ex.summary
            for ex in synthetic_corpus(_corpus_cfg(load_config(str(cfg), None), "train")).examples}
    pseudo = read_cache(tmp_path / "pseudo_labels.jsonl", "pseudo")
    assert len(pseudo) == len(gold)
    scores = [rouge_l(r.tokens, gold[r.example_id]) for r in pseudo]
    oracle = [rouge_l_oracle(r.tokens, gold[r.example_id]) for r in pseudo]
    assert scores == oracle and len(set(scores)) > 1
    assert statistics.fmean(scores) == statistics.fmean(oracle)


class TestRetention:
    def test_equal_scores(self):
        s = RougeScores(0.3, 0.2, 0.25)
        assert retention(s, s).retention_pct == 100.0

    def test_published_row_below_teacher(self):
        r = retention(RougeScores(0.344, 0.165, 0.308), RougeScores(0.419, 0.218, 0.372))
        assert abs(r.retention_pct - 82.8) <= 0.3

    def test_published_row_above_teacher(self):
        r = retention(RougeScores(0.525, 0.327, 0.491), RougeScores(0.450, 0.229, 0.401))
        assert abs(r.retention_pct - 122.4) <= 0.1

    def test_zero_teacher_errors(self):
        with pytest.raises(ValueError):
            retention(RougeScores(0.1, 0.1, 0.1), RougeScores(0.2, 0.1, 0.0))

    def test_scores_validate_range(self):
        with pytest.raises(ValueError):
            RougeScores(1.2, 0.0, 0.0)
