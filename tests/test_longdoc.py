import numpy as np
import pytest

from relkd.longdoc import (
    ChunkConfig,
    PipelineError,
    chunk,
    dedup,
    jaccard,
    split_sentences,
    summarize_long,
)
from relkd.toymodel import BOUNDARY_ID
from relkd.training import synthetic_document

B = BOUNDARY_ID


def cfg(**kw):
    defaults = dict(chunk_capacity=900, overlap_sentences=3,
                    jaccard_threshold=0.75, context_limit=1024)
    defaults.update(kw)
    return ChunkConfig(**defaults)


class TestSplitSentences:
    def test_no_boundary_is_single_sentence(self):
        assert split_sentences([5, 6, 7]) == [[5, 6, 7]]

    def test_boundaries_kept_with_their_sentence(self):
        assert split_sentences([5, 5, B, 5, B]) == [[5, 5, B], [5, B]]

    def test_trailing_segment(self):
        assert split_sentences([5, B, 6, 7]) == [[5, B], [6, 7]]

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            doc = rng.integers(2, 8, rng.integers(1, 40)).tolist()
            parts = split_sentences(doc)
            assert [t for s in parts for t in s] == doc

    def test_empty_document(self):
        with pytest.raises(ValueError):
            split_sentences([])


class TestChunk:
    def test_hand_simulated_accumulation(self):
        # ten 100-token sentences at capacity 900 with 3-sentence overlap:
        # first chunk takes nine sentences, second restarts three back
        sentences = [[9] * 100 for _ in range(10)]
        out = chunk(sentences, cfg())
        assert [(c.first_sentence, c.last_sentence) for c in out] == [(0, 8), (6, 9)]
        assert len(out[0].tokens) == 900
        assert len(out[1].tokens) == 400

    def test_everything_fits_in_one_chunk(self):
        sentences = [[9] * 10 for _ in range(5)]
        out = chunk(sentences, cfg())
        assert len(out) == 1
        assert (out[0].first_sentence, out[0].last_sentence) == (0, 4)

    def test_zero_overlap_is_disjoint_partition(self):
        sentences = [[9] * 60 for _ in range(10)]
        out = chunk(sentences, cfg(chunk_capacity=120, overlap_sentences=0))
        covered = []
        for c in out:
            covered.extend(range(c.first_sentence, c.last_sentence + 1))
        assert covered == list(range(10))

    def test_oversized_sentence_is_an_error(self):
        with pytest.raises(ValueError, match="sentence 1"):
            chunk([[9] * 10, [9] * 1000], cfg())

    def test_coverage_and_capacity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = cfg(chunk_capacity=int(rng.integers(20, 60)),
                    overlap_sentences=int(rng.integers(0, 4)),
                    context_limit=64)
            sentences = [
                rng.integers(3, 9, rng.integers(1, c.chunk_capacity // 2)).tolist()
                for _ in range(int(rng.integers(1, 12)))
            ]
            out = chunk(sentences, c)
            seen = set()
            for ch in out:
                assert len(ch.tokens) <= c.chunk_capacity
                seen.update(range(ch.first_sentence, ch.last_sentence + 1))
            assert seen == set(range(len(sentences)))

    def test_overlap_exactly_min_of_o_and_prev_length(self):
        sentences = [[9] * 50 for _ in range(8)]
        out = chunk(sentences, cfg(chunk_capacity=200, overlap_sentences=3, context_limit=400))
        for prev, nxt in zip(out, out[1:]):
            prev_len = prev.last_sentence - prev.first_sentence + 1
            overlap = prev.last_sentence - nxt.first_sentence + 1
            assert overlap == min(3, prev_len)


class TestJaccard:
    def test_hand_count(self):
        assert jaccard([1, 2], [2, 3]) == pytest.approx(1 / 3)

    def test_identical(self):
        assert jaccard([4, 5, 5], [5, 4]) == 1.0

    def test_disjoint(self):
        assert jaccard([1, 2], [3, 4]) == 0.0

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.integers(0, 10, rng.integers(0, 8)).tolist()
            b = rng.integers(0, 10, rng.integers(0, 8)).tolist()
            j = jaccard(a, b)
            assert 0.0 <= j <= 1.0
            assert j == jaccard(b, a)


class TestDedup:
    def test_all_identical_keeps_one(self):
        s = [[1, 2, 3]] * 5
        assert dedup(s, cfg()) == [[1, 2, 3]]

    def test_disjoint_keeps_all(self):
        s = [[1], [2], [3]]
        assert dedup(s, cfg()) == s

    def test_greedy_chain(self):
        # a~b and b~c are near-duplicates but a~c is not: the first-kept scan
        # drops b against a, then keeps c against a
        a = [1, 2, 3, 4]
        b = [1, 2, 3, 4, 5]      # J(a,b) = 4/5
        c = [1, 2, 3, 4, 5, 6]   # J(b,c) = 5/6, J(a,c) = 4/6
        assert jaccard(a, b) > 0.75 and jaccard(b, c) > 0.75 and jaccard(a, c) <= 0.75
        assert dedup([a, b, c], cfg()) == [a, c]

    def test_no_kept_pair_exceeds_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = [rng.integers(0, 6, rng.integers(1, 6)).tolist() for _ in range(12)]
            kept = dedup(s, cfg())
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert jaccard(kept[i], kept[j]) <= 0.75


class TestSummarizeLong:
    ECHO = staticmethod(lambda toks: list(toks))

    def test_single_chunk_degenerates_to_direct_map(self):
        doc = [5, 6, B, 7, 8]
        out = summarize_long(doc, lambda t: t[:2], self.ECHO, cfg(chunk_capacity=50,
                                                                  context_limit=64))
        assert out == [5, 6]

    def test_echo_pipeline_on_repetitive_document(self):
        c = cfg(chunk_capacity=60, context_limit=64, overlap_sentences=3)
        doc = synthetic_document(3000, vocab_size=16, seed=7, distinct_sentences=8)
        trace = []
        out = summarize_long(doc, self.ECHO, self.ECHO, c, trace=trace)
        assert len(out) <= 64
        kept = split_sentences(out) if out else []
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert jaccard(kept[i], kept[j]) <= 0.75
        assert trace[0]["chunks"][0]["n_tokens"] <= 60

    def test_recursion_depth_two(self):
        # a reduce output still over the limit forces a second level
        c = cfg(chunk_capacity=30, context_limit=32, overlap_sentences=1)
        doc = synthetic_document(600, vocab_size=16, seed=8, distinct_sentences=40)

        def shrink(toks):
            # keep every third sentence: slow enough to need two levels
            sents = split_sentences(toks)
            return [t for s in sents[::3] for t in s]

        trace = []
        out = summarize_long(doc, shrink, shrink, c, trace=trace)
        depths = [row["depth"] for row in trace]
        assert max(depths) >= 2
        assert len(out) <= 32

    def test_non_shrinking_recursion_aborts(self):
        c = cfg(chunk_capacity=30, context_limit=32, overlap_sentences=0)
        doc = synthetic_document(200, vocab_size=64, seed=9)
        with pytest.raises(PipelineError, match="shrink"):
            summarize_long(doc, self.ECHO, self.ECHO, c)

    def test_deterministic(self):
        c = cfg(chunk_capacity=60, context_limit=64)
        doc = synthetic_document(1000, vocab_size=16, seed=10, distinct_sentences=6)
        a = summarize_long(doc, self.ECHO, self.ECHO, c)
        b = summarize_long(doc, self.ECHO, self.ECHO, c)
        assert a == b
