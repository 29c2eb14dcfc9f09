import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relkd.longdoc import (
    ChunkConfig,
    PipelineError,
    chunk,
    dedup,
    jaccard,
    split_sentences,
    summarize_long,
)
from relkd.toymodel import BOUNDARY_ID, padded_rows
from relkd.training import synthetic_document

from oracles import (
    chunk_oracle,
    dedup_oracle,
    jaccard_oracle,
    listwise,
    split_sentences_oracle,
    summarize_long_oracle,
)

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
        out = chunk(list(map(len, sentences)), cfg())
        assert [(c.first_sentence, c.last_sentence) for c in out] == [(0, 8), (6, 9)]
        assert out[0].n_tokens == 900
        assert out[1].n_tokens == 400

    def test_everything_fits_in_one_chunk(self):
        sentences = [[9] * 10 for _ in range(5)]
        out = chunk(list(map(len, sentences)), cfg())
        assert len(out) == 1
        assert (out[0].first_sentence, out[0].last_sentence) == (0, 4)

    def test_zero_overlap_is_disjoint_partition(self):
        sentences = [[9] * 60 for _ in range(10)]
        out = chunk(list(map(len, sentences)), cfg(chunk_capacity=120, overlap_sentences=0))
        covered = []
        for c in out:
            covered.extend(range(c.first_sentence, c.last_sentence + 1))
        assert covered == list(range(10))

    def test_oversized_sentence_is_an_error(self):
        with pytest.raises(ValueError, match="sentence 1"):
            chunk([10, 1000], cfg())

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
            out = chunk(list(map(len, sentences)), c)
            seen = set()
            for ch in out:
                assert ch.n_tokens <= c.chunk_capacity
                seen.update(range(ch.first_sentence, ch.last_sentence + 1))
            assert seen == set(range(len(sentences)))

    def test_overlap_exactly_min_of_o_and_prev_length(self):
        sentences = [[9] * 50 for _ in range(8)]
        out = chunk(list(map(len, sentences)),
                    cfg(chunk_capacity=200, overlap_sentences=3, context_limit=400))
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


def token_lists(alphabet: int, min_size: int = 0):
    """Lists of up to 60 ids from ``alphabet`` ids that include the boundary,
    as ints or numpy ints."""
    seq = st.lists(st.integers(B, B + alphabet - 1), min_size=min_size, max_size=60)
    return st.one_of(seq, seq.map(lambda s: [np.int64(t) for t in s]))


class TestAgainstOracles:
    """Splitting, Jaccard and dedup give exactly what their first versions
    gave: the shared set-level Jaccard and the kept sets built once change no
    result."""

    @given(tokens=st.integers(1, 6).flatmap(lambda a: token_lists(a, min_size=1)))
    @example(tokens=[B])
    @example(tokens=[5])
    @example(tokens=[B, B])
    @example(tokens=[5, B, 5])
    def test_split_sentences(self, tokens):
        assert split_sentences(tokens) == split_sentences_oracle(tokens)

    @given(pair=st.integers(1, 6).flatmap(lambda a: st.tuples(token_lists(a), token_lists(a))))
    @example(pair=([], []))
    @example(pair=([], [B]))
    @example(pair=([5, 5], [5]))
    def test_jaccard(self, pair):
        assert jaccard(*pair) == jaccard_oracle(*pair)

    # short sentences over small alphabets, so that near-duplicates are common
    @pytest.mark.parametrize("threshold", [0.0, 0.75, 1.0])
    @given(sentences=st.integers(1, 6).flatmap(
        lambda a: st.lists(token_lists(a).map(lambda s: s[:6]), max_size=40)))
    @example(sentences=[])
    @example(sentences=[[], []])
    @example(sentences=[[], [5], []])
    @example(sentences=[[5, 6], [6, 5, 5], [5, 7], [5, 6], [7, 5], [5, 6, 7], [6, 5]])
    @example(sentences=[[], [], [5], [], [5, 5], []])
    def test_dedup(self, threshold, sentences):
        c = cfg(jaccard_threshold=threshold)
        assert dedup(sentences, c) == dedup_oracle(sentences, c)


class TestSummarizeLong:
    # MAP and REDUCE are batch callables: padded rows and their lengths in,
    # one summary per row out; listwise hands a stub the rows as token lists
    ECHO = staticmethod(listwise(lambda docs: [list(toks) for toks in docs]))

    def test_single_chunk_degenerates_to_direct_map(self):
        doc = [5, 6, B, 7, 8]
        out = summarize_long(doc, listwise(lambda docs: [t[:2] for t in docs]), self.ECHO,
                             cfg(chunk_capacity=50, context_limit=64))
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

        @listwise
        def shrink(docs):
            # keep every third sentence: slow enough to need two levels
            return [[t for s in split_sentences(toks)[::3] for t in s] for toks in docs]

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


def chunk_configs(min_capacity: int = 1, max_capacity: int = 64):
    return st.builds(
        lambda cap, extra, overlap, threshold: cfg(chunk_capacity=cap, context_limit=cap + extra,
                                                   overlap_sentences=overlap,
                                                   jaccard_threshold=threshold),
        st.integers(min_capacity, max_capacity), st.integers(0, 16), st.integers(0, 4),
        st.sampled_from([0.0, 0.5, 0.75, 1.0]))


def streams(alphabet: int):
    """Sentences of up to 9 content ids from ``alphabet`` ids, each closed by
    a boundary, then up to 9 content ids without one."""
    content = st.lists(st.integers(B + 1, B + alphabet), max_size=9)
    return st.tuples(st.lists(content.map(lambda s: s + [B]), max_size=60), content).map(
        lambda parts: [t for s in parts[0] for t in s] + parts[1]).filter(bool)


# random streams, with boundaries or without any, and long synthetic
# documents whose sentences repeat from a small pool; chunked at small
# capacities, so that most of them take several chunks
pipeline_configs = chunk_configs(8, 30)
documents = st.one_of(
    st.integers(1, 5).flatmap(streams),
    st.lists(st.integers(B + 1, B + 4), min_size=1, max_size=80),
    st.builds(synthetic_document, st.integers(1, 30).map(lambda k: 50 * k),
              vocab_size=st.just(16), seed=st.integers(0, 99),
              distinct_sentences=st.sampled_from([None, 4, 12])),
)


def echo(docs):
    return [list(toks) for toks in docs]


def truncate(docs):
    return [toks[:5] for toks in docs]


def shrink(docs):
    return [[t for s in split_sentences(toks)[::3] for t in s] if toks else [] for toks in docs]


def outcome(pipeline, document, map_fn, reduce_fn, c):
    """The summary and trace of a run, or the error it raised and the trace
    written before it."""
    trace = []
    try:
        return pipeline(document, map_fn, reduce_fn, c, trace=trace), trace
    except (ValueError, PipelineError) as exc:
        return type(exc), str(exc), trace


class TestPipelineAgainstOracle:
    """Chunk spans, the rows MAP and REDUCE receive, summaries and traces
    are those of the pipeline over token lists (``tests/oracles.py``)."""

    @given(lengths=st.lists(st.integers(0, 70), max_size=40), c=chunk_configs())
    @example(lengths=[], c=cfg())
    @example(lengths=[100] * 10, c=cfg())
    def test_chunk_spans(self, lengths, c):
        try:
            want = [(ch.first_sentence, ch.last_sentence, len(ch.tokens))
                    for ch in chunk_oracle([[9] * n for n in lengths], c)]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                chunk(lengths, c)
            return
        got = chunk(lengths, c)
        assert [(ch.first_sentence, ch.last_sentence, ch.n_tokens) for ch in got] == want

    @settings(max_examples=200)
    @given(document=documents, c=pipeline_configs, stub=st.sampled_from([truncate, shrink]))
    def test_summarizers_receive_the_padded_rows_of_the_chunk_lists(self, document, c, stub):
        rows_seen, lists_seen = [], []

        def record_rows(rows, lengths):
            rows_seen.append((rows.copy(), lengths.copy()))
            return listwise(stub)(rows, lengths)

        def record_lists(docs):
            lists_seen.append(docs)
            return stub(docs)

        got = outcome(summarize_long, document, record_rows, record_rows, c)
        assert got == outcome(summarize_long_oracle, document, record_lists, record_lists, c)
        assert len(rows_seen) == len(lists_seen)
        for (rows, lengths), docs in zip(rows_seen, lists_seen):
            want_rows, want_lengths = padded_rows(docs)
            assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
            assert rows.tobytes() == want_rows.tobytes()
            assert lengths.dtype == want_lengths.dtype
            assert lengths.tobytes() == want_lengths.tobytes()

    @settings(max_examples=200)
    @given(document=documents, c=pipeline_configs,
           stubs=st.tuples(*[st.sampled_from([echo, truncate, shrink])] * 2))
    @example(document=[5, 6, 7], c=cfg(chunk_capacity=2, context_limit=2), stubs=(echo, echo))
    # each level is 5 tokens shorter than the last: 8 trace rows, then the depth limit
    @example(document=synthetic_document(100, vocab_size=16, seed=0),
             c=cfg(chunk_capacity=10, context_limit=10, overlap_sentences=1),
             stubs=(truncate, truncate))
    def test_summaries_and_traces(self, document, c, stubs):
        map_fn, reduce_fn = stubs
        assert outcome(summarize_long, document, listwise(map_fn), listwise(reduce_fn), c) \
            == outcome(summarize_long_oracle, document, map_fn, reduce_fn, c)

    @given(document=documents, data=st.data())
    def test_a_token_that_is_not_an_integer_is_rejected(self, document, data):
        at = data.draw(st.integers(0, len(document) - 1))
        token, kind = data.draw(st.sampled_from([(3.5, "float"), ("4", "str"), (True, "bool")]))
        document = document[:at] + [token] + document[at + 1:]
        with pytest.raises(ValueError, match=f"tokens must be integers, got {kind}"):
            summarize_long(document, listwise(echo), listwise(echo), cfg())
