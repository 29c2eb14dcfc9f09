"""The synthetic corpora: the bulk sampler reproduces numpy's bounded-integer
stream, and every corpus and document equals the one-call-per-value oracle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relkd.training import CorpusConfig, _draws, synthetic_corpus, synthetic_document

from oracles import synthetic_corpus_oracle, synthetic_document_oracle

# 2**31 + 1 rejects about half of all words and 3 * 2**30 a quarter, and in the
# latter a quarter of all words sit exactly on the rejection threshold.
SPANS = [1, 2, 4, 61, 2**31 + 1, 3 * 2**30, 2**32 - 1]

draw_calls = st.lists(st.tuples(
    st.integers(-(2**33), 2**33),
    st.one_of(st.sampled_from(SPANS), st.integers(1, 2**32 - 1)),
    st.integers(0, 60),
    st.booleans(),
), max_size=25)


@given(seed=st.integers(0, 2**32), calls=draw_calls)
def test_take_gives_the_values_of_rng_integers(seed, calls):
    take = _draws(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    for low, span, n, vector in calls:
        high = low + span
        expected = (twin.integers(low, high, n).tolist() if vector
                    else [int(twin.integers(low, high)) for _ in range(n)])
        assert take(low, high, n) == expected


@pytest.mark.parametrize("span", SPANS)
def test_take_reads_across_word_blocks(span):
    take = _draws(np.random.default_rng([7, 11]))
    twin = np.random.default_rng([7, 11])
    for low, n in ((-5, 3000), (0, 1), (2**20, 2500)):
        assert take(low, low + span, n) == twin.integers(low, low + span, n).tolist()
    assert take(3, 64, 10) == twin.integers(3, 64, 10).tolist()


@pytest.mark.parametrize("low, high, n", [(4, 4, 1), (5, 3, 2), (3, 64, -1)])
def test_take_rejects_what_rng_integers_rejects(low, high, n):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high, n)
    with pytest.raises(ValueError):
        _draws(np.random.default_rng(0))(low, high, n)


SHAPES = {
    "default": dict(n_examples=2000),
    "fixed-lengths": dict(n_examples=300, min_sentences=2, max_sentences=2,
                          min_sentence_len=5, max_sentence_len=5),
    "stride-1": dict(n_examples=300, stride=1, min_sentences=1, max_sentences=4,
                     min_sentence_len=1, max_sentence_len=9),
    "stride-3-empty-sentences": dict(n_examples=300, stride=3, min_sentence_len=0,
                                     max_sentence_len=2),
}


def _examples(corpus):
    return [(e.example_id, e.document, e.summary) for e in corpus.examples]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2**31])
@pytest.mark.parametrize("vocab", [5, 7, 16, 64])
@pytest.mark.parametrize("task", ["compress", "copy"])
def test_corpus_equals_the_oracle(task, vocab, seed, shape):
    cfg = CorpusConfig(vocab_size=vocab, seed=seed, task=task, **SHAPES[shape])
    corpus = synthetic_corpus(cfg)
    assert _examples(corpus) == _examples(synthetic_corpus_oracle(cfg))
    assert all(type(t) is int for e in corpus.examples for t in e.document + e.summary)


@pytest.mark.parametrize("distinct", [None, 1, 2, 40])
@pytest.mark.parametrize("seed", [0, 1, 2**31])
@pytest.mark.parametrize("vocab, lengths", [(5, (4, 8)), (64, (4, 8)), (16, (6, 6))])
def test_document_equals_the_oracle(vocab, lengths, seed, distinct):
    args = dict(vocab_size=vocab, seed=seed, min_sentence_len=lengths[0],
                max_sentence_len=lengths[1], distinct_sentences=distinct)
    assert synthetic_document(3000, **args) == synthetic_document_oracle(3000, **args)


def test_an_empty_sentence_pool_is_rejected_as_before():
    with pytest.raises(ValueError):
        synthetic_document_oracle(10, distinct_sentences=0)
    with pytest.raises(ValueError):
        synthetic_document(10, distinct_sentences=0)
