"""The synthetic corpora: the bulk sampler reproduces numpy's bounded-integer
stream, every corpus and document equals the one-call-per-value oracle, and a
config that cannot give a corpus is rejected when it is built."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relkd.toymodel import BOUNDARY_ID
from relkd.training import CorpusConfig, _Words, synthetic_corpus, synthetic_document

from oracles import synthetic_corpus_oracle, synthetic_document_oracle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# 2**31 + 1 rejects about half of all words and 3 * 2**30 a quarter, and in the
# latter a quarter of all words sit exactly on the rejection threshold.
SPANS = [1, 2, 4, 61, 2**31 + 1, 3 * 2**30, 2**32 - 1]

draw_calls = st.lists(st.tuples(
    st.integers(-(2**33), 2**33),
    st.one_of(st.sampled_from(SPANS), st.integers(1, 2**32 - 1)),
    st.integers(0, 60),
    st.booleans(),
), min_size=1, max_size=25)


@given(seed=st.integers(0, 2**32), calls=draw_calls)
def test_draw_gives_the_values_of_rng_integers(seed, calls):
    ranges = [(low, low + span) for low, span, _, _ in calls]
    words = _Words(np.random.default_rng(seed), *ranges)
    twin = np.random.default_rng(seed)
    at = 0
    for k, (low, span, n, vector) in enumerate(calls):
        high = low + span
        expected = (twin.integers(low, high, n).tolist() if vector
                    else [int(twin.integers(low, high)) for _ in range(n)])
        values, at = words.draw(k, at, n)
        assert values == expected


@pytest.mark.parametrize("span", SPANS)
def test_draw_reads_across_word_blocks(span):
    calls = ((-5, 3000), (0, 1), (2**20, 2500))
    words = _Words(np.random.default_rng([7, 11]),
                   *[(low, low + span) for low, _ in calls], (3, 64))
    twin = np.random.default_rng([7, 11])
    at = 0
    for k, (low, n) in enumerate(calls):
        values, at = words.draw(k, at, n)
        assert values == twin.integers(low, low + span, n).tolist()
    assert words.draw(3, at, 10)[0] == twin.integers(3, 64, 10).tolist()


@pytest.mark.parametrize("low, high, n", [(4, 4, 1), (5, 3, 2), (3, 64, -1)])
def test_the_decoder_rejects_what_rng_integers_rejects(low, high, n):
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(low, high, n)
    with pytest.raises(ValueError):
        _Words(np.random.default_rng(0), (low, high)).draw(0, 0, n)


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


# Seed 1718's stream holds a word that span 61 (vocab 64) rejects: word 7020,
# inside a sentence's token run.
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2**31, 1718])
@pytest.mark.parametrize("vocab", [5, 7, 16, 64])
@pytest.mark.parametrize("task", ["compress", "copy"])
def test_corpus_equals_the_oracle(task, vocab, seed, shape):
    cfg = CorpusConfig(vocab_size=vocab, seed=seed, task=task, **SHAPES[shape])
    corpus = synthetic_corpus(cfg)
    assert _examples(corpus) == _examples(synthetic_corpus_oracle(cfg))
    assert all(type(t) is int for e in corpus.examples for t in e.document + e.summary)
    if (seed, vocab, shape) == (1718, 64, "default"):
        # each sentence reads a length and its tokens, and each example a
        # count: a lower bound on the words read
        read = sum(1 + len(e.document) for e in corpus.examples)
        words = np.random.default_rng([seed, 11]).integers(0, 2**32, read, dtype=np.uint32)
        assert (words.astype(np.uint64) * 61 % 2**32 < 2**32 % 61).any()


class ZeroedWords:
    """A generator whose 32-bit words are numpy's with every 5th set to 0,
    which Lemire's rule rejects for every span that is not a power of 2. Its
    bounded draws apply that rule one word at a time."""

    default_rng = np.random.default_rng

    def __init__(self, seed):
        self.rng, self.words = ZeroedWords.default_rng(seed), []

    def word(self):
        if not self.words:
            block = self.rng.integers(0, 2**32, 1024, dtype=np.uint32)
            block[::5] = 0
            self.words = block.tolist()[::-1]
        return self.words.pop()

    def integers(self, low, high=None, size=None, dtype=None):
        if dtype is np.uint32:
            return np.array([self.word() for _ in range(size)], dtype=np.uint32)
        low, high = (0, low) if high is None else (low, high)
        span = high - low

        def one():
            while span > 1:
                m = self.word() * span
                if m % 2**32 >= 2**32 % span:
                    return low + (m >> 32)
            return low
        return one() if size is None else np.array([one() for _ in range(size)])


@pytest.mark.parametrize("task", ["compress", "copy"])
def test_a_rejected_word_is_skipped_wherever_it_lies(monkeypatch, task):
    # sentence counts, lengths, tokens and pool picks all have odd spans, so
    # a rejected word lands in each role
    monkeypatch.setattr(np.random, "default_rng", ZeroedWords)
    cfg = CorpusConfig(n_examples=200, min_sentences=1, max_sentences=3, min_sentence_len=4,
                       max_sentence_len=6, vocab_size=16, task=task)
    assert _examples(synthetic_corpus(cfg)) == _examples(synthetic_corpus_oracle(cfg))
    for distinct in (None, 3):
        args = dict(vocab_size=16, min_sentence_len=4, max_sentence_len=6,
                    distinct_sentences=distinct)
        assert synthetic_document(2000, **args) == synthetic_document_oracle(2000, **args)


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


def test_no_compress_summary_holds_a_boundary_token():
    # at vocab_size 5, half the vocabulary is BOUNDARY_ID itself
    for vocab in range(5, 65):
        for seed in range(3):
            corpus = synthetic_corpus(CorpusConfig(n_examples=20, vocab_size=vocab, seed=seed))
            for ex in corpus.examples:
                assert BOUNDARY_ID not in ex.summary, (vocab, seed, ex.example_id, ex.summary)


@pytest.mark.parametrize("fields, message", [
    (dict(min_sentences=3, max_sentences=2), "max_sentences must be >= min_sentences (3)"),
    (dict(min_sentence_len=8), "max_sentence_len must be >= min_sentence_len (8)"),
    (dict(min_sentence_len=-3), "min_sentence_len must be >= 0"),
    (dict(min_sentences=-1, max_sentences=-1), "min_sentences must be >= 0"),
    (dict(n_examples=-1), "n_examples must be >= 0"),
    (dict(task="translate"), "task must be 'compress' or 'copy'"),
])
def test_a_config_outside_its_ranges_is_rejected(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CorpusConfig(**{"n_examples": 2, **fields})


@pytest.mark.parametrize("fields, message", [
    (dict(min_sentences=0, max_sentences=0), "max_sentences must be >= 1"),
    (dict(min_sentence_len=0, max_sentence_len=0), "max_sentence_len must be >= 1"),
    (dict(task="copy", min_sentence_len=0, max_sentence_len=0), "max_sentence_len must be >= 1"),
], ids=["compress-no-sentences", "compress-empty-sentences", "copy-empty-documents"])
def test_a_config_that_gives_only_empty_summaries_is_rejected(fields, message):
    # such a config used to make synthetic_corpus redraw forever, so it runs
    # in its own interpreter under a time limit
    code = ("from relkd.training import CorpusConfig, synthetic_corpus\n"
            f"synthetic_corpus(CorpusConfig(n_examples=2, **{fields!r}))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert f"ValueError: {message}" in run.stderr
