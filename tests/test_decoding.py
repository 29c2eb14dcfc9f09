"""Batched decoding against the per-document decoder it replaced, and the
callers that now decode or teacher-force a whole corpus in one call."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkd.distmath import log_softmax_t
from relkd.longdoc import ChunkConfig, PipelineError, summarize_long
from relkd.toymodel import (
    BOS_ID,
    EOS_ID,
    ToyModelParams,
    generate,
    generate_batch,
    init_params,
)
from relkd.training import (
    CorpusConfig,
    build_pseudo_records,
    build_topk_cache,
    index_pseudo,
    pseudo_variant_id,
    synthetic_corpus,
    synthetic_document,
    topk_from_logits,
)

from oracles import forward_one, records_of, topk_pairs


def oracle_generate(params, document, mode="greedy", beam_width=4, max_len=32):
    """One document at a time: a vector through a Python loop per step, and
    for beam search every expansion as a Python tuple, sorted."""
    h0 = np.zeros(params.hidden_dim)
    for tok in document:
        h0 = np.tanh(params.recur @ h0 + params.embed[tok])

    if mode == "greedy":
        h, prev = h0, BOS_ID
        toks = []
        for _ in range(max_len):
            h = np.tanh(params.recur @ h + params.embed[prev])
            nxt = int(np.argmax(h @ params.out))
            if nxt == EOS_ID:
                break
            toks.append(nxt)
            prev = nxt
        return toks

    active = [(0.0, (), h0)]
    completed = []
    for _ in range(max_len):
        expansions = []
        for score, toks, h in active:
            prev = toks[-1] if toks else BOS_ID
            h2 = np.tanh(params.recur @ h + params.embed[prev])
            logp = log_softmax_t(h2 @ params.out, 1.0)
            for v in range(params.vocab_size):
                expansions.append((score + float(logp[v]), toks + (v,), h2))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        active = []
        for score, toks, h2 in expansions[:beam_width]:
            if toks[-1] == EOS_ID:
                completed.append((score, toks[:-1]))
            else:
                active.append((score, toks, h2))
        if not active:
            break
    completed.extend((score, toks) for score, toks, _ in active)
    completed.sort(key=lambda e: (-e[0], e[1]))
    return list(completed[0][1])


@st.composite
def decoding_cases(draw):
    vocab = draw(st.integers(2, 9))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 5))
        scale = draw(st.sampled_from([0.2, 1.0, 3.0]))
        params = init_params(vocab, dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             scale=scale)
    else:
        # entries in {-1, 0, 1} and no recurrence: every logit is an exact
        # small multiple of tanh(1), so hypotheses tie exactly and the
        # lexicographic tie-break decides which of them survive
        dim = draw(st.integers(1, 3))
        unit = st.integers(-1, 1)
        embed = draw(st.lists(unit, min_size=vocab * dim, max_size=vocab * dim))
        out = draw(st.lists(unit, min_size=vocab * dim, max_size=vocab * dim))
        params = ToyModelParams(np.reshape(embed, (vocab, dim)), np.zeros((dim, dim)),
                                np.reshape(out, (dim, vocab)))
    docs = draw(st.lists(st.lists(st.integers(0, vocab - 1), max_size=6),
                         min_size=1, max_size=6))
    mode = draw(st.sampled_from(["greedy", "beam"]))
    return params, docs, mode, draw(st.integers(1, 4)), draw(st.integers(0, 6))


@settings(max_examples=300)
@given(decoding_cases())
def test_batch_matches_the_per_document_decoder(case):
    params, docs, mode, width, max_len = case
    got = generate_batch(params, docs, mode=mode, beam_width=width, max_len=max_len)
    assert got == [oracle_generate(params, d, mode, width, max_len) for d in docs]


def test_exact_ties_go_to_the_smallest_sequence():
    # tokens 2 and 3 share every logit, so all their sequences tie exactly
    embed = np.ones((4, 2))
    out = np.array([[-1.0, -1.0, 0.0, 0.0]] * 2)
    params = ToyModelParams(embed, np.zeros((2, 2)), out)
    for mode in ("greedy", "beam"):
        assert generate_batch(params, [[3], [2, 3]], mode=mode, beam_width=2, max_len=3) \
            == [[2, 2, 2], [2, 2, 2]]


@pytest.mark.parametrize("embed, out, width, max_len, expected", [
    # (2, 2), (2, 3), (3, EOS) and (3, BOS) tie at step 2; a width-2 cut
    # keeps the first two as sequences, not by their last token
    ([[1, 1], [1, 1], [-1, 1], [0, -1]], [[-1, -1, -1, -1], [-1, -1, 0, 0]], 2, 2, [2, 2]),
    # (2), (3) and (EOS) survive step 1; at step 2 every extension of (2)
    # and (3) ties, so the slots must rank (2) before (3)
    ([[0], [1], [0], [0]], [[-1, -1, 1, 1]], 3, 2, [2]),
    # (3) outscores (BOS) and (2) at step 1, so score order and sequence
    # order differ; the slots must stay in sequence order for a later tie to
    # go to the smaller sequence
    ([[-1], [1], [-1], [1]], [[-1, 0, 0, 1]], 3, 3, [2]),
])
def test_a_tied_cut_keeps_the_smaller_sequences(embed, out, width, max_len, expected):
    d = len(embed[0])
    params = ToyModelParams(np.array(embed), np.zeros((d, d)), np.array(out))
    docs = [[], [3, 1]]
    got = generate_batch(params, docs, mode="beam", beam_width=width, max_len=max_len)
    assert got == [oracle_generate(params, doc, "beam", width, max_len) for doc in docs]
    assert got == [expected, expected]


def test_a_batch_of_one_is_generate_and_errors_are_kept():
    params = init_params(6, 3, np.random.default_rng(0))
    for mode in ("greedy", "beam"):
        assert generate(params, [3, 4], mode, 3, 5) == generate_batch(params, [[3, 4]], mode,
                                                                     3, 5)[0]
    assert generate_batch(params, [], mode="beam") == []
    with pytest.raises(ValueError, match="unknown generation mode"):
        generate_batch(params, [[3]], mode="sampled")
    with pytest.raises(ValueError, match="beam width"):
        generate_batch(params, [[3]], mode="beam", beam_width=0)
    with pytest.raises(ValueError, match="out of range"):
        generate_batch(params, [[3], [6]])


def small_corpus(n=12, seed=4):
    return synthetic_corpus(CorpusConfig(n_examples=n, vocab_size=16, seed=seed))


def oracle_topk(logits, k):
    rows = []
    for row in log_softmax_t(logits, 1.0):
        order = sorted(range(row.size), key=lambda t: (-row[t], t))[:k]
        rows.append([(t, float(row[t])) for t in order])
    return rows


def assert_same_topk(got, expected):
    assert [[t for t, _ in pos] for pos in got] == [[t for t, _ in pos] for pos in expected]
    np.testing.assert_allclose([lp for pos in got for _, lp in pos],
                               [lp for pos in expected for _, lp in pos], rtol=1e-12)


def test_topk_from_logits_breaks_ties_toward_lower_ids():
    logits = np.array([[0.0, 1.0, 1.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
    assert topk_from_logits(logits, 3)[0].tolist() == [[1, 2, 0], [0, 1, 2]]
    rng = np.random.default_rng(1)
    logits = rng.integers(-2, 3, (20, 7)).astype(float)
    ids, logprobs = topk_from_logits(logits, 4)
    assert ids.shape == logprobs.shape == (20, 4)
    assert topk_pairs(ids, logprobs) == oracle_topk(logits, 4)
    assert topk_from_logits(logits, 9)[0].shape == (20, 7)


def test_topk_records_match_one_forward_per_example():
    corpus = small_corpus()
    params = init_params(16, 5, np.random.default_rng(2))
    records = records_of(build_topk_cache(params, corpus, 4))
    assert [eid for eid, _ in records] == [ex.example_id for ex in corpus.examples]
    for (_, positions), ex in zip(records, corpus.examples):
        logits, _ = forward_one(params, ex.document, list(ex.summary) + [EOS_ID])
        assert_same_topk(positions, oracle_topk(logits, 4))

    pseudo = index_pseudo(build_pseudo_records(params, "p1", corpus, beam_width=3, max_len=5)
                          + build_pseudo_records(params, "p2", corpus, beam_width=1, max_len=4))
    variants = records_of(build_topk_cache(params, corpus, 4, pseudo))[len(records):]
    expected = [(ex, rec) for ex in corpus.examples for rec in pseudo[ex.example_id]]
    assert len(variants) == 2 * len(corpus.examples)
    for (var_id, positions), (ex, rec) in zip(variants, expected):
        assert var_id == pseudo_variant_id(ex.example_id, rec.teacher_id)
        logits, _ = forward_one(params, ex.document, rec.tokens + [EOS_ID])
        assert_same_topk(positions, oracle_topk(logits, 4))
    assert records_of(build_topk_cache(params, corpus, 4, {})) == records


def test_pseudo_records_are_the_per_document_beam():
    corpus = small_corpus()
    params = init_params(16, 5, np.random.default_rng(3))
    for rec, ex in zip(build_pseudo_records(params, "p1", corpus, beam_width=3, max_len=5),
                       corpus.examples):
        expected = oracle_generate(params, ex.document, "beam", 3, 5)
        # an empty beam falls back to the best non-terminal first token
        assert rec.tokens == expected or (not expected and len(rec.tokens) == 1)


def test_an_empty_beam_falls_back_to_the_strongest_first_token():
    corpus = small_corpus()
    params = init_params(16, 5, np.random.default_rng(3), scale=1.0)
    # BOS saturates state 0, which scores EOS far above every other token; the
    # other states, and so the fallback token, still depend on the document
    params.embed[BOS_ID] = 0.0
    params.embed[BOS_ID, 0], params.out[0, EOS_ID] = 20.0, 50.0
    records = build_pseudo_records(params, "p1", corpus, beam_width=3, max_len=5)
    for rec, ex in zip(records, corpus.examples):
        assert oracle_generate(params, ex.document, "beam", 3, 5) == []
        row = forward_one(params, ex.document, [EOS_ID])[0][0]
        row[EOS_ID] = -np.inf
        assert rec.tokens == [int(np.argmax(row))]
    assert len({rec.tokens[0] for rec in records}) > 1


def test_each_map_phase_is_one_call():
    calls = []

    def echo(docs):
        calls.append(len(docs))
        return [toks[: len(toks) // 2] for toks in docs]

    doc = synthetic_document(600, vocab_size=16, seed=8, distinct_sentences=40)
    trace = []
    summarize_long(doc, echo, echo, ChunkConfig(chunk_capacity=30, context_limit=32,
                                                overlap_sentences=1), trace=trace)
    # one MAP call per level over all of its chunks, then at most one REDUCE
    assert len(trace) >= 2
    assert calls[: len(trace)] == [len(row["chunks"]) for row in trace]
    assert calls[len(trace):] in ([], [1])


def test_a_summarizer_must_answer_every_input():
    doc = synthetic_document(600, vocab_size=16, seed=8)
    cfg = ChunkConfig(chunk_capacity=30, context_limit=32, overlap_sentences=1)
    with pytest.raises(PipelineError, match="summaries for"):
        summarize_long(doc, lambda docs: docs[:1], lambda docs: docs, cfg)
