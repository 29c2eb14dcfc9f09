"""Batched decoding against the per-document decoder it replaced, and the
callers that now decode or teacher-force a whole corpus in one call."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkd import toymodel
from relkd.distmath import log_softmax_t
from relkd.longdoc import ChunkConfig, PipelineError, summarize_long
from relkd.toymodel import (
    BOS_ID,
    EOS_ID,
    ToyModelParams,
    decode_rows,
    generate,
    generate_batch,
    init_params,
)
from relkd.training import (
    Corpus,
    CorpusConfig,
    CorpusExample,
    SupervisionBundle,
    TrainConfig,
    build_pseudo_records,
    build_topk_cache,
    index_pseudo,
    prepare_supervision,
    pseudo_variant_id,
    synthetic_corpus,
    synthetic_document,
    topk_from_logits,
)

from oracles import forward_one, listwise, records_of, topk_pairs


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
    kind = draw(st.sampled_from(["random", "rounded", "saturated", "units"]))
    if kind != "units":
        dim = draw(st.integers(1, 5))
        scale = draw(st.sampled_from([0.2, 1.0, 3.0]))
        params = init_params(vocab, dim, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             scale=scale)
        if kind in ("rounded", "saturated"):
            # embeddings beyond the recurrence's reach make every state entry
            # exactly +-1.0, so with integer output weights each logit is a sum
            # of +-integers, exact in any order on any BLAS kernel: tokens whose
            # columns agree tie exactly at every step. Output weights in
            # multiples of 1000 also saturate the softmax: the top
            # log-probability is often exactly 0.0, so a live hypothesis can
            # tie the best finished one
            reach = np.abs(params.recur).sum(axis=1).max()
            params = ToyModelParams(np.copysign(20 + reach, params.embed), params.recur,
                                    np.round(params.out) * (1000 if kind == "saturated" else 1))
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
    return params, docs, mode, draw(st.integers(1, 4)), draw(st.integers(0, 16))


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
    # (3) and (4) tie at step 1; at step 2 (4, EOS) finishes with the score
    # of the live (3, 2), which each later step keeps (its top log-probability
    # is 0.0), so the smaller (3, 2, 2, 2) wins only if a live hypothesis
    # that ties the best finished one stays in the beam
    ([[0, 0], [1, 0], [0, 1], [0, 1], [0, -1]],
     [[0, 0, 0, 1000, 1000], [-1000, 0, 1000, 0, 0]], 2, 4, [3, 2, 2, 2]),
])
def test_a_tied_cut_keeps_the_smaller_sequences(embed, out, width, max_len, expected):
    d = len(embed[0])
    params = ToyModelParams(np.array(embed), np.zeros((d, d)), np.array(out))
    docs = [[], [3, 1]]
    got = generate_batch(params, docs, mode="beam", beam_width=width, max_len=max_len)
    assert got == [oracle_generate(params, doc, "beam", width, max_len) for doc in docs]
    assert got == [expected, expected]


def sticky_eos_params():
    """V 8, d 2. Unit 0 keeps its sign through the recurrence: token 3 makes
    it positive, and EOS then wins every step by a wide margin; token 4 makes
    it negative, and EOS never enters a beam of two. Unit 1 is tanh(1) after
    every step, and tokens 5 to 7 tie at logit 0 on it."""
    embed = np.zeros((8, 2))
    embed[:, 1] = 1.0
    embed[3, 0], embed[4, 0] = 5.0, -5.0
    out = np.zeros((2, 8))
    out[0, EOS_ID] = 10.0
    out[1, 1:5] = -10.0
    return ToyModelParams(embed, np.array([[3.0, 0.0], [0.0, 0.0]]), out)


@pytest.mark.parametrize("docs, rows", [
    # EOS wins at step 1, and no live hypothesis can reach its score
    ([[3], [3, 5]], [2]),
    # the documents that finish leave; the last steps run on [4]'s rows only
    ([[3], [4], [3, 6]], [3] + [1] * 15),
    # a document with no finished hypothesis runs to max_len
    ([[4]], [1] * 16),
])
def test_beam_search_drops_each_document_once_it_is_finished(monkeypatch, docs, rows):
    params, seen = sticky_eos_params(), []
    step = toymodel._step

    def spy(params, h, tokens):
        seen.append(h.shape[:2])
        return step(params, h, tokens)

    monkeypatch.setattr(toymodel, "_step", spy)
    got = generate_batch(params, docs, mode="beam", beam_width=2, max_len=16)
    assert seen == [(n, 2) for n in rows]
    assert got == [oracle_generate(params, doc, "beam", 2, 16) for doc in docs]
    assert got == [[5] * 16 if doc == [4] else [] for doc in docs]


def test_a_document_decodes_alike_alone_and_in_a_batch():
    # beam search drops finished documents from its batch, which keeps the
    # others' outputs only while every product is one per document
    corpus = synthetic_corpus(CorpusConfig(n_examples=40, vocab_size=64, seed=5))
    docs = [ex.document for ex in corpus.examples]
    params = init_params(64, 32, np.random.default_rng(6))
    assert generate_batch(params, docs, "beam", 4, 16) \
        == [generate_batch(params, [doc], "beam", 4, 16)[0] for doc in docs]
    rng = np.random.default_rng(7)
    h = rng.uniform(-1.0, 1.0, (len(docs), 4, 32))
    tokens = rng.integers(0, 64, (len(docs), 4))
    step, logits = toymodel._step(params, h, tokens), h @ params.out
    subsets = [slice(n) for n in range(1, len(docs))] + [rng.random(len(docs)) < 0.5]
    for sub in subsets:
        assert toymodel._step(params, h[sub], tokens[sub]).tobytes() == step[sub].tobytes() \
            and (h[sub] @ params.out).tobytes() == logits[sub].tobytes(), \
            "numpy's stacked matmul gave a subset of the documents other bits than the " \
            "whole batch: beam search can no longer drop finished documents exactly"


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


def test_the_default_decode_length_is_the_training_one():
    # every state is positive, so token 3 always outscores EOS
    V, d = 6, 3
    out = np.zeros((d, V))
    out[:, 3], out[:, EOS_ID] = 1.0, -1.0
    params = ToyModelParams(np.full((V, d), 5.0), np.zeros((d, d)), out)
    docs = [[3, 4], [5]]
    got = generate_batch(params, docs)
    assert got == generate_batch(params, docs, max_len=TrainConfig().gen_max_len)
    assert [len(s) for s in got] == [TrainConfig().gen_max_len] * 2


def test_decode_rows_reads_the_first_length_tokens_of_each_row():
    params = init_params(6, 3, np.random.default_rng(0))
    rows = np.array([[3, 4, 5], [5, 5, 5]])
    for mode in ("greedy", "beam"):
        assert decode_rows(params, rows, np.array([3, 1]), mode, 3, 5) \
            == generate_batch(params, [[3, 4, 5], [5]], mode, 3, 5)
    with pytest.raises(ValueError, match=r"row_len \[4, 1\] must hold one length in \[0, 3\]"):
        decode_rows(params, rows, [4, 1])


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


# few values, so rows tie often; 1.5e308 against -1.5e308 in one row gives a
# log-probability of -inf
TIE_VALUES = (-2.0, -1.0, 0.0, 1.0, 2.0, -1.5e308, 1.5e308)


@st.composite
def tie_heavy_logits(draw):
    """Rows of few integer values over a vocabulary of 1 to 6, some of them
    all equal, and a k from 1 to V + 1."""
    vocab = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(TIE_VALUES), min_size=vocab, max_size=vocab)
    rows = draw(st.lists(row | st.sampled_from(TIE_VALUES).map(lambda x: [x] * vocab),
                         min_size=1, max_size=6))
    return np.array(rows), draw(st.integers(1, vocab + 1))


def test_topk_from_logits_is_the_stable_argsort_on_tie_heavy_rows(monkeypatch):
    argsort, calls, seen = np.argsort, [], set()

    def spy(a, *args, kind=None, **kwargs):
        calls.append((kind, len(a)))
        return argsort(a, *args, kind=kind, **kwargs)

    @given(tie_heavy_logits())
    def check(case):
        logits, k = case
        with np.errstate(over="ignore"):  # -1.5e308 - 1.5e308
            logp = log_softmax_t(logits, 1.0)
            calls.clear()
            ids, logprobs = topk_from_logits(logits, k)
        order = argsort(-logp, axis=-1, kind="stable")[:, :k]
        assert ids.tolist() == order.tolist()
        assert logprobs.tobytes() == np.take_along_axis(logp, order, axis=-1).tobytes()
        # one sort of every row, then the stable sort of the tied ones
        (first, rows), (second, tied) = calls
        assert (first, second, rows) == (None, "stable", len(logits))
        seen.update(["tie-free"] * (tied < rows) + ["tied"] * (tied > 0)
                    + ["-inf"] * bool(np.isneginf(logp).any()))

    monkeypatch.setattr(np, "argsort", spy)
    check()
    assert seen == {"tie-free", "tied", "-inf"}


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

    @listwise
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
        summarize_long(doc, listwise(lambda docs: docs[:1]), listwise(lambda docs: docs), cfg)


def _read_document(entry: str, document):
    """What ``entry`` makes of a one-example corpus or document."""
    params = init_params(16, 4, np.random.default_rng(0))

    def decode(docs):
        return generate_batch(params, docs, max_len=4)

    if entry == "generate_batch":
        return decode([document])
    if entry == "prepare_supervision":
        corpus = Corpus([CorpusExample("ex0", document, [5])], vocab_size=16)
        return prepare_supervision(TrainConfig(), corpus, SupervisionBundle()).src.tolist()
    return summarize_long(document, listwise(decode), listwise(decode), ChunkConfig())


ENTRIES = ["generate_batch", "prepare_supervision", "summarize_long"]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("token, kind", [(3.5, "float"), ("4", "str"), (True, "bool")])
def test_a_token_that_is_not_an_integer_is_rejected(entry, token, kind):
    with pytest.raises(ValueError, match=f"tokens must be integers, got {kind}"):
        _read_document(entry, [token])


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_tokens_read_as_ints(entry):
    doc = [3, 4, 2, 5]
    assert _read_document(entry, [np.int64(t) for t in doc]) == _read_document(entry, doc)
