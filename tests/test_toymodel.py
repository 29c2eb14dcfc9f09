import base64
import itertools
import json
import math
import os
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relkd.losses import TokenBatch, ce_loss
from relkd.teachercache import read_cache, topk_cache, write_cache
from relkd.toymodel import (
    BOS_ID,
    EOS_ID,
    ROUTE_DIRECT,
    ROUTE_MAPREDUCE,
    ToyModelParams,
    backward_batch,
    decode_floats,
    encode_floats,
    forward_batch,
    generate,
    init_params,
    load_checkpoint,
    param_shapes,
    route,
    save_checkpoint,
)

from oracles import (
    backward_batch_oracle,
    central_diff,
    forward_batch_oracle,
    forward_one,
    max_rel_err,
)


def small_params(seed=0, vocab=6, dim=3):
    return init_params(vocab, dim, np.random.default_rng(seed))


def ragged_batch(rng, vocab, src_len, tgt_len):
    """Random src, src_len, tgt, tgt_len padded to the longest row; the
    padded cells hold random tokens too."""
    src_len, tgt_len = np.asarray(src_len), np.asarray(tgt_len)
    ls, lt = src_len.max(initial=0), tgt_len.max(initial=0)
    return (rng.integers(0, vocab, (len(src_len), ls)), src_len,
            rng.integers(0, vocab, (len(tgt_len), lt)), tgt_len)


def oracle_inputs(src, src_len, tgt, tgt_len):
    """A ragged batch as forward_batch_oracle takes it: src, src_mask, the
    target input (BOS, then the target shifted right) and tgt_mask."""
    tgt_in = np.concatenate([np.full((len(tgt), 1), BOS_ID), tgt], axis=1)[:, :-1]
    return (src, np.arange(src.shape[1]) < src_len[:, None],
            tgt_in, np.arange(tgt.shape[1]) < tgt_len[:, None])


class TestParams:
    def test_init_draws_the_declared_arrays_in_order(self):
        params = init_params(7, 3, np.random.default_rng(4), scale=0.3)
        twin = np.random.default_rng(4)
        shapes = param_shapes(7, 3)
        # every initial model, and so the golden record, depends on this order
        assert list(shapes) == list(params.arrays()) == ["embed", "recur", "out"]
        for name, shape in shapes.items():
            assert np.array_equal(getattr(params, name), 0.3 * twin.standard_normal(shape)), name

    def test_shapes_are_checked_before_finiteness(self):
        arrays = small_params().arrays()
        with pytest.raises(ValueError, match="parameter shapes are inconsistent"):
            ToyModelParams(**{**arrays, "recur": np.full((2, 2), np.nan)})
        for name, a in arrays.items():
            bad = a.copy()
            bad.flat[-1] = np.inf
            with pytest.raises(ValueError, match="parameters must be finite"):
                ToyModelParams(**{**arrays, name: bad})


class TestForward:
    def test_zero_params_give_uniform(self):
        p = ToyModelParams(np.zeros((5, 3)), np.zeros((3, 3)), np.zeros((3, 5)))
        logits, _ = forward_one(p, [3, 4], [2, 1])
        assert np.all(logits == 0.0)

    def test_matches_scalar_recurrence(self):
        # independent elementwise recomputation of the tanh recurrence
        params = small_params(1, vocab=4, dim=2)
        doc, tgt = [3, 2], [1, 0]
        logits, hidden = forward_one(params, doc, tgt)

        h = [0.0, 0.0]
        seq = doc + [BOS_ID, tgt[0]]
        outs = []
        for step, tok in enumerate(seq):
            nh = []
            for i in range(2):
                pre = sum(params.recur[i][j] * h[j] for j in range(2)) + params.embed[tok][i]
                nh.append(math.tanh(pre))
            h = nh
            if step >= len(doc):
                outs.append([sum(h[j] * params.out[j][v] for j in range(2)) for v in range(4)])
        assert np.allclose(logits, outs, atol=1e-14)
        assert logits.shape == (2, 4)
        assert hidden.shape == (2, 2)

    def test_output_length_matches_target(self):
        params = small_params(2)
        logits, hidden = forward_one(params, [3, 4, 5], [1, 2, 3, 4])
        assert logits.shape[0] == 4 and hidden.shape[0] == 4

    def test_rejects_out_of_range_tokens(self):
        params = small_params(3)
        with pytest.raises(ValueError):
            forward_one(params, [99], [1])
        with pytest.raises(ValueError):
            forward_one(params, [1], [99])

    def test_padding_matches_unpadded(self):
        # a padded batched run must reproduce the unpadded per-example pass
        params = small_params(4)
        doc, tgt = [3, 4, 5], [2, 1, 0]
        logits_ref, hidden_ref = forward_one(params, doc, tgt)

        src = np.array([[3, 4, 5, 0, 0]])
        tgt = np.array([[2, 1, 0, 0, 0]])
        logits, hidden, _ = forward_batch(params, src, [3], tgt, [3])
        assert np.allclose(logits[0, :3], logits_ref, atol=1e-14)
        assert np.allclose(hidden[0, :3], hidden_ref, atol=1e-14)


class TestBackward:
    def _loss_and_grads(self, params, doc, tgt):
        logits, _, cache = forward_batch(params, np.array([doc], dtype=int), [len(doc)],
                                         np.array([tgt]), [len(tgt)])
        tb = TokenBatch(tgt, [True] * len(tgt), logits[0])
        value, dlog = ce_loss(tb)
        grads = backward_batch(params, cache, dlog[None])
        return value, grads

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            params = small_params(seed=100 + trial, vocab=5, dim=3)
            doc = rng.integers(0, 5, 3).tolist()
            tgt = rng.integers(0, 5, 4).tolist()
            _, grads = self._loss_and_grads(params, doc, tgt)

            for name, a in params.arrays().items():
                def f(x, name=name):
                    trial_params = params.copy()
                    setattr(trial_params, name, x)
                    v, _ = self._loss_and_grads(trial_params, doc, tgt)
                    return v

                numeric = central_diff(f, a)
                assert max_rel_err(grads[name], numeric) <= 1e-5

    def test_gradients_are_keyed_and_ordered_as_the_declaration(self):
        params = small_params(seed=3, vocab=5, dim=3)
        _, grads = self._loss_and_grads(params, [3, 4], [2, 0])
        assert list(grads) == list(param_shapes(5, 3))
        assert {name: g.shape for name, g in grads.items()} == param_shapes(5, 3)

    def test_near_zero_gradients_for_perfect_predictor(self):
        # point the output matrix at the gold token so CE (and hence every
        # parameter gradient) collapses toward zero
        params = small_params(6, vocab=4, dim=3)
        gold = 2
        h1 = np.tanh(params.recur @ np.zeros(3) + params.embed[BOS_ID])
        params.out = np.outer(h1, np.eye(4)[gold]) * (50.0 / (h1 @ h1))
        value, grads = self._loss_and_grads(params, [], [gold])
        assert value < 1e-12
        for g in grads.values():
            assert np.abs(g).max() < 1e-9

    def test_padded_ragged_batch_matches_finite_differences(self):
        # every position of a padded batch is weighted, padded ones included:
        # a padded step keeps the state, so its logits still depend on the
        # parameters, and its gradient must pass through to the last real step
        rng = np.random.default_rng(11)
        params = small_params(seed=12, vocab=5, dim=3)
        batch = ragged_batch(rng, 5, [3, 1, 4], [2, 4, 1])
        gold = rng.integers(0, 5, (3, 4))
        w_logit = rng.uniform(0.5, 1.5, (3, 4))
        w_hidden, target = rng.uniform(0.5, 1.5, (3, 4)), rng.standard_normal((3, 4, 3))

        def objective(p):
            logits, hidden, cache = forward_batch(p, *batch)
            z = logits - logits.max(axis=2, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=2))
            ce = lse - np.take_along_axis(z, gold[:, :, None], axis=2)[:, :, 0]
            gap = hidden - target
            value = np.sum(w_logit * ce) + 0.5 * np.sum(w_hidden[:, :, None] * gap**2)
            dlogits = w_logit[:, :, None] * (np.exp(z - lse[:, :, None]) - np.eye(5)[gold])
            dhidden = w_hidden[:, :, None] * gap
            return value, cache, dlogits, dhidden

        _, cache, dlogits, dhidden = objective(params)
        grads = backward_batch(params, cache, dlogits, dhidden)
        for name, a in params.arrays().items():
            def f(x, name=name):
                trial_params = params.copy()
                setattr(trial_params, name, x)
                return objective(trial_params)[0]

            numeric = central_diff(f, a)
            assert max_rel_err(grads[name], numeric) <= 1e-5, name


@st.composite
def ragged_problems(draw, dims=st.integers(2, 5)):
    """A model and a ragged batch: 1-6 rows, source rows of 0-5 tokens and
    target rows of 1-5, random gradients at every position (padded ones
    included), with or without hidden-state gradients."""
    b = draw(st.integers(1, 6))
    vocab, dim = draw(st.integers(3, 8)), draw(dims)
    src_len = draw(st.lists(st.integers(0, 5), min_size=b, max_size=b))
    tgt_len = draw(st.lists(st.integers(1, 5), min_size=b, max_size=b))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(vocab, dim, rng, scale=draw(st.sampled_from([0.2, 1.0, 3.0])))
    batch = ragged_batch(rng, vocab, src_len, tgt_len)
    lt = max(tgt_len)
    dlogits = rng.standard_normal((b, lt, vocab))
    dhidden = rng.standard_normal((b, lt, dim)) if draw(st.booleans()) else None
    return params, batch, dlogits, dhidden


def against_oracle(params, batch, dlogits, dhidden):
    """(new, oracle) pairs of logits, hidden states and the three gradients."""
    logits, hidden, cache = forward_batch(params, *batch)
    grads = backward_batch(params, cache, dlogits, dhidden)
    o_logits, o_hidden, o_cache = forward_batch_oracle(params, *oracle_inputs(*batch))
    o_grads = backward_batch_oracle(params, o_cache, dlogits, dhidden)
    return zip((logits, hidden, *grads.values()),
               (o_logits, o_hidden, *o_grads))


class TestBatchedOracle:
    """forward_batch and backward_batch against the step-at-a-time oracle."""

    @settings(max_examples=300)
    @given(ragged_problems())
    def test_bit_identical_on_ragged_batches(self, problem):
        for new, oracle in against_oracle(*problem):
            assert np.array_equal(new, oracle)

    @pytest.mark.parametrize("seed,dim", [(0, 16), (1, 16), (2, 24)])
    def test_bit_identical_at_training_sizes(self, seed, dim):
        rng = np.random.default_rng(seed)
        params = init_params(64, dim, rng)
        batch = ragged_batch(rng, 64, rng.integers(0, 25, 32), rng.integers(1, 9, 32))
        lt = batch[2].shape[1]
        dhidden = rng.standard_normal((32, lt, dim)) if seed else None
        for new, oracle in against_oracle(params, batch, rng.standard_normal((32, lt, 64)),
                                          dhidden):
            assert np.array_equal(new, oracle)

    @pytest.mark.parametrize("src_len,tgt_len,hidden", [
        ([24] * 32, [8] * 32, False), ([0, 12] + [24] * 30, [8] * 32, True),
    ], ids=["every-step-full", "empty-source-row"])
    def test_bit_identical_with_and_without_padded_rows(self, src_len, tgt_len, hidden):
        # every step full takes the unmasked branch of both loops; an empty
        # source row puts a padded row in every source step, and a half-full
        # one carries its gradient through padded steps to real ones
        rng = np.random.default_rng(5)
        params = init_params(64, 16, rng)
        batch = ragged_batch(rng, 64, src_len, tgt_len)
        dhidden = rng.standard_normal((32, 8, 16)) if hidden else None
        for new, oracle in against_oracle(params, batch, rng.standard_normal((32, 8, 64)),
                                          dhidden):
            assert np.array_equal(new, oracle)

    @settings(max_examples=100)
    @given(ragged_problems(dims=st.just(1)))
    def test_width_one_within_rounding(self, problem):
        # with d = 1 the per-step gradient products are vector dot products,
        # and BLAS sums those in an order that depends on the stride of the
        # state vector, which the oracle's batch-major layout sets
        for new, oracle in against_oracle(*problem):
            assert np.allclose(new, oracle, rtol=1e-12, atol=1e-15)


class TestBatchShapes:
    """The batched passes reject arrays that do not fit the batch (V=8, d=3)."""

    def _cache(self):
        rng = np.random.default_rng(3)
        params = small_params(3, vocab=8)
        return params, forward_batch(params, *ragged_batch(rng, 8, [2, 3], [3, 1]))[2]

    @pytest.mark.parametrize("shape", [(2, 2, 8), (2, 4, 8), (2, 3, 7), (1, 3, 8), (2, 3)])
    def test_backward_rejects_misshaped_dlogits(self, shape):
        params, cache = self._cache()
        with pytest.raises(ValueError, match="dlogits has shape"):
            backward_batch(params, cache, np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 4), (1, 3, 3), (2, 3)])
    def test_backward_rejects_misshaped_dhidden(self, shape):
        params, cache = self._cache()
        with pytest.raises(ValueError, match="dhidden has shape"):
            backward_batch(params, cache, np.ones((2, 3, 8)), np.ones(shape))

    @pytest.mark.parametrize("which", ["src", "tgt"])
    @pytest.mark.parametrize("lengths", [[2], [2, 3, 1], [2, -1], [2, 4]],
                             ids=["too-few", "too-many", "negative", "beyond-width"])
    def test_forward_rejects_lengths_that_do_not_fit(self, which, lengths):
        # two rows of width 3: one length per row, each in [0, 3]
        params = small_params(3, vocab=8)
        src, src_len, tgt, tgt_len = ragged_batch(np.random.default_rng(4), 8, [2, 3], [3, 1])
        batch = {"src": src, "src_len": src_len, "tgt": tgt, "tgt_len": tgt_len,
                 f"{which}_len": lengths}
        message = f"{which}_len {lengths} must hold one length in [0, 3] for each of the 2 rows"
        with pytest.raises(ValueError, match=re.escape(message)):
            forward_batch(params, **batch)

    def test_forward_rejects_row_counts_that_differ(self):
        params = small_params(3, vocab=8)
        with pytest.raises(ValueError, match="same number of rows"):
            forward_batch(params, np.ones((2, 3), dtype=int), [3, 3],
                          np.ones((3, 2), dtype=int), [2, 2, 2])


class TestGenerate:
    def test_beam_one_equals_greedy(self):
        for seed in range(20):
            params = small_params(seed)
            doc = np.random.default_rng(seed).integers(0, 6, 4).tolist()
            g = generate(params, doc, mode="greedy", max_len=8)
            b = generate(params, doc, mode="beam", beam_width=1, max_len=8)
            assert g == b

    def test_beam_matches_exhaustive_enumeration(self):
        # with a 2-token vocabulary every expansion survives a width-2 beam,
        # so the beam must return the global argmax sequence
        from relkd.distmath import log_softmax_t

        for seed in range(10):
            for cap in (2, 3):
                params = small_params(seed, vocab=2, dim=3)
                doc = [1, 0, 1]

                results = []

                def rec(prefix, score, h, prev):
                    h2 = np.tanh(params.recur @ h + params.embed[prev])
                    logp = log_softmax_t(h2 @ params.out, 1.0)
                    for v in range(2):
                        s2 = score + float(logp[v])
                        if v == EOS_ID:
                            results.append((s2, tuple(prefix)))
                        elif len(prefix) + 1 == cap:
                            results.append((s2, tuple(prefix) + (v,)))
                        else:
                            rec(prefix + [v], s2, h2, v)

                h0 = np.zeros(3)
                for tok in doc:
                    h0 = np.tanh(params.recur @ h0 + params.embed[tok])
                rec([], 0.0, h0, BOS_ID)
                results.sort(key=lambda e: (-e[0], e[1]))
                expected = list(results[0][1])

                got = generate(params, doc, mode="beam", beam_width=2, max_len=cap)
                assert got == expected

    def test_length_cap(self):
        for seed in range(10):
            params = small_params(seed)
            out = generate(params, [3, 4], mode="greedy", max_len=5)
            assert len(out) <= 5
            out = generate(params, [3, 4], mode="beam", beam_width=3, max_len=5)
            assert len(out) <= 5

    def test_eos_not_emitted(self):
        for seed in range(10):
            params = small_params(seed)
            assert EOS_ID not in generate(params, [3, 4, 5], mode="greedy", max_len=8)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate(small_params(), [1], mode="sampled")


class TestRoute:
    def test_boundary(self):
        doc = list(range(10))
        assert route(doc, 10) == ROUTE_DIRECT
        assert route(doc, 9) == ROUTE_MAPREDUCE

    def test_empty_document(self):
        assert route([], 5) == ROUTE_DIRECT

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            route([1], 0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = small_params(7)
        path = tmp_path / "m.json"
        save_checkpoint(path, params, meta={"loss_mode": "A5"})
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.embed, params.embed)
        assert np.array_equal(loaded.recur, params.recur)
        assert np.array_equal(loaded.out, params.out)
        assert meta == {"loss_mode": "A5"}

    def test_holds_only_the_model_and_meta(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_params(), meta={"seed": 3})
        assert set(json.loads(path.read_text())) == {
            "version", "vocab_size", "hidden_dim", "embed", "recur", "out", "meta"}

    def test_reads_a_file_with_the_retired_keys(self, tmp_path):
        # earlier checkpoints also carried A4/A5's hbar_batch and projection
        params = small_params(8)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 2, "vocab_size": params.vocab_size, "hidden_dim": params.hidden_dim,
            **{name: base64.b64encode(a.astype("<f8").tobytes()).decode()
               for name, a in params.arrays().items()},
            "hbar_batch": 1.234, "projection": {"shape": [3, 4], "data": [0.5] * 12},
            "meta": {"loss_mode": "A5"},
        }))
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded.embed, params.embed)
        assert np.array_equal(loaded.recur, params.recur)
        assert np.array_equal(loaded.out, params.out)
        assert meta == {"loss_mode": "A5"}

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_params())
        text = path.read_text().replace('"version": 2', '"version": 9')
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text, shown", [("true", "True"), ("2.0", "2.0")])
    def test_version_must_be_the_integer(self, tmp_path, text, shown):
        # Python compares True == 1.0 == 1; JSON tells them apart
        path = tmp_path / "m.json"
        save_checkpoint(path, small_params())
        path.write_text(path.read_text().replace('"version": 2', f'"version": {text}'))
        with pytest.raises(ValueError, match=re.escape(
                f"unsupported checkpoint version {shown} (this relkd reads version 2; "
                "retrain it with distill)") + "$"):
            load_checkpoint(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = small_params(9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_meta_that_is_not_standard_json_writes_no_file(self, tmp_path, value):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint meta must be standard JSON")):
            save_checkpoint(path, small_params(), meta={"delta_star": value})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_checkpoint_that_save_would_not_write_does_not_load(self, tmp_path, constant):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_params())
        obj = {**json.loads(path.read_text()), "meta": {"delta_star": "here"}}
        path.write_text(json.dumps(obj).replace('"here"', constant))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: checkpoint must be standard JSON, got {constant}")):
            load_checkpoint(path)


# float64 values at the edges of the format: signed zeros, the smallest
# subnormal, the smallest normal and the largest finite magnitude
EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
         sys.float_info.max, -sys.float_info.max]
finite_floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
fixture_per_test = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def any_params(draw):
    """Params of a drawn shape, every value a drawn finite float."""
    v, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return ToyModelParams(**{
        name: np.reshape(draw(st.lists(finite_floats, min_size=a * b, max_size=a * b)), (a, b))
        for name, (a, b) in param_shapes(v, d).items()})


@st.composite
def topk_rows(draw):
    """(lengths, ids, logprobs) of a valid top-k cache over 8 tokens: rows
    of distinct ids and descending logprobs of at most log(1 / width)."""
    lengths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    width = draw(st.integers(1, 3))
    top = -math.log(width)
    logprob = st.one_of(st.sampled_from([v for v in EDGES if v <= top]),
                        st.floats(-sys.float_info.max, top))
    rows = [draw(st.lists(logprob, min_size=width, max_size=width)) for _ in range(sum(lengths))]
    ids = [draw(st.permutations(range(8)))[:width] for _ in rows]
    return lengths, np.reshape(ids, (-1, width)), np.reshape(
        [sorted(row, reverse=True) for row in rows], (-1, width))


class TestFloatCodec:
    """``encode_floats``/``decode_floats``: the one float64 codec of
    checkpoints and top-k caches."""

    @fixture_per_test
    @given(params=any_params())
    def test_checkpoint_arrays_come_back_bit_for_bit(self, tmp_path, params):
        save_checkpoint(tmp_path / "m.json", params)
        loaded, _ = load_checkpoint(tmp_path / "m.json")
        for name, a in params.arrays().items():
            assert loaded.arrays()[name].shape == a.shape
            assert loaded.arrays()[name].tobytes() == a.tobytes()

    @fixture_per_test
    @given(params=any_params())
    def test_loaded_arrays_are_writable_and_their_own(self, tmp_path, params):
        save_checkpoint(tmp_path / "m.json", params)
        first, second = (list(load_checkpoint(tmp_path / "m.json")[0].arrays().values())
                         for _ in range(2))
        assert all(a.flags.writeable and a.flags.owndata for a in first)
        for a, b in itertools.combinations(first + second, 2):
            assert not np.shares_memory(a, b)

    @fixture_per_test
    @given(rows=topk_rows())
    def test_cache_logprobs_round_trip_through_the_same_pair(self, tmp_path, rows):
        lengths, ids, logprobs = rows
        cache = topk_cache([f"ex{r}" for r in range(len(lengths))], lengths, ids, logprobs,
                           8, ids.shape[1])
        write_cache(cache, tmp_path / "c.jsonl")
        lines = [json.loads(line) for line in (tmp_path / "c.jsonl").read_text().splitlines()]
        per_record = np.split(logprobs, np.cumsum(lengths)[:-1])
        for line, expected in zip(lines[1:], per_record, strict=True):
            assert line["logprobs"] == encode_floats(expected)
            assert decode_floats(line["logprobs"], (expected.size,), "logprobs").tobytes() \
                == expected.ravel().tobytes()
        assert read_cache(tmp_path / "c.jsonl").logprobs.tobytes() == logprobs.tobytes()

    def test_text_is_little_endian_float64_whatever_the_array_byte_order(self, tmp_path):
        values = [1.0, -2.0, 0.5]
        text = base64.b64encode(struct.pack("<3d", *values)).decode()
        for dtype in ("<f8", ">f8", float):
            assert encode_floats(np.array(values, dtype=dtype)) == text
        assert decode_floats(text, (3,), "x").tolist() == values
        save_checkpoint(tmp_path / "m.json", ToyModelParams(*np.reshape(values, (3, 1, 1))))
        obj = json.loads((tmp_path / "m.json").read_text())
        assert [obj[name] for name in ("embed", "recur", "out")] == [
            "AAAAAAAA8D8=", "AAAAAAAAAMA=", "AAAAAAAA4D8="]

    @pytest.mark.parametrize("text, message", [
        (None, "x must be a base64 string"), ([1.0], "x must be a base64 string"),
        ("AAAA!AAA8D8=", "x must be a base64 string ("),
        ("AAAAAAAA8A==", "x must hold 8 bytes per value of shape (1,)"),
        ("AAAAAAAA8D8AAAAAAADwPw==", "x must hold 8 bytes per value of shape (1,)")],
        ids=["null", "list", "not-base64", "7-bytes", "16-bytes"])
    def test_decode_rejects_text_that_is_not_one_value(self, text, message):
        with pytest.raises((TypeError, ValueError), match=re.escape(message)):
            decode_floats(text, (1,), "x")
