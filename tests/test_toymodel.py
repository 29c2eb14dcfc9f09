import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkd.losses import TokenBatch, ce_loss
from relkd.toymodel import (
    BOS_ID,
    EOS_ID,
    ROUTE_DIRECT,
    ROUTE_MAPREDUCE,
    ToyModelParams,
    backward_batch,
    forward_batch,
    generate,
    init_params,
    load_checkpoint,
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
    """Random src, src_mask, tgt_in, tgt_mask padded to the longest row;
    the padded cells hold random tokens too."""
    src_len, tgt_len = np.asarray(src_len), np.asarray(tgt_len)
    ls, lt = src_len.max(initial=0), tgt_len.max(initial=0)
    return (rng.integers(0, vocab, (len(src_len), ls)), np.arange(ls) < src_len[:, None],
            rng.integers(0, vocab, (len(tgt_len), lt)), np.arange(lt) < tgt_len[:, None])


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
        src_mask = np.array([[True, True, True, False, False]])
        tgt_in = np.array([[BOS_ID, 2, 1, 0, 0]])
        tgt_mask = np.array([[True, True, True, False, False]])
        logits, hidden, _ = forward_batch(params, src, src_mask, tgt_in, tgt_mask)
        assert np.allclose(logits[0, :3], logits_ref, atol=1e-14)
        assert np.allclose(hidden[0, :3], hidden_ref, atol=1e-14)


class TestBackward:
    def _loss_and_grads(self, params, doc, tgt):
        logits, _, cache = forward_batch(
            params,
            np.array([doc]), np.ones((1, len(doc)), dtype=bool),
            np.array([[BOS_ID] + tgt[:-1]]), np.ones((1, len(tgt)), dtype=bool),
        )
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

            for name in ("embed", "recur", "out"):
                def f(x, name=name):
                    trial_params = params.copy()
                    setattr(trial_params, name, x)
                    v, _ = self._loss_and_grads(trial_params, doc, tgt)
                    return v

                numeric = central_diff(f, getattr(params, name))
                assert max_rel_err(getattr(grads, name), numeric) <= 1e-5

    def test_near_zero_gradients_for_perfect_predictor(self):
        # point the output matrix at the gold token so CE (and hence every
        # parameter gradient) collapses toward zero
        params = small_params(6, vocab=4, dim=3)
        gold = 2
        h1 = np.tanh(params.recur @ np.zeros(3) + params.embed[BOS_ID])
        params.out = np.outer(h1, np.eye(4)[gold]) * (50.0 / (h1 @ h1))
        value, grads = self._loss_and_grads(params, [], [gold])
        assert value < 1e-12
        for g in (grads.embed, grads.recur, grads.out):
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
        for name in ("embed", "recur", "out"):
            def f(x, name=name):
                trial_params = params.copy()
                setattr(trial_params, name, x)
                return objective(trial_params)[0]

            numeric = central_diff(f, getattr(params, name))
            assert max_rel_err(getattr(grads, name), numeric) <= 1e-5, name


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
    o_logits, o_hidden, o_cache = forward_batch_oracle(params, *batch)
    o_grads = backward_batch_oracle(params, o_cache, dlogits, dhidden)
    return zip((logits, hidden, grads.embed, grads.recur, grads.out),
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

    @pytest.mark.parametrize("which,shape", [
        ("src", (2, 4)), ("src", (2, 2)), ("src", (1, 3)),
        ("tgt", (2, 4)), ("tgt", (2, 2)), ("tgt", (3, 3)),
    ])
    def test_forward_rejects_a_mask_of_another_shape(self, which, shape):
        params = small_params(3, vocab=8)
        src, src_mask, tgt_in, tgt_mask = ragged_batch(np.random.default_rng(4), 8,
                                                       [2, 3], [3, 1])
        if which == "src":
            src_mask = np.ones(shape, dtype=bool)
        else:
            tgt_mask = np.ones(shape, dtype=bool)
        with pytest.raises(ValueError, match=f"{which}_mask has shape"):
            forward_batch(params, src, src_mask, tgt_in, tgt_mask)

    def test_forward_rejects_row_counts_that_differ(self):
        params = small_params(3, vocab=8)
        with pytest.raises(ValueError, match="same number of rows"):
            forward_batch(params, np.ones((2, 3), dtype=int), np.ones((2, 3), dtype=bool),
                          np.ones((3, 2), dtype=int), np.ones((3, 2), dtype=bool))


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
        proj = np.random.default_rng(8).standard_normal((3, 4))
        path = tmp_path / "m.json"
        save_checkpoint(path, params, hbar_batch=1.234, projection=proj,
                        meta={"loss_mode": "A5"})
        loaded, extras = load_checkpoint(path)
        assert np.array_equal(loaded.embed, params.embed)
        assert np.array_equal(loaded.recur, params.recur)
        assert np.array_equal(loaded.out, params.out)
        assert extras["hbar_batch"] == 1.234
        assert np.array_equal(extras["projection"], proj)
        assert extras["meta"]["loss_mode"] == "A5"

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, small_params())
        text = path.read_text().replace('"version": 1', '"version": 9')
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = small_params(9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        assert a.read_bytes() == b.read_bytes()
