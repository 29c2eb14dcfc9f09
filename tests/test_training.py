from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from relkd.losses import (
    CpdpAnchor,
    HiddenPair,
    LossWeights,
    Teachers,
    TokenBatch,
    ce_loss,
    ewad_loss,
    standard_total,
)
from relkd.reliability import ReliabilityConfig
from relkd.teachercache import sample_target
from relkd.toymodel import (
    EOS_ID,
    backward_batch,
    forward_batch,
    init_params,
    padded_rows,
)
from relkd.training import (
    MODES,
    Corpus,
    CorpusConfig,
    CorpusExample,
    SupervisionBundle,
    TrainConfig,
    TrainingDiverged,
    build_pseudo_records,
    build_topk_cache,
    derive_seed,
    index_pseudo,
    prepare_supervision,
    pseudo_variant_id,
    synthetic_corpus,
    synthetic_document,
    train,
    validate_supervision,
)

from oracles import (
    adaptive_tau_oracle,
    central_diff,
    cpdp_forward_scalar,
    densify_oracle,
    entropy_scalar,
    ewad_forward_scalar,
    forward_one,
    kl_scalar,
    max_rel_err,
    records_of,
)

SIG_25 = 0.9241418199787566
RCFG = ReliabilityConfig()


def ewad_cpdp_step(batch, anchor, weights, tau, **overrides):
    """The EWAD_CPDP mode's loss step on one batch: (value, logit gradient,
    EWAD trace, CPDP trace)."""
    config = TrainConfig(loss_mode="EWAD_CPDP", weights=weights,
                         reliability=ReliabilityConfig(**overrides))
    value, grads, etr, ctr = MODES["EWAD_CPDP"].step(config, batch, tau, None, anchor)
    return value, grads.logits, etr, ctr


def tiny_corpus(n=24, vocab=12, seed=0, task="copy"):
    return synthetic_corpus(
        CorpusConfig(n_examples=n, vocab_size=vocab, seed=seed, task=task,
                     min_sentence_len=3, max_sentence_len=5)
    )


def teacher_and_bundle(corpus, seed=7, dim=5, k=None, two_teachers=False,
                       pseudo=False):
    k = k or corpus.vocab_size
    t1 = init_params(corpus.vocab_size, dim, np.random.default_rng([seed, 0]))
    bundle = SupervisionBundle(teacher_params=t1)
    pseudo_idx = None
    if pseudo:
        recs = build_pseudo_records(t1, "p1", corpus, beam_width=2, max_len=8)
        pseudo_idx = index_pseudo(recs)
        bundle.pseudo = pseudo_idx
    bundle.topk = (build_topk_cache(t1, corpus, k, pseudo_idx),)
    if two_teachers:
        t2 = init_params(corpus.vocab_size, dim - 1, np.random.default_rng([seed, 1]))
        bundle.topk += (build_topk_cache(t2, corpus, k, pseudo_idx),)
    return bundle


class TestCorpus:
    def test_deterministic(self):
        a = tiny_corpus(seed=3)
        b = tiny_corpus(seed=3)
        assert [(e.document, e.summary) for e in a.examples] == \
               [(e.document, e.summary) for e in b.examples]

    def test_token_ranges_and_nonempty_summaries(self):
        c = synthetic_corpus(CorpusConfig(n_examples=50, vocab_size=32, seed=1))
        for ex in c.examples:
            assert all(0 <= t < 32 for t in ex.document)
            assert len(ex.summary) >= 1

    def test_compress_rule(self):
        c = synthetic_corpus(CorpusConfig(n_examples=20, vocab_size=16, seed=2, stride=2))
        for ex in c.examples:
            salient = [t for t in ex.document if t >= 8]
            assert ex.summary == salient[::2]

    def test_synthetic_document_length(self):
        doc = synthetic_document(3000, vocab_size=64, seed=5)
        assert len(doc) == 3000
        assert all(0 <= t < 64 for t in doc)


class TestEndToEndGradients:
    """Finite-difference checks of d(loss)/d(model parameters) per loss mode."""

    VOCAB, DIM = 7, 3

    def _setup(self, seed, two_teachers=False):
        rng = np.random.default_rng(seed)
        params = init_params(self.VOCAB, self.DIM, rng)
        doc = rng.integers(0, self.VOCAB, 3).tolist()
        tgt = rng.integers(0, self.VOCAB, 3).tolist()
        z_t1 = 1.5 * rng.standard_normal((3, self.VOCAB))
        z_t2 = 1.5 * rng.standard_normal((3, self.VOCAB))
        return params, doc, tgt, z_t1, (z_t2 if two_teachers else None)

    def _run(self, params, doc, tgt):
        return forward_batch(params, np.array([doc]), [len(doc)], np.array([tgt]), [len(tgt)])

    def _check(self, mode_fn, params, doc, tgt, tol=1e-5, dhidden_fn=None):
        logits, hidden, cache = self._run(params, doc, tgt)
        value, dlog, dhid = mode_fn(logits[0], hidden[0])
        grads = backward_batch(
            params, cache, dlog[None], None if dhid is None else dhid[None]
        )

        for name, a in params.arrays().items():
            def f(x, name=name):
                p2 = params.copy()
                setattr(p2, name, x)
                lg, hd, _ = self._run(p2, doc, tgt)
                v, _, _ = mode_fn(lg[0], hd[0])
                return v

            numeric = central_diff(f, a)
            assert max_rel_err(grads[name], numeric) <= tol, name

    def test_ce_mode(self):
        params, doc, tgt, _, _ = self._setup(0)

        def mode_fn(logits, hidden):
            v, g = ce_loss(TokenBatch(tgt, [True] * len(tgt), logits))
            return v, g, None

        self._check(mode_fn, params, doc, tgt)

    def test_a2_mode(self):
        params, doc, tgt, z_t1, _ = self._setup(1)
        w = LossWeights(alpha_kd=0.3)

        def mode_fn(logits, hidden):
            tb = TokenBatch(tgt, [True] * len(tgt), logits, teachers=Teachers(z_t1))
            v, grads = standard_total(tb, None, w, 0.8)
            return v, grads.logits, None

        self._check(mode_fn, params, doc, tgt)

    def test_a4_mode_with_computed_tau(self):
        # the adaptive temperature depends only on teacher entropy, so it is
        # a constant during differentiation; the check runs at that tau
        from relkd.distmath import softmax_t
        from relkd.losses import AdaptiveTauConfig

        params, doc, tgt, z_t1, _ = self._setup(7)
        w = LossWeights(alpha_kd=0.3)
        tau = adaptive_tau_oracle(softmax_t(z_t1, 1.0), [True] * len(tgt), 1.0,
                                  AdaptiveTauConfig())
        assert 0.5 < tau < 2.0

        def mode_fn(logits, hidden):
            tb = TokenBatch(tgt, [True] * len(tgt), logits, teachers=Teachers(z_t1))
            v, grads = standard_total(tb, None, w, tau)
            return v, grads.logits, None

        self._check(mode_fn, params, doc, tgt)

    def test_a5_mode_including_projection(self):
        params, doc, tgt, z_t1, _ = self._setup(2)
        rng = np.random.default_rng(99)
        teacher_hidden = rng.standard_normal((3, 4))
        proj = rng.standard_normal((self.DIM, 4))
        w = LossWeights(alpha_kd=0.2, alpha_inter=0.3)

        def mode_fn(logits, hidden):
            tb = TokenBatch(tgt, [True] * len(tgt), logits, teachers=Teachers(z_t1))
            hp = HiddenPair(hidden, teacher_hidden, proj)
            v, grads = standard_total(tb, hp, w, 0.8)
            return v, grads.logits, grads.hidden

        self._check(mode_fn, params, doc, tgt)

        # projection gradient, with the model held fixed
        logits, hidden, _ = self._run(params, doc, tgt)

        def f_proj(p):
            tb = TokenBatch(tgt, [True] * len(tgt), logits[0], teachers=Teachers(z_t1))
            v, _ = standard_total(tb, HiddenPair(hidden[0], teacher_hidden, p), w, 0.8)
            return v

        tb = TokenBatch(tgt, [True] * len(tgt), logits[0], teachers=Teachers(z_t1))
        _, grads = standard_total(tb, HiddenPair(hidden[0], teacher_hidden, proj), w, 0.8)
        assert max_rel_err(grads.projection, central_diff(f_proj, proj)) <= 1e-5

    def test_ewad_mode(self):
        params, doc, tgt, z_t1, z_t2 = self._setup(3, two_teachers=True)

        def mode_fn(logits, hidden):
            tb = TokenBatch(tgt, [True] * len(tgt), logits,
                            teachers=Teachers(z_t1, z_t2))
            v, g, _ = ewad_loss(tb, RCFG, 1.0)
            return v, g, None

        self._check(mode_fn, params, doc, tgt)

    def test_ewad_cpdp_mode_with_frozen_entropy_oracle(self):
        params, doc, tgt, z_t1, z_t2 = self._setup(4, two_teachers=True)
        anchor = CpdpAnchor(0.2)
        w = LossWeights(mu=0.05)

        logits, hidden, cache = self._run(params, doc, tgt)
        tb = TokenBatch(tgt, [True] * len(tgt), logits[0],
                        teachers=Teachers(z_t1, z_t2))
        value, dlog, etr, ctr = ewad_cpdp_step(tb, anchor, w, 1.0)
        grads = backward_batch(params, cache, dlog[None])
        frozen = ctr.student_entropy

        for name, a in params.arrays().items():
            def f(x, name=name):
                p2 = params.copy()
                setattr(p2, name, x)
                lg, _, _ = self._run(p2, doc, tgt)
                e = ewad_forward_scalar(tgt, [True] * len(tgt), lg[0], z_t1, z_t2, tau=1.0)
                c = cpdp_forward_scalar([True] * len(tgt), lg[0], z_t1, z_t2,
                                        anchor.delta_star, frozen_entropy=frozen)
                return e + w.mu * c

            numeric = central_diff(f, a)
            assert max_rel_err(grads[name], numeric) <= 1e-5, name


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(loss_mode="CE", epochs=0, seed=5, hidden_dim=4)
        res = train(cfg, corpus)
        init = init_params(corpus.vocab_size, 4, np.random.default_rng([5, 1]))
        for name, a in init.arrays().items():
            assert np.array_equal(getattr(res.params, name), a), name
        assert res.metrics == []

    def test_same_seed_is_bit_identical(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(loss_mode="CE", epochs=4, seed=2, hidden_dim=4)
        r1 = train(cfg, corpus)
        r2 = train(cfg, corpus)
        assert r1.metrics == r2.metrics
        assert np.array_equal(r1.params.embed, r2.params.embed)
        assert np.array_equal(r1.params.out, r2.params.out)

    def test_ce_loss_decreases_on_copy_task(self):
        corpus = synthetic_corpus(
            CorpusConfig(n_examples=200, vocab_size=16, seed=4, task="copy",
                         min_sentence_len=3, max_sentence_len=5)
        )
        cfg = TrainConfig(loss_mode="CE", epochs=30, learning_rate=0.2,
                          batch_size=32, seed=0, hidden_dim=8)
        res = train(cfg, corpus)
        losses = [m["loss"] for m in res.metrics]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 0.9 * (len(losses) - 1)

    def test_ce_trains_the_same_with_two_caches_in_its_bundle(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(loss_mode="CE", epochs=3, seed=1, hidden_dim=4)
        bare = train(cfg, corpus)
        bundle = teacher_and_bundle(corpus, two_teachers=True)
        assert len(bundle.topk) == 2
        bundled = train(cfg, corpus, bundle)
        assert bundled.metrics == bare.metrics
        for name, a in bare.params.arrays().items():
            assert np.array_equal(getattr(bundled.params, name), a), name

    def test_a1_trace_has_zero_kd_and_inter(self):
        corpus = tiny_corpus()
        res = train(TrainConfig(loss_mode="CE", epochs=3, seed=1, hidden_dim=4), corpus)
        assert all(m["kd"] == 0.0 and m["inter"] == 0.0 for m in res.metrics)

    def test_a2_trace_has_zero_inter_and_nonzero_kd(self):
        corpus = tiny_corpus()
        bundle = teacher_and_bundle(corpus)
        cfg = TrainConfig(loss_mode="A2", epochs=3, seed=1, hidden_dim=4,
                          weights=LossWeights(alpha_kd=0.01))
        res = train(cfg, corpus, bundle)
        assert all(m["inter"] == 0.0 for m in res.metrics)
        assert all(m["kd"] > 0.0 for m in res.metrics)

    def test_identical_teacher_caches_gate_near_sigmoid_25(self):
        corpus = tiny_corpus(n=12)
        bundle = teacher_and_bundle(corpus)
        bundle.topk *= 2  # same records: perfect agreement
        cfg = TrainConfig(loss_mode="EWAD", epochs=2, seed=3, hidden_dim=4,
                          fixed_tau=1.0)
        res = train(cfg, corpus, bundle)
        for m in res.metrics:
            assert abs(m["lambda_mean"] - SIG_25) < 1e-9

    def test_lambda_override_and_equal_weights_arms(self):
        corpus = tiny_corpus(n=12)
        bundle = teacher_and_bundle(corpus, two_teachers=True)
        base = dict(epochs=1, seed=3, hidden_dim=4, fixed_tau=1.0)
        res = train(TrainConfig(loss_mode="EWAD",
                                reliability=ReliabilityConfig(lambda_override=1.0), **base),
                    corpus, bundle)
        assert res.metrics[0]["lambda_mean"] == 1.0

    def test_pseudo_mixing_changes_targets(self):
        corpus = tiny_corpus(n=40, seed=9)
        bundle = teacher_and_bundle(corpus, pseudo=True)
        cfg = TrainConfig(loss_mode="A3", epochs=1, seed=1, hidden_dim=4,
                          p_pseudo=1.0)
        res = train(cfg, corpus, bundle)  # must not raise: variant caches exist
        assert len(res.metrics) == 1

    def test_pseudo_targets_follow_the_run_seed(self):
        corpus = tiny_corpus(n=40, seed=9)
        bundle = teacher_and_bundle(corpus, pseudo=True)
        targets = {}
        for seed in (0, 1):
            sup = prepare_supervision(TrainConfig(loss_mode="A3", seed=seed, p_pseudo=0.5),
                                      corpus, bundle)
            targets[seed] = [row[:n].tolist() for row, n in zip(sup.tgt, sup.tgt_len)]
            # each target is sample_target's pick from the run's mixing seed
            assert targets[seed] == [
                sample_target(ex.summary, bundle.pseudo[ex.example_id], 0.5,
                              derive_seed(seed, 3), i)[0] + [EOS_ID]
                for i, ex in enumerate(corpus.examples)]
        assert targets[0] != targets[1]

    def test_a5_trains_projection(self):
        corpus = tiny_corpus(n=16)
        bundle = teacher_and_bundle(corpus, pseudo=True)
        cfg = TrainConfig(loss_mode="A5", epochs=2, seed=1, hidden_dim=4,
                          weights=LossWeights(alpha_kd=0.01, alpha_inter=0.1),
                          p_pseudo=0.3)
        res = train(cfg, corpus, bundle)
        assert all(m["inter"] > 0.0 for m in res.metrics)

    def test_ewad_cpdp_reports_anchor_and_cpdp_component(self):
        corpus = tiny_corpus(n=12)
        bundle = teacher_and_bundle(corpus, two_teachers=True)
        cfg = TrainConfig(loss_mode="EWAD_CPDP", epochs=2, seed=2, hidden_dim=4,
                          fixed_tau=1.0, anchor_tokens=32)
        res = train(cfg, corpus, bundle)
        assert res.anchor is not None and res.anchor.delta_star > 0
        assert all(m["cpdp"] > 0.0 for m in res.metrics)

    def test_validation_rouge_logged(self):
        corpus = tiny_corpus(n=16)
        val = tiny_corpus(n=8, seed=99)
        res = train(TrainConfig(loss_mode="CE", epochs=2, seed=1, hidden_dim=4),
                    corpus, val_corpus=val)
        assert all(0.0 <= m["val_rougeL"] <= 1.0 for m in res.metrics)

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        corpus = tiny_corpus(n=64)
        cfg = TrainConfig(loss_mode="CE", epochs=50, learning_rate=1e307,
                          seed=0, hidden_dim=8)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(cfg, corpus)

    def test_missing_cache_is_rejected_before_training(self):
        corpus = tiny_corpus()
        with pytest.raises(ValueError, match="top-k cache"):
            validate_supervision(TrainConfig(loss_mode="A2"), SupervisionBundle())
        with pytest.raises(ValueError, match="top-k cache"):
            train(TrainConfig(loss_mode="EWAD"), corpus, SupervisionBundle())

    def test_empty_corpus_rejected(self):
        empty = Corpus(examples=[], vocab_size=16)
        with pytest.raises(ValueError, match="empty corpus"):
            train(TrainConfig(loss_mode="CE", epochs=1), empty)

    def test_supervision_for_an_empty_corpus_is_rejected(self):
        empty = Corpus(examples=[], vocab_size=16)
        with pytest.raises(ValueError, match="empty corpus"):
            prepare_supervision(TrainConfig(), empty, SupervisionBundle())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(loss_mode="CE", seed=-1)

    @pytest.mark.parametrize("hidden_dim", [0, -3])
    def test_student_without_width_rejected(self, hidden_dim):
        with pytest.raises(ValueError, match=f"hidden_dim must be >= 1, got {hidden_dim}"):
            TrainConfig(loss_mode="CE", hidden_dim=hidden_dim)

    @pytest.mark.parametrize("p_pseudo", [1.5, -0.1])
    def test_pseudo_rate_outside_the_unit_interval_rejected(self, p_pseudo):
        with pytest.raises(ValueError, match=f"p_pseudo must lie in \\[0, 1\\], got {p_pseudo}"):
            TrainConfig(loss_mode="A3", p_pseudo=p_pseudo)

    @pytest.mark.parametrize("gen_max_len", [0, -3])
    def test_empty_decoding_length_rejected(self, gen_max_len):
        with pytest.raises(ValueError, match=f"gen_max_len must be >= 1, got {gen_max_len}"):
            TrainConfig(loss_mode="CE", gen_max_len=gen_max_len)

    def test_a_checked_config_cannot_be_changed(self):
        cfg = TrainConfig(loss_mode="CE")
        with pytest.raises(FrozenInstanceError):
            cfg.batch_size = 0
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            replace(cfg, batch_size=0)


class TestCacheBridge:
    def test_full_k_cache_reproduces_teacher_distributions(self):
        from relkd.distmath import softmax_t

        corpus = tiny_corpus(n=4)
        t1 = init_params(corpus.vocab_size, 5, np.random.default_rng(0))
        records = build_topk_cache(t1, corpus, corpus.vocab_size)
        ex = corpus.examples[0]
        target = ex.summary + [EOS_ID]
        logits, _ = forward_one(t1, ex.document, target)
        teachers = prepare_supervision(TrainConfig(loss_mode="A2"), corpus,
                                       SupervisionBundle(topk=(records,))).teachers
        cached = teachers.logits(1)[:len(target)]  # the first example's rows
        assert np.allclose(softmax_t(cached, 1.0), softmax_t(logits, 1.0), atol=1e-12)

    @pytest.mark.parametrize("mode", ["A2", "EWAD"])
    def test_cache_of_another_vocabulary_rejected(self, mode):
        corpus = tiny_corpus(n=2)
        t1 = init_params(corpus.vocab_size, 5, np.random.default_rng(0))
        cache = build_topk_cache(t1, corpus, 4)
        wider = Corpus(corpus.examples, corpus.vocab_size + 4)
        with pytest.raises(ValueError, match=f"teacher 1 cache has vocab_size {corpus.vocab_size}, "
                                             f"corpus.vocab_size is {corpus.vocab_size + 4}"):
            prepare_supervision(TrainConfig(loss_mode=mode), wider,
                                SupervisionBundle(topk=(cache, cache)))

    def test_length_mismatch_rejected(self):
        corpus = tiny_corpus(n=2)
        t1 = init_params(corpus.vocab_size, 5, np.random.default_rng(0))
        records = build_topk_cache(t1, corpus, 4)
        ex = corpus.examples[0]
        summary = ex.summary + ex.summary[:1] * 3  # 3 positions more than the cache holds
        longer = Corpus([CorpusExample(ex.example_id, ex.document, summary)], corpus.vocab_size)
        with pytest.raises(ValueError, match="positions"):
            prepare_supervision(TrainConfig(loss_mode="A2"), longer,
                                SupervisionBundle(topk=(records,)))


class TestTeacherDerivedInputs:
    """The CPDP anchor and the adaptive temperature's entropy against rows
    built apart from the package: each example's target resolved as
    ``sample_target`` draws it, its cache record densified by
    ``densify_oracle``, floored at 1e-12 and renormalized."""

    TOL = 1e-12

    @staticmethod
    def oracle_rows(config, corpus, bundle):
        """Each teacher's rows of every example's target, one list per
        teacher of one (T, V) array per example, and the number of examples
        whose target is a pseudo-label."""
        records = [dict(records_of(topk)) for topk in bundle.topk[:config.spec.teachers]]
        rows, pseudo = [[] for _ in records], 0
        for i, ex in enumerate(corpus.examples):
            rec_id = ex.example_id
            if config.p_pseudo > 0:
                _, provenance = sample_target(ex.summary, bundle.pseudo[ex.example_id],
                                              config.p_pseudo, derive_seed(config.seed, 3), i)
                if provenance != "gold":
                    rec_id = pseudo_variant_id(ex.example_id, provenance.split(":", 1)[1])
                    pseudo += 1
            for teacher, out in zip(records, rows):
                p = np.maximum(densify_oracle(teacher[rec_id], corpus.vocab_size), 1e-12)
                out.append(p / p.sum(axis=1, keepdims=True))
        return rows, pseudo

    @pytest.mark.parametrize("anchor_tokens", [17, 512])
    @pytest.mark.parametrize("p_pseudo", [0.0, 0.3])
    def test_the_anchor_is_the_mean_kl_over_the_first_target_positions(self, p_pseudo,
                                                                      anchor_tokens):
        corpus = tiny_corpus(n=10)
        bundle = teacher_and_bundle(corpus, k=4, two_teachers=True, pseudo=True)
        config = TrainConfig(loss_mode="EWAD_CPDP", p_pseudo=p_pseudo, seed=1,
                             anchor_tokens=anchor_tokens)
        (t1, t2), pseudo = self.oracle_rows(config, corpus, bundle)
        assert (pseudo > 0) == (p_pseudo > 0)
        p1, p2 = (np.concatenate(rows)[:anchor_tokens] for rows in (t1, t2))
        assert (len(p1) == anchor_tokens) == (anchor_tokens == 17)  # 512 takes every position
        expected = sum(kl_scalar(a, b) for a, b in zip(p1, p2)) / len(p1)
        got = prepare_supervision(config, corpus, bundle).anchor.delta_star
        assert abs(got - expected) <= self.TOL * abs(expected)

    @pytest.mark.parametrize("p_pseudo", [0.0, 0.3])
    def test_each_example_s_entropy_is_its_mean_teacher1_entropy(self, p_pseudo):
        corpus = tiny_corpus(n=10)
        bundle = teacher_and_bundle(corpus, k=4, pseudo=True)
        config = TrainConfig(loss_mode="A4", p_pseudo=p_pseudo, seed=1)
        (t1,), pseudo = self.oracle_rows(config, corpus, bundle)
        assert (pseudo > 0) == (p_pseudo > 0)
        got = prepare_supervision(config, corpus, bundle).entropy
        assert got.shape == (len(corpus),)
        for h, rows in zip(got, t1):
            expected = sum(map(entropy_scalar, rows)) / len(rows)
            assert abs(h - expected) <= self.TOL * abs(expected)


class TestSupervisionBatch:
    def setup_method(self):
        self.corpus = tiny_corpus(n=6)
        bundle = teacher_and_bundle(self.corpus, two_teachers=True)
        self.params = init_params(self.corpus.vocab_size, 4, np.random.default_rng(9))
        self.sup = prepare_supervision(TrainConfig(loss_mode="EWAD"), self.corpus, bundle)

    def test_a_batch_gathers_each_example_s_teacher_rows_in_order(self):
        idx = [4, 0, 3]
        assert len(set(self.sup.tgt_len[idx].tolist())) > 1  # padding is exercised
        *_, tb = self.sup.batch(self.params, idx)
        for which in (1, 2):
            rows = self.sup.teachers.logits(which)
            expected = [rows[self.sup.offsets[i]:self.sup.offsets[i] + self.sup.tgt_len[i]]
                        for i in idx]
            assert np.array_equal(tb.teachers.logits(which), np.concatenate(expected))

    def test_a_batch_of_one_is_the_example_alone(self):
        for i, ex in enumerate(self.corpus.examples):
            logits, hidden, _, tb = self.sup.batch(self.params, [i])
            ref_logits, ref_hidden = forward_one(self.params, ex.document, ex.summary + [EOS_ID])
            assert np.all(logits[0] == ref_logits) and np.all(hidden[0] == ref_hidden)
            assert tb.positions.tolist() == list(range(len(ex.summary) + 1))

    def test_a5_teacher_hidden_states_are_one_teacher_pass_over_the_targets(self):
        bundle = teacher_and_bundle(self.corpus, pseudo=True)
        sup = prepare_supervision(TrainConfig(loss_mode="A5", p_pseudo=0.3), self.corpus,
                                  bundle)
        targets = [row[:n] for row, n in zip(sup.tgt, sup.tgt_len)]
        tgt, tgt_len = padded_rows(targets)
        _, hidden, _ = forward_batch(bundle.teacher_params,
                                     *padded_rows([ex.document for ex in self.corpus.examples]),
                                     tgt, tgt_len)
        assert sup.teacher_hidden.shape == (len(self.corpus), tgt.shape[1], 5)
        assert np.array_equal(sup.teacher_hidden, hidden)

    @pytest.mark.parametrize("mode", ["CE", "A2", "EWAD_CPDP"])
    def test_only_a5_runs_the_teacher_for_hidden_states(self, mode):
        # the bundle holds teacher parameters, which only A5 reads
        bundle = teacher_and_bundle(self.corpus, two_teachers=True)
        sup = prepare_supervision(TrainConfig(loss_mode=mode), self.corpus, bundle)
        assert sup.teacher_hidden is None


class TestModeTable:
    @staticmethod
    def full(mode):
        """A bundle of everything a mode may read: as many top-k caches as its
        row names, pseudo-labels and teacher parameters."""
        return {"topk": ({"x": None},) * MODES[mode].teachers, "pseudo": {"x": []},
                "teacher_params": object()}

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_validation_requires_exactly_what_the_row_names(self, mode):
        cfg = TrainConfig(loss_mode=mode, p_pseudo=0.3)
        full = self.full(mode)
        validate_supervision(cfg, SupervisionBundle(**full))
        n = MODES[mode].teachers
        if n:  # one cache fewer
            with pytest.raises(ValueError, match=f"loss_mode {mode} requires {n} top-k cache"):
                validate_supervision(cfg, SupervisionBundle(**{**full, "topk": full["topk"][1:]}))
        # (whether it is required, the SupervisionBundle field, the error's start)
        for required, attr, message in ((True, "pseudo", "p_pseudo 0.3 requires"),
                                        (MODES[mode].hidden, "teacher_params",
                                         f"loss_mode {mode} requires")):
            lacking = SupervisionBundle(**{**full, attr: None})
            if required:
                with pytest.raises(ValueError, match=message):
                    validate_supervision(cfg, lacking)
            else:
                validate_supervision(cfg, lacking)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_pseudo_labels_are_optional_without_mixing(self, mode):
        cfg = TrainConfig(loss_mode=mode, p_pseudo=0.0)
        validate_supervision(cfg, SupervisionBundle(**{**self.full(mode), "pseudo": None}))

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_only_pseudo_targets_read_only_the_pseudo_rows(self, mode):
        corpus = tiny_corpus(n=8)
        bundle = teacher_and_bundle(corpus, two_teachers=True, pseudo=True)
        for topk in bundle.topk:  # a gold row read would now be a missing record
            topk.index = {eid: r for eid, r in topk.index.items() if "::pseudo:" in eid}
        sup = prepare_supervision(TrainConfig(loss_mode=mode, p_pseudo=1.0), corpus, bundle)
        assert [row[:n].tolist() for row, n in zip(sup.tgt, sup.tgt_len)] == [
            bundle.pseudo[ex.example_id][0].tokens + [EOS_ID] for ex in corpus.examples]
