import math

import numpy as np
import pytest

from relkd.distmath import entropy, kl, softmax_t
from relkd.losses import (
    AdaptiveTauConfig,
    CpdpAnchor,
    HiddenPair,
    LossWeights,
    Teachers,
    TokenBatch,
    ce_loss,
    compute_anchor,
    cpdp_loss,
    ewad_loss,
    inter_match_loss,
    kd_loss,
    standard_total,
    tau_from_entropy,
)
from relkd.reliability import ReliabilityConfig

from oracles import (
    central_diff,
    cpdp_forward_scalar,
    entropy_scalar,
    ewad_forward_scalar,
    max_rel_err,
    random_instance,
    sigmoid_scalar,
)
from test_training import ewad_cpdp_step

RCFG = ReliabilityConfig()
SIG_25 = 0.9241418199787566
SIG_M25 = 0.07585818002124355


def batch_from(inst, teachers=0):
    return TokenBatch(
        gold_ids=inst["gold"],
        mask=inst["mask"],
        student_logits=inst["z_s"],
        teachers=Teachers(inst["z_t1"] if teachers >= 1 else None,
                          inst["z_t2"] if teachers >= 2 else None),
    )


def check_logit_gradient(value_fn, grad, z0, tol=1e-5):
    numeric = central_diff(value_fn, z0)
    assert max_rel_err(grad, numeric) <= tol


class TestTokenBatch:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TokenBatch([0, 1], [True], np.zeros((2, 3)))

    def test_rejects_out_of_range_gold(self):
        with pytest.raises(ValueError):
            TokenBatch([5], [True], np.zeros((1, 3)))

    def test_rejects_nonfinite_logits(self):
        with pytest.raises(ValueError):
            TokenBatch([0], [True], np.array([[np.inf, 0.0, 0.0]]))


class TestLossWeights:
    def test_alpha_hard_derived(self):
        w = LossWeights(alpha_kd=0.01, alpha_inter=0.1)
        assert w.alpha_hard == 1.0 - 0.01 - 0.1

    def test_rejects_over_unit_simplex(self):
        with pytest.raises(ValueError):
            LossWeights(alpha_kd=0.6, alpha_inter=0.5)

    @pytest.mark.parametrize("field, value", [
        ("alpha_kd", -0.1), ("mu", -1.0), ("alpha_kd", math.nan), ("alpha_inter", math.nan),
        ("mu", math.nan), ("mu", math.inf),
    ])
    def test_rejects_negative(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0, "
                                             f"got {value}$"):
            LossWeights(**{field: value})


class TestCeLoss:
    def test_perfect_prediction(self):
        z = np.zeros((3, 4))
        gold = np.array([1, 2, 0])
        z[np.arange(3), gold] = 60.0
        value, _ = ce_loss(TokenBatch(gold, [True] * 3, z))
        assert value < 1e-12

    def test_uniform_student(self):
        value, _ = ce_loss(TokenBatch([2, 1], [True, True], np.zeros((2, 4))))
        assert abs(value - math.log(4)) < 1e-12

    def test_empty_mask_error(self):
        with pytest.raises(ValueError):
            ce_loss(TokenBatch([0], [False], np.zeros((1, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            inst = random_instance(rng)
            b = batch_from(inst)
            value, grad = ce_loss(b)

            def f(z, inst=inst):
                v, _ = ce_loss(TokenBatch(inst["gold"], inst["mask"], z))
                return v

            check_logit_gradient(f, grad, inst["z_s"])


class TestKdLoss:
    def test_identical_logits(self):
        z = np.random.default_rng(0).standard_normal((3, 5))
        b = TokenBatch([0] * 3, [True] * 3, z, teachers=Teachers(z.copy()))
        value, grad = kd_loss(b, 0.8)
        assert value == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_tau_squared_factor(self):
        rng = np.random.default_rng(1)
        z_s = rng.standard_normal((4, 6))
        z_t = rng.standard_normal((4, 6))
        gold = rng.integers(0, 6, 4)
        v1, _ = kd_loss(TokenBatch(gold, [True] * 4, z_s, teachers=Teachers(z_t)), 1.0)
        # doubling the logits and the temperature leaves the softened
        # distributions unchanged, so the value scales by exactly tau^2
        v2, _ = kd_loss(TokenBatch(gold, [True] * 4, 2 * z_s, teachers=Teachers(2 * z_t)), 2.0)
        assert abs(v2 - 4.0 * v1) < 1e-12 * max(1.0, abs(v1))

    def test_missing_teacher(self):
        with pytest.raises(ValueError):
            kd_loss(TokenBatch([0], [True], np.zeros((1, 3))), 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.5, 2.0))
            b = batch_from(inst, teachers=1)
            value, grad = kd_loss(b, tau)

            def f(z, inst=inst, tau=tau):
                v, _ = kd_loss(
                    TokenBatch(inst["gold"], inst["mask"], z, teachers=Teachers(inst["z_t1"])),
                    tau,
                )
                return v

            check_logit_gradient(f, grad, inst["z_s"])


def hidden_batch(mask):
    """A batch that only carries ``mask``, for the hidden-state match."""
    return TokenBatch([0] * len(mask), mask, np.zeros((len(mask), 2)))


def random_hidden_pair(rng, t=4, d_s=3, d_t=4):
    return HiddenPair(
        student_hidden=rng.standard_normal((t, d_s)) + 0.1,
        teacher_hidden=rng.standard_normal((t, d_t)) + 0.1,
        projection=rng.standard_normal((d_s, d_t)),
    )


class TestInterMatchLoss:
    def test_parallel_projection_is_zero(self):
        # any positive rescaling of the target vanishes after normalization
        rng = np.random.default_rng(2)
        ht = rng.standard_normal((3, 4))
        proj = np.eye(4)
        h = HiddenPair(student_hidden=2.5 * ht, teacher_hidden=ht, projection=proj)
        value, gh, gw = inter_match_loss(hidden_batch([True] * 3), h)
        assert value < 1e-24
        assert np.allclose(gh, 0.0, atol=1e-10)

    def test_orthogonal_unit_vectors(self):
        h = HiddenPair(
            student_hidden=np.array([[1.0, 0.0]]),
            teacher_hidden=np.array([[0.0, 1.0]]),
            projection=np.eye(2),
        )
        value, _, _ = inter_match_loss(hidden_batch([True]), h)
        assert abs(value - 2.0) < 1e-12

    def test_zero_norm_error(self):
        h = HiddenPair(
            student_hidden=np.zeros((1, 2)),
            teacher_hidden=np.ones((1, 2)),
            projection=np.eye(2),
        )
        with pytest.raises(ValueError):
            inter_match_loss(hidden_batch([True]), h)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = random_hidden_pair(rng)
            mask = np.array([True, True, False, True])
            value, gh, gw = inter_match_loss(hidden_batch(mask), h)

            def f_hidden(x, h=h, mask=mask):
                v, _, _ = inter_match_loss(
                    hidden_batch(mask), HiddenPair(x, h.teacher_hidden, h.projection)
                )
                return v

            def f_proj(w, h=h, mask=mask):
                v, _, _ = inter_match_loss(
                    hidden_batch(mask), HiddenPair(h.student_hidden, h.teacher_hidden, w)
                )
                return v

            assert max_rel_err(gh, central_diff(f_hidden, h.student_hidden)) <= 1e-5
            assert max_rel_err(gw, central_diff(f_proj, h.projection)) <= 1e-5


class TestStandardTotal:
    def test_degenerate_weights_equal_ce(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        b = batch_from(inst, teachers=1)
        value, grads = standard_total(b, None, LossWeights(alpha_kd=0.0), 1.0)
        ce_v, ce_g = ce_loss(b)
        assert value == ce_v
        assert np.array_equal(grads.logits, ce_g)

    def test_recombination(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, vocab=6, seq_len=4)
        b = batch_from(inst, teachers=1)
        h = random_hidden_pair(rng, t=4)
        w = LossWeights(alpha_kd=0.01, alpha_inter=0.1)
        tau = 0.8
        total, grads = standard_total(b, h, w, tau)
        ce_v, _ = ce_loss(b)
        kd_v, _ = kd_loss(b, tau)
        iv, _, _ = inter_match_loss(b, h)
        assert abs(total - (0.89 * ce_v + 0.01 * kd_v + 0.1 * iv)) < 1e-12

    def test_gradient_full_objective(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            inst = random_instance(rng, seq_len=4)
            t = 4
            h = random_hidden_pair(rng, t=t)
            w = LossWeights(alpha_kd=0.3, alpha_inter=0.2)
            b = batch_from(inst, teachers=1)
            value, grads = standard_total(b, h, w, 0.8)

            def f(z, inst=inst, h=h, w=w):
                v, _ = standard_total(
                    TokenBatch(inst["gold"], inst["mask"], z, teachers=Teachers(inst["z_t1"])),
                    h, w, 0.8,
                )
                return v

            check_logit_gradient(f, grads.logits, inst["z_s"])


class TestEwadLoss:
    def test_identical_sharp_teachers_route_to_kd(self):
        # teachers and student share sharp gold-peaked logits: KD terms vanish,
        # the gate sits at sigmoid(2.5), the rest is gated-down CE. Peaks stay
        # mild enough that no softmax entry drops below the KL q-floor.
        gold = np.array([1, 2, 0])
        z = np.zeros((3, 4))
        z[np.arange(3), gold] = 20.0
        b = TokenBatch(gold, [True] * 3, z, teachers=Teachers(z.copy(), z.copy()))
        value, _, trace = ewad_loss(b, RCFG, 1.0)
        ce_v, _ = ce_loss(b)
        assert np.allclose(trace.kd_term, 0.0, atol=1e-15)
        assert np.allclose(trace.gate, SIG_25, atol=1e-9)
        assert abs(value - (1.0 - SIG_25) * ce_v) < 1e-12

    def test_disagreeing_teachers_route_to_ce(self):
        gold = np.array([1, 2])
        z_s = np.random.default_rng(5).standard_normal((2, 4))
        z1 = np.zeros((2, 4))
        z1[:, 1] = 40.0
        z2 = np.zeros((2, 4))
        z2[:, 2] = 40.0
        b = TokenBatch(gold, [True] * 2, z_s, teachers=Teachers(z1, z2))
        value, _, trace = ewad_loss(b, RCFG, 1.0)
        assert np.allclose(trace.gate, SIG_M25, atol=1e-6)
        mix = trace.gate * trace.kd_term + (1 - trace.gate) * trace.ce_term
        assert abs(value - mix.mean()) < 1e-12

    def test_missing_second_teacher(self):
        with pytest.raises(ValueError):
            ewad_loss(TokenBatch([0], [True], np.zeros((1, 3)),
                                 teachers=Teachers(np.zeros((1, 3)))), RCFG, 1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            inst = random_instance(rng, vocab=8, seq_len=5)
            tau = float(rng.uniform(0.5, 2.0))
            b = batch_from(inst, teachers=2)
            value, _, _ = ewad_loss(b, RCFG, tau)
            expected = ewad_forward_scalar(
                inst["gold"], inst["mask"], inst["z_s"], inst["z_t1"], inst["z_t2"],
                tau=tau,
            )
            assert abs(value - expected) < 1e-10

    def test_forced_gate_limits(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, vocab=6, seq_len=5)
        b = batch_from(inst, teachers=2)
        tau = 1.3

        v_kd, _, tr = ewad_loss(b, ReliabilityConfig(lambda_override=1.0), tau)
        assert abs(v_kd - tr.kd_term.mean()) < 1e-12

        v_ce, _, _ = ewad_loss(b, ReliabilityConfig(lambda_override=0.0), tau)
        ce_v, _ = ce_loss(b)
        assert abs(v_ce - ce_v) < 1e-14

    def test_equal_weights_override(self):
        rng = np.random.default_rng(16)
        inst = random_instance(rng)
        b = batch_from(inst, teachers=2)
        _, _, tr = ewad_loss(b, ReliabilityConfig(equal_teacher_weights=True), 1.0)
        assert np.all(tr.w1 == 0.5) and np.all(tr.w2 == 0.5)

    def test_gradient(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.5, 2.0))
            b = batch_from(inst, teachers=2)
            value, grad, _ = ewad_loss(b, RCFG, tau)

            def f(z, inst=inst, tau=tau):
                v, _, _ = ewad_loss(
                    TokenBatch(inst["gold"], inst["mask"], z,
                               teachers=Teachers(inst["z_t1"], inst["z_t2"])),
                    RCFG, tau,
                )
                return v

            check_logit_gradient(f, grad, inst["z_s"])

    def test_gradient_with_arm_overrides(self):
        rng = np.random.default_rng(24)
        for lam, eq in ((1.0, True), (0.7, False), (None, True)):
            inst = random_instance(rng)
            b = batch_from(inst, teachers=2)
            rcfg = ReliabilityConfig(lambda_override=lam, equal_teacher_weights=eq)
            _, grad, _ = ewad_loss(b, rcfg, 1.2)

            def f(z, inst=inst, rcfg=rcfg):
                v, _, _ = ewad_loss(
                    TokenBatch(inst["gold"], inst["mask"], z,
                               teachers=Teachers(inst["z_t1"], inst["z_t2"])),
                    rcfg, 1.2,
                )
                return v

            check_logit_gradient(f, grad, inst["z_s"])


class TestCpdpLoss:
    def test_symmetric_teachers_zero(self):
        rng = np.random.default_rng(6)
        z_t = rng.standard_normal((4, 5))
        b = TokenBatch(rng.integers(0, 5, 4), [True] * 4, rng.standard_normal((4, 5)),
                       teachers=Teachers(z_t, z_t.copy()))
        value, grad, _ = cpdp_loss(b, CpdpAnchor(0.0), LossWeights())
        assert value == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            inst = random_instance(rng, vocab=8, seq_len=3)
            delta = float(rng.uniform(-1.0, 1.0))
            b = batch_from(inst, teachers=2)
            value, _, _ = cpdp_loss(b, CpdpAnchor(delta), LossWeights())
            expected = cpdp_forward_scalar(
                inst["mask"], inst["z_s"], inst["z_t1"], inst["z_t2"], delta
            )
            assert abs(value - expected) < 1e-12

    def test_gradient_with_frozen_entropy(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            inst = random_instance(rng)
            delta = float(rng.uniform(-0.5, 0.5))
            b = batch_from(inst, teachers=2)
            value, grad, trace = cpdp_loss(b, CpdpAnchor(delta), LossWeights())

            frozen = np.zeros(len(inst["gold"]))
            frozen[b.positions] = trace.student_entropy

            def f(z, inst=inst, delta=delta, frozen=frozen):
                return cpdp_forward_scalar(
                    inst["mask"], z, inst["z_t1"], inst["z_t2"], delta,
                    frozen_entropy=frozen,
                )

            check_logit_gradient(f, grad, inst["z_s"])

    def test_entropy_never_reaches_gradient(self):
        # moving the student toward uniform (raising H) must not introduce an
        # entropy pathway: the analytic gradient matches the frozen-H oracle
        # even though the forward value depends on H
        rng = np.random.default_rng(20)
        inst = random_instance(rng, vocab=6, seq_len=4)
        inst["z_s"] = 0.2 * inst["z_s"]  # high-entropy student
        b = batch_from(inst, teachers=2)
        value, grad, trace = cpdp_loss(b, CpdpAnchor(0.1), LossWeights())
        frozen = np.zeros(len(inst["gold"]))
        frozen[b.positions] = trace.student_entropy

        def f_frozen(z):
            return cpdp_forward_scalar(
                inst["mask"], z, inst["z_t1"], inst["z_t2"], 0.1, frozen_entropy=frozen
            )

        assert max_rel_err(grad, central_diff(f_frozen, inst["z_s"])) <= 1e-5

    def test_clamp_activation_is_exact(self):
        # near-deterministic student: entropy floors, the ratio explodes, and
        # each token contributes exactly the clamp value with zero gradient
        gold = np.array([0, 1])
        z_s = np.zeros((2, 4))
        z_s[:, 0] = 200.0
        z1 = np.zeros((2, 4))
        z1[:, 1] = 5.0
        z2 = np.zeros((2, 4))
        z2[:, 2] = 3.0
        b = TokenBatch(gold, [True] * 2, z_s, teachers=Teachers(z1, z2))
        value, grad, trace = cpdp_loss(b, CpdpAnchor(0.0), LossWeights())
        assert np.all(trace.clamped)
        assert np.all(trace.entropy_floored)
        assert np.all(trace.value == 100.0)
        assert value == 100.0
        assert np.all(grad == 0.0)

    def test_missing_teachers(self):
        with pytest.raises(ValueError):
            cpdp_loss(TokenBatch([0], [True], np.zeros((1, 3))),
                      CpdpAnchor(0.0), LossWeights())


class TestComputeAnchor:
    def test_identical_teachers(self):
        p = np.full((5, 4), 0.25)
        assert compute_anchor(p, p).delta_star == 0.0

    def test_single_pair_matches_kl(self):
        p = np.array([[0.7, 0.2, 0.1]])
        q = np.array([[0.1, 0.2, 0.7]])
        assert abs(compute_anchor(p, q).delta_star - kl(p[0], q[0])) < 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(5), size=40)
        q = rng.dirichlet(np.ones(5), size=40)
        perm = rng.permutation(40)
        a = compute_anchor(p, q).delta_star
        b = compute_anchor(p[perm], q[perm]).delta_star
        assert abs(a - b) < 1e-12

    def test_empty_set(self):
        with pytest.raises(ValueError):
            compute_anchor(np.zeros((0, 4)), np.zeros((0, 4)))


class TestEwadCpdpStep:
    """The EWAD_CPDP mode step, the one place EWAD and CPDP are combined."""

    @pytest.mark.parametrize("overrides", [{}, {"lambda_override": 0.7},
                                           {"equal_teacher_weights": True}])
    def test_is_ewad_plus_mu_cpdp_bit_for_bit(self, overrides):
        rng = np.random.default_rng(22)
        for _ in range(10):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.5, 2.0))
            anchor = CpdpAnchor(float(rng.uniform(-0.5, 0.5)))
            w = LossWeights(mu=float(rng.uniform(0.01, 0.2)))
            b = batch_from(inst, teachers=2)
            value, grad, etr, ctr = ewad_cpdp_step(b, anchor, w, tau, **overrides)
            v_e, g_e, etr_e = ewad_loss(b, ReliabilityConfig(**overrides), tau)
            v_p, g_p, ctr_p = cpdp_loss(b, anchor, w)
            assert value == v_e + w.mu * v_p
            assert np.array_equal(grad, g_e + w.mu * g_p)
            assert np.array_equal(etr.gate, etr_e.gate) and np.array_equal(etr.w1, etr_e.w1)
            assert np.array_equal(ctr.value, ctr_p.value)

    def test_mu_zero_equals_ewad(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng)
        b = batch_from(inst, teachers=2)
        w = LossWeights(mu=0.0)
        v_c, g_c, _, _ = ewad_cpdp_step(b, CpdpAnchor(0.3), w, 1.0)
        v_e, g_e, _ = ewad_loss(b, RCFG, 1.0)
        assert v_c == v_e
        assert np.array_equal(g_c, g_e)

    def test_recombination(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng)
        b = batch_from(inst, teachers=2)
        w = LossWeights(mu=0.05)
        anchor = CpdpAnchor(0.2)
        v_c, _, _, _ = ewad_cpdp_step(b, anchor, w, 1.1)
        v_e, _, _ = ewad_loss(b, RCFG, 1.1)
        v_p, _, _ = cpdp_loss(b, anchor, w)
        assert abs(v_c - (v_e + 0.05 * v_p)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.5, 2.0))
            anchor = CpdpAnchor(float(rng.uniform(-0.5, 0.5)))
            w = LossWeights(mu=0.05)
            b = batch_from(inst, teachers=2)
            value, grad, _, ctr = ewad_cpdp_step(b, anchor, w, tau)

            frozen = np.zeros(len(inst["gold"]))
            frozen[b.positions] = ctr.student_entropy

            def f(z, inst=inst, tau=tau, anchor=anchor, frozen=frozen):
                e = ewad_forward_scalar(
                    inst["gold"], inst["mask"], z, inst["z_t1"], inst["z_t2"], tau=tau
                )
                c = cpdp_forward_scalar(
                    inst["mask"], z, inst["z_t1"], inst["z_t2"], anchor.delta_star,
                    frozen_entropy=frozen,
                )
                return e + 0.05 * c

            check_logit_gradient(f, grad, inst["z_s"])


class TestAdaptiveTau:
    CFG = AdaptiveTauConfig()

    def test_midpoint(self):
        p = np.full((3, 4), 0.25)
        h = float(entropy(p[0]))
        tau = tau_from_entropy(entropy(p).mean(), h, self.CFG)
        assert abs(tau - 1.25) < 1e-9

    def test_saturation_toward_max(self):
        p = np.full((2, 4), 0.25)
        tau = tau_from_entropy(entropy(p).mean(), -1e4, self.CFG)
        assert tau < 2.0
        assert abs(tau - 2.0) < 1e-9

    def test_strictly_inside_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = softmax_t(3.0 * rng.standard_normal((4, 6)), 1.0)
            hb = float(rng.uniform(-50.0, 50.0))
            tau = tau_from_entropy(entropy(p).mean(), hb, self.CFG)
            assert 0.5 < tau < 2.0

    def test_per_sample_scalar_oracle(self):
        rng = np.random.default_rng(23)
        samples = [softmax_t(2.0 * rng.standard_normal((5, 6)), 1.0) for _ in range(4)]
        masks = [rng.random(5) < 0.8 for _ in samples]
        for m in masks:
            m[0] = True
        h_bars = [
            sum(entropy_scalar(s[t]) for t in range(5) if m[t]) / int(m.sum())
            for s, m in zip(samples, masks)
        ]
        h_batch = sum(h_bars) / len(h_bars)
        for s, m, hb in zip(samples, masks, h_bars):
            expected = 0.5 + 1.5 * sigmoid_scalar(hb - h_batch)
            got = tau_from_entropy(entropy(s[m]).mean(), h_batch, self.CFG)
            assert abs(got - expected) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTauConfig(tau_min=2.0, tau_max=0.5)
