import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkd.distmath import (
    KL_Q_FLOOR,
    check_prob_dist,
    entropy,
    jsd,
    kl,
    log_softmax_scaled,
    log_softmax_t,
    softmax_scaled,
    softmax_t,
)

from oracles import (
    entropy_where,
    jsd_scalar,
    kl_scalar,
    kl_where,
    log_softmax_scaled_where,
    softmax_scalar,
    softmax_scaled_where,
)


def random_dist(rng, v):
    p = rng.random(v) + 1e-3
    return p / p.sum()


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_t(np.array([0.0, 0.0]), 1.0), [0.5, 0.5], atol=0)

    def test_high_temperature_limit(self):
        p = softmax_t(np.array([1.0, 0.0]), 1e6)
        assert abs(p[0] - 0.5) < 1e-6
        assert abs(p[1] - 0.5) < 1e-6

    def test_against_scalar_oracle(self):
        # independently computed by direct exp/normalize
        expected = softmax_scalar([2.0, 0.0, 0.0], 0.8)
        assert np.allclose(expected, [0.8589810786775899, 0.07050946066120507,
                                      0.07050946066120507], rtol=1e-15)
        got = softmax_t(np.array([2.0, 0.0, 0.0]), 0.8)
        assert np.allclose(got, expected, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_t(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            softmax_t(np.array([np.nan, 0.0]), 1.0)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax_t(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            softmax_t(np.array([1.0, 0.0]), -1.0)

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = 5.0 * rng.standard_normal(6)
            tau = float(rng.uniform(0.3, 3.0))
            assert np.allclose(np.exp(log_softmax_t(z, tau)), softmax_t(z, tau),
                               atol=1e-14)


class TestEntropy:
    def test_one_hot(self):
        assert entropy(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0

    def test_uniform(self):
        assert abs(entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12

    def test_derived_example(self):
        # frozen from the direct-summation oracle
        assert abs(entropy(np.array([0.97, 0.01, 0.01, 0.01])) - 0.16770053683981007) < 1e-12


class TestKl:
    def test_identical(self):
        p = np.full(4, 0.25)
        assert kl(p, p) == 0.0

    def test_hand_check(self):
        assert abs(kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl(np.full(3, 1 / 3), np.full(4, 0.25))

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_dist(rng, 8)
            q = random_dist(rng, 8)
            assert abs(kl(p, q) - kl_scalar(p, q)) < 1e-12


class TestJsd:
    def test_identical(self):
        p = np.array([0.2, 0.3, 0.5])
        assert jsd(p, p) == 0.0

    def test_disjoint_one_hots(self):
        assert abs(jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) - math.log(2)) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_dist(rng, 8)
            q = random_dist(rng, 8)
            assert abs(jsd(p, q) - jsd(q, p)) < 1e-12
            assert abs(jsd(p, q) - jsd_scalar(p, q)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jsd(np.full(3, 1 / 3), np.full(4, 0.25))


class TestInvariants:
    def test_softmax_normalization_and_shift(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            z = 10.0 * rng.standard_normal(v)
            tau = float(rng.uniform(0.1, 5.0))
            p = softmax_t(z, tau)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= 0)
            shifted = softmax_t(z + float(rng.uniform(-50, 50)), tau)
            assert np.allclose(p, shifted, atol=1e-12)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            p = random_dist(rng, v)
            h = entropy(p)
            assert -1e-12 <= h <= math.log(v) + 1e-12

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            p = random_dist(rng, v)
            q = random_dist(rng, v)
            assert kl(p, q) >= 0.0
            assert kl(p, p) == 0.0

    def test_jsd_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            v = int(rng.integers(2, 12))
            p = random_dist(rng, v)
            q = random_dist(rng, v)
            d = jsd(p, q)
            assert -1e-12 <= d <= math.log(2) + 1e-12


# (V,) vectors and (T, V) batches as the losses, the reliability signals and
# the CPDP anchor pass them, and a vector against a batch
SHAPES = [((2,), (2,)), ((8,), (8,)), ((64,), (64,)), ((1, 5), (1, 5)), ((7, 3), (7, 3)),
          ((32, 64), (32, 64)), ((5, 6), (6,)), ((6,), (5, 6))]


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def dist_pairs(draw):
    """p and q of the drawn shapes: rows normalized, with exact zeros in p at
    the drawn rate (whole rows of them too), and q holding values below
    KL_Q_FLOOR, zero and subnormals included."""
    p_shape, q_shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(p_shape) ** draw(st.sampled_from([1.0, 8.0]))
    p[rng.random(p_shape) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))] = 0.0
    p = p / np.maximum(p.sum(axis=-1, keepdims=True), 1e-300)
    q = rng.random(q_shape)
    q = q / q.sum(axis=-1, keepdims=True)
    tiny = rng.random(q_shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    q[tiny] = rng.choice([0.0, 5e-324, 1e-300, 1e-15, KL_Q_FLOOR / 2], tiny.sum())
    return p, q


class TestInPlaceFormsKeepTheBits:
    """kl, entropy and the scaled softmaxes work in place, and give the bytes
    their np.where forms gave, signs of zeros included."""

    @settings(max_examples=300)
    @given(dist_pairs())
    def test_kl_entropy_and_jsd(self, pair):
        p, q = pair
        assert same_bits(kl(p, q), kl_where(p, q))
        assert same_bits(kl(q, p), kl_where(q, p))
        assert same_bits(entropy(p), entropy_where(p))
        assert same_bits(entropy(q), entropy_where(q))
        m = 0.5 * (p + q)
        assert same_bits(jsd(p, q), 0.5 * kl_where(p, m) + 0.5 * kl_where(q, m))

    @pytest.mark.parametrize("p", [[1.0, 0.0, 0.0], [0.0, 0.0], [-0.0, 1.0], [0.5, -0.5],
                                   [np.nan, 1.0], [np.inf, 0.0]])
    def test_off_support_terms_are_exactly_zero(self, p):
        q = np.array([0.25, 0.75, 0.0][:len(p)])
        assert same_bits(kl(p, q), kl_where(p, q))
        assert same_bits(entropy(p), entropy_where(p))

    @settings(max_examples=200)
    @given(shape=st.sampled_from([s for s, _ in SHAPES]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.1, 1.0, 30.0, 700.0]), rounded=st.booleans())
    def test_scaled_softmaxes(self, shape, seed, scale, rounded):
        x = scale * np.random.default_rng(seed).standard_normal(shape)
        if rounded:  # exact ties, and rows whose max is repeated
            x = np.round(x / scale)
        before = x.copy()
        assert same_bits(softmax_scaled(x), softmax_scaled_where(x))
        assert same_bits(log_softmax_scaled(x), log_softmax_scaled_where(x))
        assert same_bits(x, before)


class TestCheckProbDist:
    def test_accepts_valid(self):
        check_prob_dist(np.array([0.5, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_prob_dist(np.array([1.1, -0.1]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            check_prob_dist(np.array([0.5, 0.6]))

    def test_rejects_small_vocab(self):
        with pytest.raises(ValueError):
            check_prob_dist(np.array([1.0]))
