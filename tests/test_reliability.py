import math

import numpy as np
import pytest

from relkd.distmath import jsd
from relkd.losses import Teachers
from relkd.reliability import (
    ReliabilityConfig,
    agreement,
    confidence,
    confidence_weights,
    gate,
    token_reliability,
)

CFG = ReliabilityConfig()

SIG_25 = 0.9241418199787566    # sigmoid(2.5), frozen from scalar evaluation
SIG_M25 = 0.07585818002124355  # sigmoid(-2.5)


def random_dist(rng, v):
    p = rng.random(v) + 1e-3
    return p / p.sum()


class TestConfig:
    def test_defaults(self):
        assert CFG.gate_steepness == 5.0
        assert CFG.gate_threshold == 0.5
        assert CFG.weight_temperature == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"gate_steepness": 0.0}, {"gate_threshold": 1.5}, {"weight_temperature": 0.0},
         {"lambda_override": 1.5}, {"lambda_override": -0.1}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ReliabilityConfig(**kwargs)


class TestConfidence:
    def test_uniform(self):
        assert confidence(np.full(4, 0.25)) == 0.0

    def test_one_hot(self):
        assert confidence(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0

    def test_derived_example(self):
        # 1 - 0.16770053683981007 / ln 4, entropy frozen from its oracle
        c = confidence(np.array([0.97, 0.01, 0.01, 0.01]))
        assert abs(c - 0.8790296335733946) < 1e-12


class TestConfidenceWeights:
    def test_symmetric(self):
        assert confidence_weights(0.7, 0.7, CFG) == (0.5, 0.5)

    def test_derived_softmax(self):
        w1, w2 = confidence_weights(0.9, 0.6, CFG)
        assert abs(w1 - 0.574442516811659) < 1e-12
        assert abs(w2 - 0.42555748318834097) < 1e-12

    def test_hard_max_limit(self):
        w1, w2 = confidence_weights(1.0, 0.0, ReliabilityConfig(weight_temperature=1e-6))
        assert w1 > 1.0 - 1e-12
        assert w2 < 1e-12

    def test_sum_to_one_and_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c1, c2 = float(rng.random()), float(rng.random())
            w1, w2 = confidence_weights(c1, c2, CFG)
            assert w1 + w2 == 1.0
            assert (w1 > w2) == (c1 > c2)


class TestAgreement:
    def test_identical(self):
        p = np.array([0.2, 0.5, 0.3])
        assert agreement(p, p) == 1.0

    def test_disjoint(self):
        assert agreement(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_matches_jsd_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_dist(rng, 8)
            q = random_dist(rng, 8)
            expected = 1.0 - jsd(p, q) / math.log(2)
            assert abs(agreement(p, q) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            agreement(np.full(3, 1 / 3), np.full(4, 0.25))


class TestGate:
    def test_at_threshold(self):
        assert gate(0.5, CFG) == 0.5

    def test_full_agreement(self):
        assert abs(gate(1.0, CFG) - SIG_25) < 1e-9

    def test_no_agreement(self):
        assert abs(gate(0.0, CFG) - SIG_M25) < 1e-9

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [gate(float(a), CFG) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_open_interval(self):
        assert 0.0 < gate(0.0, CFG) < 1.0
        assert 0.0 < gate(1.0, CFG) < 1.0
        steep = ReliabilityConfig(gate_steepness=1e6)
        assert 0.0 < gate(1.0, steep) < 1.0


class TestTokenReliability:
    def test_identical_sharp_teachers(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        r = token_reliability(p, p, CFG)
        assert r.c1 == r.c2 == 1.0
        assert r.w1 == r.w2 == 0.5
        assert r.agreement == 1.0
        assert abs(r.gate - SIG_25) < 1e-9

    def test_disjoint_one_hots(self):
        r = token_reliability(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), CFG
        )
        assert r.agreement == 0.0
        assert abs(r.gate - SIG_M25) < 1e-9

    def test_uniform_agreeing_teachers(self):
        # the confident-agreement gate depends only on agreement
        p = np.full(4, 0.25)
        r = token_reliability(p, p, CFG)
        assert r.c1 == r.c2 == 0.0
        assert r.w1 == r.w2 == 0.5
        assert abs(r.gate - SIG_25) < 1e-9

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p1 = random_dist(rng, 6)
            p2 = random_dist(rng, 6)
            r12 = token_reliability(p1, p2, CFG)
            r21 = token_reliability(p2, p1, CFG)
            assert r12.c1 == r21.c2 and r12.c2 == r21.c1
            assert abs(r12.w1 - r21.w2) < 1e-12 and abs(r12.w2 - r21.w1) < 1e-12
            assert abs(r12.agreement - r21.agreement) < 1e-12
            assert abs(r12.gate - r21.gate) < 1e-12

    def test_sharper_first_teacher_never_loses_weight(self):
        # interpolating p1 toward one-hot lowers entropy, never lowers w1
        rng = np.random.default_rng(3)
        for _ in range(50):
            p2 = random_dist(rng, 6)
            base = random_dist(rng, 6)
            peak = np.zeros(6)
            peak[int(np.argmax(base))] = 1.0
            last_w1 = -1.0
            for lam in np.linspace(0.0, 0.999, 8):
                p1 = (1 - lam) * base + lam * peak
                p1 = p1 / p1.sum()
                w1 = token_reliability(p1, p2, CFG).w1
                assert w1 >= last_w1 - 1e-12
                last_w1 = w1

    def test_bounds_10k_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            v = int(rng.integers(2, 10))
            r = token_reliability(random_dist(rng, v), random_dist(rng, v), CFG)
            assert 0.0 <= r.c1 <= 1.0 and 0.0 <= r.c2 <= 1.0
            assert 0.0 <= r.w1 <= 1.0 and abs(r.w1 + r.w2 - 1.0) <= 1e-12
            assert 0.0 <= r.agreement <= 1.0
            assert 0.0 < r.gate < 1.0


class TestPins:
    """The ablation arms' pins: token_reliability fixes the weights and the
    gate exactly, and leaves confidence and agreement as they are."""

    PINS = [{"lambda_override": 0.7}, {"equal_teacher_weights": True},
            {"lambda_override": 0.0, "equal_teacher_weights": True}]

    @pytest.mark.parametrize("pins", PINS)
    def test_pinned_values_at_every_position(self, pins):
        rng = np.random.default_rng(11)
        p1, p2 = rng.dirichlet(np.ones(7), size=(2, 40))
        free = token_reliability(p1, p2, CFG)
        r = token_reliability(p1, p2, ReliabilityConfig(**pins))
        for name in ("c1", "c2", "agreement"):
            assert np.array_equal(getattr(r, name), getattr(free, name)), name
        lam = pins.get("lambda_override")
        assert np.all(r.gate == lam) if lam is not None else np.array_equal(r.gate, free.gate)
        if pins.get("equal_teacher_weights"):
            assert np.all(r.w1 == 0.5) and np.all(r.w2 == 0.5)
        else:
            assert np.array_equal(r.w1, free.w1) and np.array_equal(r.w2, free.w2)
        assert r.gate.shape == r.w1.shape == (40,)

    def test_one_position_gives_floats(self):
        pins = ReliabilityConfig(lambda_override=0.25, equal_teacher_weights=True)
        r = token_reliability(np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.1, 0.8]), pins)
        assert (r.w1, r.w2, r.gate) == (0.5, 0.5, 0.25)
        assert all(type(x) is float for x in (r.w1, r.w2, r.gate))

    def test_teachers_memo_tells_the_pins_apart(self):
        rng = np.random.default_rng(12)
        teachers = Teachers(rng.standard_normal((9, 5)), rng.standard_normal((9, 5)))
        free = teachers.reliability(CFG)
        for pins in self.PINS:
            r = teachers.reliability(ReliabilityConfig(**pins))
            assert not (np.array_equal(r.gate, free.gate) and np.array_equal(r.w1, free.w1))
        view = teachers.take([4, 1])
        assert np.array_equal(view.reliability(CFG).gate, free.gate[[4, 1]])
        assert teachers.reliability(ReliabilityConfig(lambda_override=0.7)).gate[0] == 0.7


class TestBatches:
    """A (T, V) batch of positions gives, bit for bit, the per-row values,
    and is validated row by row like a single distribution."""

    @staticmethod
    def batch(rng, t, v):
        p = np.array([random_dist(rng, v) for _ in range(t)])
        p[0] = 1.0 / v                    # uniform: confidence clipped at 0
        p[1] = np.eye(v)[int(rng.integers(v))]  # one-hot: confidence 1
        return p

    @pytest.mark.parametrize("v", [2, 5, 64])
    def test_rows_equal_per_row_calls(self, v):
        rng = np.random.default_rng(v)
        p1, p2 = self.batch(rng, 500, v), self.batch(rng, 500, v)
        p2[2] = p1[2]                     # identical teachers: agreement 1
        c1, c2 = confidence(p1), confidence(p2)
        assert c1.shape == (500,) and isinstance(confidence(p1[3]), float)
        assert np.array_equal(c1, [confidence(row) for row in p1])
        w1, w2 = confidence_weights(c1, c2, CFG)
        rows = [confidence_weights(float(a), float(b), CFG) for a, b in zip(c1, c2)]
        assert np.array_equal(np.stack([w1, w2], axis=1), rows)
        a = agreement(p1, p2)
        assert np.array_equal(a, [agreement(r1, r2) for r1, r2 in zip(p1, p2)])
        assert np.array_equal(gate(a, CFG), [gate(float(x), CFG) for x in a])
        assert c1[0] == 0.0 and c1[1] == 1.0 and a[2] == 1.0

    @pytest.mark.parametrize("fault, message", [("negative", "must be non-negative"),
                                                ("not_normalized", "must sum to 1")])
    def test_one_invalid_row_is_rejected(self, fault, message):
        rng = np.random.default_rng(5)
        p, q = self.batch(rng, 50, 6), self.batch(rng, 50, 6)
        bad = p.copy()
        if fault == "negative":
            bad[17, :2] = [-0.1, bad[17, 0] + bad[17, 1] + 0.1]
        else:
            bad[17] *= 1.01
        with pytest.raises(ValueError, match=f"p: entries {message}"):
            confidence(bad)
        with pytest.raises(ValueError, match=f"p1: entries {message}"):
            agreement(bad, q)
        with pytest.raises(ValueError, match=f"p2: entries {message}"):
            agreement(q, bad)
        confidence(p)
        agreement(p, q)
