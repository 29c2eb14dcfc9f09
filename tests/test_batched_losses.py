"""One loss call per batch: over the flattened positions of B ragged
sequences, each masked position weighted 1/m_j, every loss, gradient and
logged component must equal the sum of the per-sequence calls (the batch
objective divides both by B), with a scalar or a per-position temperature."""

import numpy as np
import pytest

from relkd.distmath import entropy
from relkd.losses import (
    CpdpAnchor,
    HiddenPair,
    LossWeights,
    Teachers,
    TokenBatch,
    adaptive_tau,
    ce_loss,
    cpdp_loss,
    ewad_loss,
    inter_match_loss,
    kd_loss,
    standard_total,
)
from relkd.reliability import ReliabilityConfig
from relkd.teachercache import MixingConfig, TopKRecord, index_topk
from relkd.toymodel import EOS_ID
from relkd.training import (
    Corpus,
    CorpusExample,
    SupervisionBundle,
    TrainConfig,
    prepare_supervision,
    train,
)
import relkd.training as training

from test_training import ewad_cpdp_step, teacher_and_bundle, tiny_corpus

TOL = 1e-12
RCFG = ReliabilityConfig()
V, D_S, D_T = 7, 3, 4


class Ragged:
    """B sequences of different lengths with some positions masked out, as
    single sequences and as one flattened batch over the same positions."""

    def __init__(self, seed, lengths=(4, 1, 6, 3)):
        rng = np.random.default_rng(seed)
        self.seqs = []
        for t in lengths:
            mask = rng.random(t) < 0.7
            mask[rng.integers(t)] = True
            self.seqs.append({
                "gold": rng.integers(0, V, t), "mask": mask,
                "z_s": 2.0 * rng.standard_normal((t, V)),
                "z_t1": 2.0 * rng.standard_normal((t, V)),
                "z_t2": 2.0 * rng.standard_normal((t, V)),
                "hs": rng.standard_normal((t, D_S)) + 0.1,
                "ht": rng.standard_normal((t, D_T)) + 0.1,
                "tau": float(rng.uniform(0.5, 2.0)),
            })
        self.proj = rng.standard_normal((D_S, D_T))
        self.bounds = np.cumsum([0, *lengths])
        cat = {k: np.concatenate([s[k] for s in self.seqs]) for k in self.seqs[0] if k != "tau"}
        self.cat = cat
        self.sequence = np.repeat(np.arange(len(lengths)), lengths)
        self.tau = np.concatenate([np.full(len(s["mask"]), s["tau"]) for s in self.seqs])
        # teachers live in a larger, shuffled table and reach the batch by take()
        n = len(cat["gold"])
        perm = rng.permutation(n + 5)
        t1 = rng.standard_normal((n + 5, V))
        t2 = rng.standard_normal((n + 5, V))
        t1[perm[:n]] = cat["z_t1"]
        t2[perm[:n]] = cat["z_t2"]
        self.table, self.rows = Teachers(t1, t2), perm[:n]

    def single(self, j):
        s = self.seqs[j]
        return TokenBatch(s["gold"], s["mask"], s["z_s"],
                          teacher1_logits=s["z_t1"], teacher2_logits=s["z_t2"])

    def batch(self):
        c = self.cat
        return TokenBatch(c["gold"], c["mask"], c["z_s"], sequence=self.sequence,
                          teachers=self.table.take(self.rows))

    def hidden(self, j=None):
        src = self.cat if j is None else self.seqs[j]
        return HiddenPair(src["hs"], src["ht"], self.proj)

    def check(self, batch_out, single_out, exact_rows=True):
        """batch_out: the batch's value, then gradients and components;
        single_out(j): the same for sequence j. Per-position gradients are
        compared block by block (bit for bit with ``exact_rows``: the batch
        does each row's arithmetic as the single call does), everything else
        with the sum."""
        singles = [single_out(j) for j in range(len(self.seqs))]
        value = sum(s[0] for s in singles)
        assert abs(batch_out[0] - value) <= TOL * max(1.0, abs(value))
        for k, g in enumerate(batch_out[1:], start=1):
            if np.ndim(g) and g.shape[0] == self.bounds[-1]:
                expected = np.concatenate([s[k] for s in singles])
                if exact_rows:
                    assert np.array_equal(g, expected), k
            else:
                expected = sum(s[k] for s in singles)
            assert np.abs(g - expected).max() <= TOL * max(1.0, np.abs(expected).max()), k


SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
def test_ce(seed):
    r = Ragged(seed)
    r.check(ce_loss(r.batch()), lambda j: ce_loss(r.single(j)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("per_position", [False, True])
def test_kd(seed, per_position):
    r = Ragged(seed)
    tau = r.tau if per_position else 0.8
    r.check(kd_loss(r.batch(), tau),
            lambda j: kd_loss(r.single(j), r.seqs[j]["tau"] if per_position else 0.8))


@pytest.mark.parametrize("seed", SEEDS)
def test_inter_match(seed):
    r = Ragged(seed)
    lengths = r.batch().seq_lengths
    r.check(inter_match_loss(r.hidden(), r.cat["mask"], lengths),
            lambda j: inter_match_loss(r.hidden(j), r.seqs[j]["mask"]), exact_rows=False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("per_position", [False, True])
def test_standard_total(seed, per_position):
    r = Ragged(seed)
    w = LossWeights(alpha_kd=0.3, alpha_inter=0.2)

    def out(batch, h, tau):
        value, g = standard_total(batch, h, w, tau)
        return value, g.logits, g.hidden, g.projection, *g.components.values()

    tau = r.tau if per_position else 0.8
    r.check(out(r.batch(), r.hidden(), tau),
            lambda j: out(r.single(j), r.hidden(j), r.seqs[j]["tau"] if per_position else 0.8),
            exact_rows=False)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("per_position", [False, True])
@pytest.mark.parametrize("lam, eq", [(None, False), (0.7, False), (None, True)])
def test_ewad(seed, per_position, lam, eq):
    r = Ragged(seed)
    kw = {"lambda_override": lam, "equal_weights": eq}

    def out(batch, tau):
        value, grad, tr = ewad_loss(batch, RCFG, tau, **kw)
        return value, grad, batch.aggregate(tr.kd_term), batch.aggregate(tr.ce_term)

    tau = r.tau if per_position else 1.3
    r.check(out(r.batch(), tau),
            lambda j: out(r.single(j), r.seqs[j]["tau"] if per_position else 1.3))


@pytest.mark.parametrize("seed", SEEDS)
def test_cpdp_and_combined(seed):
    r = Ragged(seed)
    anchor, w = CpdpAnchor(0.2), LossWeights(mu=0.05)
    r.check(cpdp_loss(r.batch(), anchor, w)[:2], lambda j: cpdp_loss(r.single(j), anchor, w)[:2])
    r.check(ewad_cpdp_step(r.batch(), anchor, w, 0.9)[:2],
            lambda j: ewad_cpdp_step(r.single(j), anchor, w, 0.9)[:2])


def test_traces_concatenate_the_per_sequence_traces():
    r = Ragged(11)
    _, _, etr, ctr = ewad_cpdp_step(r.batch(), CpdpAnchor(0.2), LossWeights(), 1.1)
    singles = [ewad_cpdp_step(r.single(j), CpdpAnchor(0.2), LossWeights(), 1.1)
               for j in range(len(r.seqs))]
    for name in ("c1", "c2", "w1", "w2", "agreement", "gate", "kd_term", "ce_term"):
        expected = np.concatenate([getattr(s[2], name) for s in singles])
        assert np.allclose(getattr(etr, name), expected, rtol=0, atol=TOL), name
    for name in ("value", "clamped", "entropy_floored"):
        expected = np.concatenate([getattr(s[3], name) for s in singles])
        assert np.allclose(getattr(ctr, name), expected, rtol=0, atol=TOL), name


def test_teacher_quantities_are_computed_once_over_the_table():
    r = Ragged(3)
    for _ in range(2):
        ewad_loss(r.batch(), RCFG, 0.8)
    # the table holds the logits, both softmaxes at 1 and at 0.8 and one
    # reliability stack; each batch view only gathered them
    assert sorted(k[0] for k in r.table._memo) == ["logits", "logits", "probs", "probs",
                                                    "probs", "probs", "reliability"]


def test_per_position_temperature_is_validated():
    r = Ragged(0)
    with pytest.raises(ValueError, match="temperatures"):
        kd_loss(r.batch(), r.tau[:-1])
    with pytest.raises(ValueError, match="temperatures"):
        kd_loss(r.batch(), -r.tau)


@pytest.mark.parametrize("mode", ["A4", "A5"])
def test_training_tau_equals_adaptive_tau_per_sequence(monkeypatch, mode):
    corpus = tiny_corpus(n=20)
    bundle = teacher_and_bundle(corpus, pseudo=True)
    calls = []
    real = training.standard_total

    def record(tb, h, w, tau):
        calls.append((tb, tau))
        return real(tb, h, w, tau)

    monkeypatch.setattr(training, "standard_total", record)
    cfg = TrainConfig(loss_mode=mode, epochs=2, seed=1, hidden_dim=4, batch_size=6,
                      weights=LossWeights(alpha_kd=0.01, alpha_inter=0.1 if mode == "A5" else 0.0),
                      mixing=MixingConfig(p_pseudo=0.3, rng_seed=5))
    train(cfg, corpus, bundle)
    assert len(calls) == 2 * 4
    for tb, tau in calls:
        # every target ends in EOS, and EOS appears nowhere else in it
        ends = np.flatnonzero(tb.gold_ids == EOS_ID) + 1
        seqs = np.split(np.arange(tb.gold_ids.size), ends[:-1])
        z = tb.teachers.logits(1)
        dists = [np.exp(z[s]) / np.exp(z[s]).sum(axis=1, keepdims=True) for s in seqs]
        h_batch = np.mean([np.mean(entropy(d)) for d in dists])
        for s, d in zip(seqs, dists):
            expected = adaptive_tau(d, [True] * len(s), h_batch, cfg.adaptive_tau_cfg)
            assert np.all(np.abs(tau[s] - expected) <= TOL)
            assert np.all(tb.seq_lengths[s] == len(s))


def test_densify_all_positions_matches_each_position():
    rng = np.random.default_rng(4)
    positions = []
    for _ in range(9):
        k = int(rng.integers(1, 9))
        ids = rng.choice(12, size=k, replace=False)
        lps = np.sort(np.log(rng.dirichlet(np.ones(k + 1))[:k]))[::-1]
        positions.append([(int(t), float(lp)) for t, lp in zip(ids, lps)])
    rec = TopKRecord("x", positions, 12)
    cache = index_topk([rec])
    rows = cache.densify()
    assert rows.shape == (9, 12)
    for t in range(len(positions)):
        assert np.allclose(rows[t], cache.densify([t])[0], rtol=0, atol=1e-16)
    # an example whose target (8 tokens, then EOS) covers the record's 9 positions
    corpus = Corpus([CorpusExample("x", [5, 6, 7], [6] * 8)], 12)
    _, teachers, _ = prepare_supervision(TrainConfig(loss_mode="A2"), corpus,
                                         SupervisionBundle(topk1=cache))
    assert np.array_equal(teachers.logits(1), np.log(np.maximum(rows, 1e-12)))


def test_cpdp_telemetry_in_metrics():
    corpus = tiny_corpus(n=12)
    bundle = teacher_and_bundle(corpus, two_teachers=True)
    base = dict(epochs=2, seed=2, hidden_dim=4, fixed_tau=1.0, anchor_tokens=32)
    for clamp, frac in ((1e-300, 1.0), (1e300, 0.0)):
        res = train(TrainConfig(loss_mode="EWAD_CPDP", weights=LossWeights(cpdp_clamp=clamp),
                                **base), corpus, bundle)
        assert [m["cpdp_clamped_frac"] for m in res.metrics] == [frac, frac]
        assert all(m["entropy_floored_frac"] == 0.0 for m in res.metrics)
    res = train(TrainConfig(loss_mode="EWAD", **base), corpus, bundle)
    assert all(m["cpdp_clamped_frac"] is None and m["entropy_floored_frac"] is None
               for m in res.metrics)
