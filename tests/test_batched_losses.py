"""One loss call per batch: over the positions of B ragged sequences, each
masked position weighted 1/m_j, every loss, gradient and logged component
must equal the sum of the per-sequence calls (the batch objective divides
both by B), with a scalar or a per-position temperature. A padded batch
gives exactly what its flattened masked rows give."""

import dataclasses

import numpy as np
import pytest

from relkd.distmath import entropy
from relkd.losses import (
    CpdpAnchor,
    HiddenPair,
    LossWeights,
    Teachers,
    TokenBatch,
    ce_loss,
    cpdp_loss,
    ewad_loss,
    inter_match_loss,
    kd_loss,
    standard_total,
)
from relkd.reliability import ReliabilityConfig
from relkd.teachercache import read_cache
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

from oracles import adaptive_tau_oracle, write_raw
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
                          teachers=Teachers(s["z_t1"], s["z_t2"]))

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
    r.check(inter_match_loss(r.batch(), r.hidden()),
            lambda j: inter_match_loss(r.single(j), r.hidden(j)), exact_rows=False)


def padded_and_flat(r, seed):
    """r's sequences in the two layouts a training batch can take: padded,
    B rows of the longest length with padding and r's masked-out positions
    masked, and flattened to the masked rows alone. Padding holds stray
    logits and hiddens; teacher rows there point at row 0 of the table.
    Returns the two (batch, hidden pair, per-position tau) and the mask."""
    rng = np.random.default_rng([seed, 1])
    lengths = np.diff(r.bounds)
    inside = np.arange(lengths.max()) < lengths[:, None]
    src = np.where(inside, r.bounds[:-1, None] + np.arange(lengths.max()), 0).ravel()
    inside = inside.ravel()
    mask = inside & r.cat["mask"][src]
    sequence = np.repeat(np.arange(len(lengths)), lengths.max())
    z_s, hs = r.cat["z_s"][src], r.cat["hs"][src]
    z_s[~inside] = 50.0 * rng.standard_normal((np.sum(~inside), V))
    hs[~inside] = rng.standard_normal((np.sum(~inside), D_S))
    padded = (TokenBatch(r.cat["gold"][src], mask, z_s,
                         r.table.take(np.where(inside, r.rows[src], 0)), sequence=sequence),
              HiddenPair(hs, r.cat["ht"][src], r.proj), r.tau[src])
    keep = src[mask]
    flat = (TokenBatch(r.cat["gold"][keep], np.ones(keep.size, dtype=bool), r.cat["z_s"][keep],
                       r.table.take(r.rows[keep]), sequence=sequence[mask]),
            HiddenPair(r.cat["hs"][keep], r.cat["ht"][keep], r.proj), r.tau[keep])
    return padded, flat, mask


def _ewad_step_out(b, h, tau):
    config = TrainConfig(loss_mode="EWAD_CPDP", reliability=RCFG)
    value, g, etr, ctr = training._ewad_step(config, b, tau, h, CpdpAnchor(0.2))
    traces = [getattr(tr, f.name) for tr in (etr, ctr) for f in dataclasses.fields(tr)]
    return (value, *g.components.values(), *traces), (g.logits,)


# each loss on one layout: (values and arrays over the masked positions),
# (gradients with one row per position)
LAYOUT_LOSSES = {
    "ce": lambda b, h, tau: ((v := ce_loss(b))[:1], v[1:]),
    "kd": lambda b, h, tau: ((v := kd_loss(b, 0.8))[:1], v[1:]),
    "kd_per_position": lambda b, h, tau: ((v := kd_loss(b, tau))[:1], v[1:]),
    "inter_match": lambda b, h, tau: ((v := inter_match_loss(b, h))[::2], v[1:2]),
    "ewad": lambda b, h, tau: ((v := ewad_loss(b, RCFG, tau))[:1], v[1:2]),
    "cpdp": lambda b, h, tau: ((v := cpdp_loss(b, CpdpAnchor(0.2), LossWeights()))[:1],
                               v[1:2]),
    "ewad_step": _ewad_step_out,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("loss", sorted(LAYOUT_LOSSES))
def test_a_padded_batch_equals_its_flattened_rows(seed, loss):
    padded, flat, mask = padded_and_flat(Ragged(seed), seed)
    (p_values, p_grads), (f_values, f_grads) = (LAYOUT_LOSSES[loss](*x) for x in (padded, flat))
    for p, f in zip(p_values, f_values, strict=True):
        assert np.array_equal(p, f)
    for p, f in zip(p_grads, f_grads, strict=True):
        assert p.shape[0] == mask.size and f.shape[0] == mask.sum()
        assert np.array_equal(p[mask], f)
        assert np.all(p[~mask] == 0.0)


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
    rcfg = ReliabilityConfig(lambda_override=lam, equal_teacher_weights=eq)

    def out(batch, tau):
        value, grad, tr = ewad_loss(batch, rcfg, tau)
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
                      p_pseudo=0.3)
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
            expected = adaptive_tau_oracle(d, [True] * len(s), h_batch, cfg.adaptive_tau_cfg)
            assert np.all(np.abs(tau[tb.positions][s] - expected) <= TOL)
            assert np.all(tb.seq_lengths[s] == len(s))


def test_densify_all_positions_matches_each_position(tmp_path):
    rng = np.random.default_rng(4)
    positions = []
    for _ in range(9):
        k = int(rng.integers(1, 9))
        ids = rng.choice(12, size=k, replace=False)
        lps = np.sort(np.log(rng.dirichlet(np.ones(k + 1))[:k]))[::-1]
        positions.append([(int(t), float(lp)) for t, lp in zip(ids, lps)])
    cache = read_cache(write_raw(tmp_path / "c.jsonl", [("x", positions)], 12, 8), "topk")
    rows = cache.densify()
    assert rows.shape == (9, 12)
    for t in range(len(positions)):
        assert np.allclose(rows[t], cache.densify([t])[0], rtol=0, atol=1e-16)
    # an example whose target (8 tokens, then EOS) covers the record's 9 positions
    corpus = Corpus([CorpusExample("x", [5, 6, 7], [6] * 8)], 12)
    teachers = prepare_supervision(TrainConfig(loss_mode="A2"), corpus,
                                   SupervisionBundle(topk=(cache,))).teachers
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
