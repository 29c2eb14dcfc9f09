"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances and runtime bounds are asserted, not just reported.
"""

import json
import math
import time

import numpy as np
import pytest

from relkd.cli import main
from relkd.distmath import entropy, jsd, kl, softmax_t
from relkd.evalmetrics import (
    RougeScores,
    retention,
    rouge_l,
    rouge_n,
)
from relkd.longdoc import ChunkConfig, chunk, dedup, jaccard, split_sentences, summarize_long
from relkd.losses import (
    AdaptiveTauConfig,
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
    tau_from_entropy,
)
from relkd.reliability import ReliabilityConfig, gate, token_reliability
from relkd.teachercache import (
    PseudoLabelRecord,
    read_cache,
    sample_target,
    write_cache,
)
from relkd.toymodel import ROUTE_MAPREDUCE, generate_batch, init_params, route
from relkd.training import (
    CorpusConfig,
    SupervisionBundle,
    TrainConfig,
    build_topk_cache,
    evaluate_rouge,
    synthetic_corpus,
    synthetic_document,
    train,
)

from oracles import (
    _f1_oracle,
    central_diff,
    cpdp_forward_scalar,
    ewad_forward_scalar,
    max_rel_err,
    lcs_bruteforce,
    listwise,
    random_instance,
    records_of,
    write_raw,
)
from test_training import ewad_cpdp_step

RCFG = ReliabilityConfig()


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def _batch(inst, teachers=0):
    return TokenBatch(
        inst["gold"], inst["mask"], inst["z_s"],
        teachers=Teachers(inst["z_t1"] if teachers >= 1 else None,
                          inst["z_t2"] if teachers >= 2 else None),
    )


class TestCriterion1GradientCorrectness:
    N = 100
    TOL = 1e-5

    def test_all_losses_pass_finite_difference_checks(self):
        t0 = time.time()
        rng = np.random.default_rng(1001)
        worst = {}

        def record(name, analytic, f, x):
            err = max_rel_err(analytic, central_diff(f, x))
            worst[name] = max(worst.get(name, 0.0), err)
            assert err <= self.TOL, f"{name}: rel err {err:.2e}"

        for _ in range(self.N):
            inst = random_instance(rng)
            tau = float(rng.uniform(0.5, 2.0))

            _, g = ce_loss(_batch(inst))
            record("ce", g,
                   lambda z: ce_loss(TokenBatch(inst["gold"], inst["mask"], z))[0],
                   inst["z_s"])

            _, g = kd_loss(_batch(inst, 1), tau)
            record("kd", g,
                   lambda z: kd_loss(TokenBatch(inst["gold"], inst["mask"], z,
                                                teachers=Teachers(inst["z_t1"])), tau)[0],
                   inst["z_s"])

            t = len(inst["gold"])
            hp = HiddenPair(rng.standard_normal((t, 3)) + 0.1,
                            rng.standard_normal((t, 4)) + 0.1,
                            rng.standard_normal((3, 4)))
            _, gh, gw = inter_match_loss(_batch(inst), hp)
            record("inter/hidden", gh,
                   lambda x: inter_match_loss(
                       _batch(inst), HiddenPair(x, hp.teacher_hidden, hp.projection))[0],
                   hp.student_hidden)
            record("inter/proj", gw,
                   lambda w: inter_match_loss(
                       _batch(inst), HiddenPair(hp.student_hidden, hp.teacher_hidden, w))[0],
                   hp.projection)

            weights = LossWeights(alpha_kd=0.2, alpha_inter=0.1)
            _, grads = standard_total(_batch(inst, 1), hp, weights, tau)
            record("standard", grads.logits,
                   lambda z: standard_total(
                       TokenBatch(inst["gold"], inst["mask"], z,
                                  teachers=Teachers(inst["z_t1"])), hp, weights, tau)[0],
                   inst["z_s"])

            _, g, _ = ewad_loss(_batch(inst, 2), RCFG, tau)
            record("ewad", g,
                   lambda z: ewad_loss(TokenBatch(inst["gold"], inst["mask"], z,
                                                  teachers=Teachers(inst["z_t1"], inst["z_t2"])),
                                       RCFG, tau)[0],
                   inst["z_s"])

            anchor = CpdpAnchor(float(rng.uniform(-0.5, 0.5)))
            w = LossWeights(mu=0.05)
            b = _batch(inst, 2)
            _, g, ctr = cpdp_loss(b, anchor, w)
            frozen = np.zeros(t)
            frozen[b.positions] = ctr.student_entropy
            record("cpdp(frozen-H)", g,
                   lambda z: cpdp_forward_scalar(inst["mask"], z, inst["z_t1"],
                                                 inst["z_t2"], anchor.delta_star,
                                                 frozen_entropy=frozen),
                   inst["z_s"])

            b = _batch(inst, 2)
            _, g, _, ctr = ewad_cpdp_step(b, anchor, w, tau)
            frozen = np.zeros(t)
            frozen[b.positions] = ctr.student_entropy
            record("combined", g,
                   lambda z: ewad_forward_scalar(inst["gold"], inst["mask"], z,
                                                 inst["z_t1"], inst["z_t2"], tau=tau)
                   + w.mu * cpdp_forward_scalar(inst["mask"], z, inst["z_t1"],
                                                inst["z_t2"], anchor.delta_star,
                                                frozen_entropy=frozen),
                   inst["z_s"])

        elapsed = time.time() - t0
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
        summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        _report(1, f"7 losses x {self.N} instances, worst rel err: {summary}; "
                   f"{elapsed:.1f}s")


class TestCriterion2OracleEquivalence:
    def test_scalar_reimplementation_agrees(self):
        t0 = time.time()
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(1000):
            inst = random_instance(rng, vocab=int(rng.integers(3, 9)))
            tau = float(rng.uniform(0.5, 2.0))
            delta = float(rng.uniform(-1.0, 1.0))
            b = _batch(inst, 2)
            e_mod, _, _ = ewad_loss(b, RCFG, tau)
            e_orc = ewad_forward_scalar(inst["gold"], inst["mask"], inst["z_s"],
                                        inst["z_t1"], inst["z_t2"], tau=tau)
            c_mod, _, _ = cpdp_loss(b, CpdpAnchor(delta), LossWeights())
            c_orc = cpdp_forward_scalar(inst["mask"], inst["z_s"], inst["z_t1"],
                                        inst["z_t2"], delta)
            worst = max(worst, abs(e_mod - e_orc), abs(c_mod - c_orc))
            assert abs(e_mod - e_orc) < 1e-10
            assert abs(c_mod - c_orc) < 1e-10
        elapsed = time.time() - t0
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
        _report(2, f"EWAD+CPDP forward vs scalar oracle on 1000 instances, "
                   f"max |diff| {worst:.1e}; {elapsed:.1f}s")


class TestCriterion3GateCalibration:
    def test_gate_constants(self):
        assert abs(gate(1.0, RCFG) - 0.924142) <= 1e-6
        assert abs(gate(0.0, RCFG) - 0.075858) <= 1e-6
        assert gate(0.5, RCFG) == 0.5
        _report(3, "gate(1)=0.924142, gate(0)=0.075858 within 1e-6; gate(0.5)=0.5 exact")


class TestCriterion4AdaptiveTemperature:
    def test_midpoint_and_open_bounds(self):
        cfg = AdaptiveTauConfig(tau_min=0.5, tau_max=2.0)
        p = np.full((4, 8), 1 / 8)
        h = float(entropy(p[0]))
        h_p = entropy(p).mean()  # the masked mean entropy; every position is masked in
        tau = tau_from_entropy(h_p, h, cfg)
        assert abs(tau - 1.25) <= 1e-9

        rng = np.random.default_rng(1004)
        taus = []
        for _ in range(500):
            dists = softmax_t(4.0 * rng.standard_normal((5, 8)), 1.0)
            h_batch = float(rng.uniform(-100.0, 100.0))
            taus.append(tau_from_entropy(entropy(dists).mean(), h_batch, cfg))
        taus += [tau_from_entropy(h_p, -1e6, cfg), tau_from_entropy(h_p, 1e6, cfg)]
        assert all(0.5 < t < 2.0 for t in taus)
        _report(4, f"tau(H=H_batch)=1.25 within 1e-9; {len(taus)} emitted taus all "
                   "strictly inside (0.5, 2.0)")


class TestCriterion5CpdpGuard:
    def test_frozen_entropy_gradient_and_clamp_bound(self):
        rng = np.random.default_rng(1005)
        for _ in range(25):
            inst = random_instance(rng)
            anchor = CpdpAnchor(float(rng.uniform(-0.5, 0.5)))
            b = _batch(inst, 2)
            _, g, ctr = cpdp_loss(b, anchor, LossWeights())
            frozen = np.zeros(len(inst["gold"]))
            frozen[b.positions] = ctr.student_entropy
            err = max_rel_err(g, central_diff(
                lambda z: cpdp_forward_scalar(inst["mask"], z, inst["z_t1"],
                                              inst["z_t2"], anchor.delta_star,
                                              frozen_entropy=frozen),
                inst["z_s"]))
            assert err <= 1e-5

        # adversarial traces: near-deterministic students, exploding ratios
        clamped_seen = 0
        for trial in range(50):
            inst = random_instance(rng, vocab=6, seq_len=4)
            inst["z_s"] = inst["z_s"] * float(rng.uniform(20.0, 60.0))
            _, _, ctr = cpdp_loss(_batch(inst, 2), CpdpAnchor(0.0), LossWeights())
            assert np.all(ctr.value <= 100.0)
            clamped_seen += int(ctr.clamped.sum())
        assert clamped_seen > 0
        _report(5, f"analytic CPDP grad matches frozen-H differences; "
                   f"{clamped_seen} adversarial tokens clamped at exactly 100.0")


class TestCriterion6InvariantSuites:
    def test_ten_thousand_randomized_cases(self):
        t0 = time.time()
        rng = np.random.default_rng(1006)
        cases = 0

        # distribution normalization under temperature softmax
        for _ in range(2500):
            v = int(rng.integers(2, 12))
            p = softmax_t(8.0 * rng.standard_normal(v), float(rng.uniform(0.1, 5.0)))
            assert abs(p.sum() - 1.0) <= 1e-9 and np.all(p >= 0)
            cases += 1

        # KL non-negativity, JSD bounds and symmetry
        for _ in range(2000):
            v = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(v))
            q = rng.dirichlet(np.ones(v))
            assert kl(p, q) >= 0.0
            d = jsd(p, q)
            assert -1e-12 <= d <= math.log(2) + 1e-12
            assert abs(d - jsd(q, p)) < 1e-12
            cases += 1

        # agreement and gate bounds via the full reliability record
        for _ in range(2500):
            v = int(rng.integers(2, 10))
            r = token_reliability(rng.dirichlet(np.ones(v)), rng.dirichlet(np.ones(v)), RCFG)
            assert 0.0 <= r.agreement <= 1.0 and 0.0 < r.gate < 1.0
            assert abs(r.w1 + r.w2 - 1.0) <= 1e-12
            cases += 1

        # loss-weight simplex
        for _ in range(500):
            a, b = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            if a + b <= 1.0:
                w = LossWeights(alpha_kd=a, alpha_inter=b)
                assert w.alpha_hard == 1.0 - a - b
            else:
                with pytest.raises(ValueError):
                    LossWeights(alpha_kd=a, alpha_inter=b)
            cases += 1

        # cache round-trip: read -> write -> read, and a rewrite is byte-identical
        # homogeneous vocab per file: bucket by vocabulary size
        by_v = {}
        for i in range(300):
            v = int(rng.integers(3, 10))
            k = int(rng.integers(1, v + 1))
            positions = []
            for _ in range(int(rng.integers(1, 4))):
                logp = np.log(rng.dirichlet(np.ones(v)))
                order = np.argsort(-logp)[:k]
                positions.append([(int(t), float(logp[t])) for t in order])
            by_v.setdefault(v, []).append((f"r{i}", positions))
        cases += sum(map(len, by_v.values()))

        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as d:
            for v, recs in by_v.items():
                raw, out, again = (Path(d) / f"{name}{v}.jsonl" for name in ("raw", "a", "b"))
                write_cache(read_cache(write_raw(raw, recs, v, v), "topk"), out)
                back = read_cache(out, "topk")
                assert records_of(back) == records_of(read_cache(raw, "topk")) == recs
                write_cache(back, again)
                assert again.read_bytes() == out.read_bytes()

        # chunk coverage and capacity
        for _ in range(800):
            cap = int(rng.integers(20, 60))
            cfg = ChunkConfig(chunk_capacity=cap, overlap_sentences=int(rng.integers(0, 4)),
                              jaccard_threshold=0.75, context_limit=64 if cap <= 64 else cap)
            sents = [rng.integers(3, 9, rng.integers(1, cap // 2)).tolist()
                     for _ in range(int(rng.integers(1, 10)))]
            out = chunk(list(map(len, sents)), cfg)
            seen = set()
            for c in out:
                assert c.n_tokens <= cap
                seen.update(range(c.first_sentence, c.last_sentence + 1))
            assert seen == set(range(len(sents)))
            cases += 1

        # dedup soundness
        for _ in range(800):
            cfg = ChunkConfig(chunk_capacity=900, overlap_sentences=3,
                              jaccard_threshold=0.75, context_limit=1024)
            sents = [rng.integers(0, 6, rng.integers(1, 6)).tolist()
                     for _ in range(int(rng.integers(1, 10)))]
            kept = dedup(sents, cfg)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert jaccard(kept[i], kept[j]) <= 0.75
            cases += 1

        # ROUGE bounds and LCS-oracle equivalence
        for _ in range(1000):
            a = rng.integers(0, 3, rng.integers(0, 7)).tolist()
            b = rng.integers(0, 3, rng.integers(1, 7)).tolist()
            assert rouge_l(a, b) == _f1_oracle(lcs_bruteforce(a, b), len(a), len(b))
            for score in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
                assert 0.0 <= score <= 1.0
            assert rouge_l(a, b) <= rouge_n(a, b, 1) + 1e-12
            cases += 1

        elapsed = time.time() - t0
        assert cases >= 10_000
        assert elapsed < 60.0, f"invariant suites took {elapsed:.1f}s"
        _report(6, f"{cases} randomized invariant cases in {elapsed:.1f}s")


class TestCriterion7DirectionalDeskScale:
    def test_logit_kd_arm_not_worse_than_ce(self):
        t0 = time.time()
        shape = dict(vocab_size=64, task="compress", min_sentences=2, max_sentences=2,
                     min_sentence_len=3, max_sentence_len=5)
        train_corpus = synthetic_corpus(CorpusConfig(n_examples=2000, seed=1000, **shape))
        test_corpus = synthetic_corpus(
            CorpusConfig(n_examples=500, seed=2000, id_prefix="te", **shape)
        )
        a1_scores, a2_scores = [], []
        for seed in range(5):
            teacher = train(
                TrainConfig(loss_mode="CE", epochs=40, seed=seed + 100, hidden_dim=24,
                            batch_size=32, learning_rate=0.5),
                train_corpus,
            )
            bundle = SupervisionBundle(
                topk=(build_topk_cache(teacher.params, train_corpus, 8),)
            )
            a1 = train(
                TrainConfig(loss_mode="CE", epochs=40, seed=seed, hidden_dim=16,
                            batch_size=32, learning_rate=0.5),
                train_corpus,
            )
            a2 = train(
                TrainConfig(loss_mode="A2", epochs=40, seed=seed, hidden_dim=16,
                            batch_size=32, learning_rate=0.5,
                            weights=LossWeights(alpha_kd=0.01), fixed_tau=0.8),
                train_corpus, bundle,
            )
            a1_scores.append(evaluate_rouge(a1.params, test_corpus).rougeL)
            a2_scores.append(evaluate_rouge(a2.params, test_corpus).rougeL)

        mean_a1 = float(np.mean(a1_scores))
        mean_a2 = float(np.mean(a2_scores))
        elapsed = time.time() - t0
        assert mean_a2 >= mean_a1 - 0.01, f"A2 {mean_a2:.4f} vs A1 {mean_a1:.4f}"
        assert elapsed < 300.0, f"directional check took {elapsed:.1f}s"
        _report(7, f"5-seed mean test ROUGE-L: A2 {mean_a2:.4f} >= A1 {mean_a1:.4f} - 0.01; "
                   f"{elapsed:.0f}s")


class TestCriterion8PseudoMixingRate:
    def test_mixing_rate_concentrates(self):
        pseudo = [PseudoLabelRecord("e", "t1", [5]), PseudoLabelRecord("e", "t2", [6])]
        hits = sum(
            sample_target([9, 9], pseudo, 0.3, 0, i)[1] != "gold" for i in range(10_000)
        )
        frac = hits / 10_000
        assert 0.285 <= frac <= 0.315
        _report(8, f"pseudo fraction {frac:.4f} in [0.285, 0.315] over 10,000 draws")


class TestCriterion9MapReduceEndToEnd:
    def test_long_document_pipeline(self):
        limit = 64
        doc = synthetic_document(3000, vocab_size=64, seed=42)
        assert route(doc, limit) == ROUTE_MAPREDUCE

        params = init_params(64, 12, np.random.default_rng(7))
        cfg = ChunkConfig(chunk_capacity=60, overlap_sentences=3,
                          jaccard_threshold=0.75, context_limit=limit)
        trace = []
        summary = summarize_long(
            doc,
            listwise(lambda cs: generate_batch(params, cs, mode="greedy", max_len=16)),
            listwise(lambda cs: generate_batch(params, cs, mode="greedy", max_len=16)),
            cfg, trace=trace,
        )
        assert isinstance(summary, list)

        depths = [row["depth"] for row in trace]
        assert max(depths) <= 8

        level1 = trace[0]
        n_sentences = len(split_sentences(doc))
        covered = set()
        for c in level1["chunks"]:
            covered.update(range(c["first_sentence"], c["last_sentence"] + 1))
        assert covered == set(range(n_sentences))
        for row in trace:
            for c in row["chunks"]:
                assert c["n_tokens"] <= 60
        _report(9, f"3000-token doc routed to MapReduce: {len(level1['chunks'])} chunks, "
                   f"all <= 60 tokens, every sentence covered, depth {max(depths)} <= 8, "
                   f"summary of {len(summary)} tokens")


class TestCriterion10RetentionArithmetic:
    def test_published_rows(self):
        hindi = retention(RougeScores(0.344, 0.165, 0.308),
                          RougeScores(0.419, 0.218, 0.372))
        assert abs(hindi.retention_pct - 82.8) <= 0.3
        pashto = retention(RougeScores(0.525, 0.327, 0.491),
                           RougeScores(0.450, 0.229, 0.401))
        assert abs(pashto.retention_pct - 122.4) <= 0.1
        _report(10, f"retention rows: {hindi.retention_pct:.2f} (82.8 +/- 0.3), "
                    f"{pashto.retention_pct:.2f} (122.4 +/- 0.1)")


class TestCriterion11Determinism:
    def test_every_subcommand_twice_is_byte_identical(self, tmp_path):
        base = {
            "version": 1, "seed": 7,
            "corpus": {"n_train": 16, "n_test": 6, "n_val": 0, "vocab_size": 16,
                       "task": "copy", "min_sentence_len": 3, "max_sentence_len": 5},
            "student": {"hidden_dim": 6},
            "teacher1": {"checkpoint": "teacher1.json"},
            "teacher2": {"checkpoint": "teacher1.json",
                         "cache": "teacher1_topk.jsonl"},
            "training": {"epochs": 3, "batch_size": 8},
        }

        def run(out, args):
            assert main(["--out", str(out)] + args) == 0

        outputs = {}
        for run_id in ("r1", "r2"):
            out = tmp_path / run_id
            out.mkdir()
            t_cfg = dict(base, preset="A1",
                         outputs={"checkpoint": "teacher1.json",
                                  "metrics": "teacher1_metrics.jsonl"})
            p = tmp_path / f"t_{run_id}.json"
            p.write_text(json.dumps(t_cfg))
            run(out, ["--config", str(p), "distill"])

            c_cfg = dict(base)
            p = tmp_path / f"c_{run_id}.json"
            p.write_text(json.dumps(c_cfg))
            run(out, ["--config", str(p), "cache-teacher"])

            a_cfg = dict(base, preset="A2")
            p = tmp_path / f"a_{run_id}.json"
            p.write_text(json.dumps(a_cfg))
            run(out, ["--config", str(p), "distill"])
            run(out, ["--config", str(p), "evaluate"])
            run(out, ["--config", str(p), "mapreduce", "--trace"])

            g_cfg = dict(base, preset="ewad_cpdp",
                         outputs={"checkpoint": "student.json"})
            p = tmp_path / f"g_{run_id}.json"
            p.write_text(json.dumps(g_cfg))
            run(out, ["--config", str(p), "gate-trace", "--samples", "tr00001,tr00002"])

            outputs[run_id] = {
                name: (out / name).read_bytes()
                for name in ("teacher1.json", "teacher1_metrics.jsonl",
                             "teacher1_topk.jsonl", "student.json", "metrics.jsonl",
                             "report.json", "summary.json", "mapreduce_trace.jsonl",
                             "gate_trace.jsonl")
            }

        for name in outputs["r1"]:
            assert outputs["r1"][name] == outputs["r2"][name], name
        _report(11, f"{len(outputs['r1'])} output files byte-identical across reruns "
                    "of all five subcommands")
