# A small end-to-end distillation study: train two toy teachers, cache their
# top-k logits offline, then run the experiment arms and compare retention.

from dataclasses import replace

from relkd import LossWeights, retention
from relkd.training import (
    CorpusConfig,
    SupervisionBundle,
    TrainConfig,
    build_pseudo_records,
    build_topk_cache,
    evaluate_rouge,
    index_pseudo,
    synthetic_corpus,
    train,
)

shape = dict(vocab_size=32, task="compress", min_sentences=2, max_sentences=2,
             min_sentence_len=3, max_sentence_len=5)
train_corpus = synthetic_corpus(CorpusConfig(n_examples=400, seed=0, **shape))
test_corpus = synthetic_corpus(CorpusConfig(n_examples=100, seed=1, id_prefix="te", **shape))
print(f"corpus: {len(train_corpus.examples)} train / {len(test_corpus.examples)} test, "
      f"|V|={train_corpus.vocab_size}")
ex = train_corpus.examples[0]
print(f"sample: doc={ex.document} -> summary={ex.summary}\n")

print("training teachers (hidden 24 and 20) ...")
t1 = train(TrainConfig(loss_mode="CE", epochs=30, seed=100, hidden_dim=24,
                       learning_rate=0.5), train_corpus)
t2 = train(TrainConfig(loss_mode="CE", epochs=30, seed=101, hidden_dim=20,
                       learning_rate=0.5), train_corpus)

print("caching top-8 logits and beam-4 pseudo-labels offline ...")
pseudo = index_pseudo(build_pseudo_records(t1.params, "p1", train_corpus, beam_width=4))
bundle = SupervisionBundle(
    topk=(build_topk_cache(t1.params, train_corpus, 8, pseudo),
          build_topk_cache(t2.params, train_corpus, 8, pseudo)),
    pseudo=pseudo,
    teacher_params=t1.params,
)

arms = {
    "A1 baseline (CE)": TrainConfig(loss_mode="CE"),
    "A2 +logit KD": TrainConfig(loss_mode="A2", weights=LossWeights(alpha_kd=0.01),
                                fixed_tau=0.8),
    "A3 +pseudo-labels": TrainConfig(loss_mode="A3", weights=LossWeights(alpha_kd=0.01),
                                     fixed_tau=0.8, p_pseudo=0.3),
    "A4 +adaptive tau": TrainConfig(loss_mode="A4", weights=LossWeights(alpha_kd=0.01),
                                    p_pseudo=0.3),
    "A5 +hidden match": TrainConfig(
        loss_mode="A5", weights=LossWeights(alpha_kd=0.01, alpha_inter=0.1), p_pseudo=0.3),
    "EWAD (gated dual)": TrainConfig(loss_mode="EWAD", fixed_tau=1.0),
    "EWAD+CPDP": TrainConfig(loss_mode="EWAD_CPDP", fixed_tau=1.0),
}

teacher_score = evaluate_rouge(t1.params, test_corpus)
print(f"\nteacher ROUGE-L: {teacher_score.rougeL:.4f}\n")
print(f"{'arm':<20} {'R-1':>7} {'R-2':>7} {'R-L':>7} {'ret%':>7}")
for name, cfg in arms.items():
    cfg = replace(cfg, epochs=30, seed=0, hidden_dim=16, learning_rate=0.5)
    result = train(cfg, train_corpus, bundle)
    s = evaluate_rouge(result.params, test_corpus)
    ret = retention(s, teacher_score).retention_pct if teacher_score.rougeL > 0 else float("nan")
    print(f"{name:<20} {s.rouge1:>7.4f} {s.rouge2:>7.4f} {s.rougeL:>7.4f} {ret:>7.1f}")

print("\nscores are desk-scale and directional only; the machinery, not the")
print("numbers, is the point.")
