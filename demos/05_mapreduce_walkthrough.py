# Length-routed long-document summarization: sentence-aligned chunking with
# overlap, batched MAP summaries, Jaccard dedup, recursive REDUCE.

import numpy as np

from relkd import ChunkConfig, jaccard, route, split_sentences, summarize_long
from relkd.toymodel import generate_batch, init_params
from relkd.training import synthetic_document

LIMIT = 64  # desk-scale context window
doc = synthetic_document(3000, vocab_size=64, seed=3)
print(f"document: {len(doc)} tokens, {len(split_sentences(doc))} sentences")
print(f"routing with context limit {LIMIT}: {route(doc, LIMIT)}")
short = doc[:40]
print(f"routing a 40-token prefix: {route(short, LIMIT)}\n")

cfg = ChunkConfig(chunk_capacity=60, overlap_sentences=3,
                  jaccard_threshold=0.75, context_limit=LIMIT)
params = init_params(64, 12, np.random.default_rng(11))


def summarizer(chunks):
    # one batched greedy decode over every chunk of a level
    return generate_batch(params, chunks, mode="greedy", max_len=16)


trace = []
summary = summarize_long(doc, summarizer, summarizer, cfg, trace=trace)

for row in trace:
    chunks = row["chunks"]
    print(f"level {row['depth']}: {len(chunks)} chunks "
          f"(first spans sentences {chunks[0]['first_sentence']}..{chunks[0]['last_sentence']}), "
          f"kept {row['kept_sentences']} of "
          f"{(row['kept_sentences'] or 0) + (row.get('dropped_sentences') or 0)} "
          f"map sentences, concat {row['concat_length']} tokens, "
          f"recursed: {row['recursed']}")

print(f"\nfinal summary ({len(summary)} tokens): {summary}")

print("\ndedup in isolation: overlapping chunks echo near-duplicate sentences;")
a, b = [5, 6, 7, 8], [5, 6, 7, 8, 9]
print(f"J({a}, {b}) = {jaccard(a, b):.2f} > 0.75 -> the later copy is dropped")
