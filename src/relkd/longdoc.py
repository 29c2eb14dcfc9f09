"""Long-document MapReduce pipeline: sentence-aligned chunking with overlap,
batched MAP summarization, Jaccard deduplication, recursive REDUCE.

MAP and REDUCE are injected as batch callables so any model (or a stub) can
fill the roles: each takes a list of token lists and returns one summary
(a token list) per input, in order. Every MAP phase is one call over all of
its level's chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .toymodel import BOUNDARY_ID

# a batch of token lists in, one summary per input out, in order
Summarizer = Callable[[list[list[int]]], list[list[int]]]

MAX_REDUCE_DEPTH = 8


@dataclass(frozen=True)
class ChunkConfig:
    """Chunking capacity, sentence overlap, dedup threshold, and the context
    limit, the longest input summarized in one call; the CLI's ``mapreduce``
    section takes its defaults from these."""

    chunk_capacity: int = 60
    overlap_sentences: int = 3
    jaccard_threshold: float = 0.75
    context_limit: int = 64

    def __post_init__(self) -> None:
        if self.context_limit < 1:
            raise ValueError(f"context_limit must be >= 1, got {self.context_limit}")
        if not 0 < self.chunk_capacity <= self.context_limit:
            raise ValueError(f"chunk_capacity must lie in [1, context_limit {self.context_limit}]")
        if self.overlap_sentences < 0:
            raise ValueError(f"overlap_sentences must be >= 0, got {self.overlap_sentences}")
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ValueError(f"jaccard_threshold must lie in [0, 1], got {self.jaccard_threshold}")


@dataclass(frozen=True)
class Chunk:
    """A contiguous run of sentences; indices are inclusive."""

    first_sentence: int
    last_sentence: int
    tokens: tuple[int, ...]


class PipelineError(RuntimeError):
    """The reduce recursion failed to make progress or exceeded its depth."""


def split_sentences(tokens) -> list[list[int]]:
    """Partition a token stream at boundary tokens (kept with their sentence).

    Concatenating the result reproduces the input exactly; a stream with no
    boundary token is a single sentence.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("document must be non-empty")
    sentences: list[list[int]] = []
    cur: list[int] = []
    for t in tokens:
        cur.append(t)
        if t == BOUNDARY_ID:
            sentences.append(cur)
            cur = []
    if cur:
        sentences.append(cur)
    return sentences


def chunk(sentences: list[list[int]], cfg: ChunkConfig) -> list[Chunk]:
    """Greedy accumulation of sentences into capacity-bounded chunks.

    Consecutive chunks overlap by ``overlap_sentences`` (or the whole previous
    chunk when shorter). Every chunk must admit at least one new sentence; if
    the overlap block would crowd it out, the oldest overlap sentences are
    dropped until it fits. A single sentence over capacity is an error.
    """
    if not sentences:
        raise ValueError("no sentences to chunk")
    lens = [len(s) for s in sentences]
    for i, ln in enumerate(lens):
        if ln > cfg.chunk_capacity:
            raise ValueError(
                f"sentence {i} has {ln} tokens, exceeding chunk capacity "
                f"{cfg.chunk_capacity}; no splitting rule is defined"
            )

    chunks: list[Chunk] = []
    n = len(sentences)
    start = 0
    while True:
        end = start
        total = lens[start]
        while end + 1 < n and total + lens[end + 1] <= cfg.chunk_capacity:
            end += 1
            total += lens[end]
        toks = tuple(chain.from_iterable(sentences[start : end + 1]))
        chunks.append(Chunk(first_sentence=start, last_sentence=end, tokens=toks))
        if end >= n - 1:
            return chunks
        # Overlap counts against the next chunk's capacity; shed the oldest
        # overlap sentences if they would crowd out the first new sentence.
        overlap = min(cfg.overlap_sentences, end - start + 1)
        while overlap > 0 and sum(lens[end - overlap + 1 : end + 2]) > cfg.chunk_capacity:
            overlap -= 1
        start = end - overlap + 1


def jaccard(a, b) -> float:
    """Set Jaccard similarity over token ids; two empty sets count as 1."""
    return _set_jaccard(set(a), set(b))


def _set_jaccard(sa: set, sb: set) -> float:
    common = len(sa & sb)
    union = len(sa) + len(sb) - common
    return common / union if union else 1.0


def dedup(sentences: list[list[int]], cfg: ChunkConfig) -> list[list[int]]:
    """Scan in order, dropping any sentence too similar to one already kept.
    Each sentence's token set is built once and kept with the sentence."""
    kept: list[list[int]] = []
    kept_sets: list[set] = []
    for s in sentences:
        ss = set(s)
        if all(_set_jaccard(ss, k) <= cfg.jaccard_threshold for k in kept_sets):
            kept.append(s)
            kept_sets.append(ss)
    return kept


def summarize_long(
    document,
    map_fn: Summarizer,
    reduce_fn: Summarizer,
    cfg: ChunkConfig,
    trace: list | None = None,
) -> list[int]:
    """Chunk, MAP-summarize, deduplicate, then REDUCE (recursively if needed).

    Each level's chunks go to ``map_fn`` in one call. The single-chunk case
    degenerates to one direct MAP call. When the deduplicated concatenation
    still exceeds the context limit, the kept sentences are re-chunked and
    summarized again with the REDUCE model in the MAP role (model summaries
    need not contain boundary tokens, so their sentence structure is carried
    forward rather than re-derived). Recursion requires strict shrinkage and
    is capped at MAX_REDUCE_DEPTH levels; either failure aborts with a
    diagnostic.
    """
    sentences = split_sentences(document)
    return _summarize_sentences(sentences, map_fn, reduce_fn, cfg, trace, 1)


def _summarize_sentences(
    sentences: list[list[int]],
    map_fn: Summarizer,
    reduce_fn: Summarizer,
    cfg: ChunkConfig,
    trace: list | None,
    depth: int,
) -> list[int]:
    if depth > MAX_REDUCE_DEPTH:
        raise PipelineError(f"reduce recursion exceeded depth {MAX_REDUCE_DEPTH}")
    n_input_tokens = sum(map(len, sentences))

    chunks = chunk(sentences, cfg)
    if len(chunks) == 1:
        summary, = _summarize(map_fn, [list(chain.from_iterable(sentences))])
        if trace is not None:
            trace.append(
                {"depth": depth, "chunks": [_chunk_info(chunks[0])],
                 "map_lengths": [len(summary)], "kept_sentences": None,
                 "concat_length": len(summary), "recursed": False}
            )
        return summary

    map_outputs = _summarize(map_fn, [list(c.tokens) for c in chunks])

    candidate_sentences: list[list[int]] = []
    for out in map_outputs:
        if out:
            candidate_sentences.extend(split_sentences(out))
    kept = dedup(candidate_sentences, cfg)
    concat_length = sum(map(len, kept))

    if trace is not None:
        trace.append(
            {"depth": depth, "chunks": [_chunk_info(c) for c in chunks],
             "map_lengths": [len(o) for o in map_outputs],
             "kept_sentences": len(kept),
             "dropped_sentences": len(candidate_sentences) - len(kept),
             "concat_length": concat_length,
             "recursed": concat_length > cfg.context_limit}
        )

    if not kept:
        return []
    if concat_length > cfg.context_limit:
        if concat_length >= n_input_tokens:
            raise PipelineError(
                f"reduce step did not shrink its input "
                f"({n_input_tokens} -> {concat_length} tokens)"
            )
        return _summarize_sentences(kept, reduce_fn, reduce_fn, cfg, trace, depth + 1)
    summary, = _summarize(reduce_fn, [list(chain.from_iterable(kept))])
    return summary


def _summarize(fn: Summarizer, batch: list[list[int]]) -> list[list[int]]:
    """Apply a batch summarizer, checking that it answered every input."""
    outputs = [list(out) for out in fn(batch)]
    if len(outputs) != len(batch):
        raise PipelineError(
            f"summarizer returned {len(outputs)} summaries for {len(batch)} inputs"
        )
    return outputs


def _chunk_info(c: Chunk) -> dict:
    return {"first_sentence": c.first_sentence, "last_sentence": c.last_sentence,
            "n_tokens": len(c.tokens)}
