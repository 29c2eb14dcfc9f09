"""Long-document MapReduce pipeline: sentence-aligned chunking with overlap,
batched MAP summarization, Jaccard deduplication, REDUCE levels in one loop.

Each level is one int token array and the lengths of its sentences; a chunk
is a span of sentences. MAP and REDUCE are injected as batch callables so any
model (or a stub) can fill the roles: each takes EOS-padded token rows and
their lengths, as ``toymodel.decode_rows`` does, and returns one summary (a
token list) per row, in order. Every MAP phase is one call over all of its
level's chunks, gathered from the level's array.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate, chain
from typing import Callable

import numpy as np

from .toymodel import BOUNDARY_ID, EOS_ID, padded_rows

# EOS-padded (B, L) int rows and their B lengths in, one summary per row out
Summarizer = Callable[[np.ndarray, np.ndarray], list[list[int]]]

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
    """A contiguous run of sentences; indices are inclusive. Its fields are
    its entry in the trace's ``chunks``."""

    first_sentence: int
    last_sentence: int
    n_tokens: int


class PipelineError(RuntimeError):
    """The REDUCE levels in one loop failed: a level did not shrink its input,
    the levels exceeded MAX_REDUCE_DEPTH, or a summarizer missed a row."""


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


def chunk(lengths, cfg: ChunkConfig) -> list[Chunk]:
    """Greedy accumulation of sentences, given by their token counts, into
    capacity-bounded chunks.

    Consecutive chunks overlap by ``overlap_sentences`` (or the whole previous
    chunk when shorter). Every chunk must admit at least one new sentence; if
    the overlap block would crowd it out, the oldest overlap sentences are
    dropped until it fits. A single sentence over capacity is an error.
    """
    lengths = list(lengths)
    if not lengths:
        raise ValueError("no sentences to chunk")
    for i, ln in enumerate(lengths):
        if ln > cfg.chunk_capacity:
            raise ValueError(
                f"sentence {i} has {ln} tokens, exceeding chunk capacity "
                f"{cfg.chunk_capacity}; no splitting rule is defined"
            )

    ends = list(accumulate(lengths, initial=0))  # sentences [i, j) hold ends[j] - ends[i]
    chunks: list[Chunk] = []
    n = len(lengths)
    start = 0
    while True:
        end = bisect_right(ends, ends[start] + cfg.chunk_capacity) - 2
        chunks.append(Chunk(start, end, ends[end + 1] - ends[start]))
        if end >= n - 1:
            return chunks
        # Overlap counts against the next chunk's capacity; shed the oldest
        # overlap sentences if they would crowd out the first new sentence.
        overlap = min(cfg.overlap_sentences, end - start + 1)
        while overlap > 0 and ends[end + 2] - ends[end - overlap + 1] > cfg.chunk_capacity:
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
    Each token set is built once. Below threshold 1 a set seen before is
    dropped unscanned: it was kept, and matches itself with Jaccard 1, or
    dropped by a sentence still kept. At threshold 1 all are kept."""
    if cfg.jaccard_threshold >= 1.0:
        return list(sentences)
    kept: list[list[int]] = []
    kept_sets: list[frozenset] = []
    seen: set[frozenset] = set()
    for s in sentences:
        ss = frozenset(s)
        if ss not in seen and all(_set_jaccard(ss, k) <= cfg.jaccard_threshold
                                  for k in kept_sets):
            kept.append(s)
            kept_sets.append(ss)
        seen.add(ss)
    return kept


def summarize_long(
    document,
    map_fn: Summarizer,
    reduce_fn: Summarizer,
    cfg: ChunkConfig,
    trace: list | None = None,
) -> list[int]:
    """Chunk, MAP-summarize, deduplicate, then REDUCE levels in one loop.

    The document is read once into an int array (``padded_rows`` rejects a
    token that is not an integer), and its sentences end at its boundary
    tokens. Each level's chunks go to its summarizer in one call, as rows
    gathered from the level's array: ``map_fn`` on level 1, ``reduce_fn`` on
    every later level. The single-chunk case degenerates to one direct call.
    When the deduplicated concatenation still exceeds the context limit, the
    kept sentences become the next level's array (model summaries need not
    contain boundary tokens, so their sentence structure is carried forward
    rather than re-derived). Each level must strictly shrink its input, and
    there are at most MAX_REDUCE_DEPTH levels; either failure aborts with a
    diagnostic.
    """
    tokens = padded_rows([document])[0][0]
    if not tokens.size:
        raise ValueError("document must be non-empty")
    ends = np.union1d(np.flatnonzero(tokens == BOUNDARY_ID) + 1, [tokens.size])
    lengths = np.diff(ends, prepend=0).tolist()
    for depth in range(1, MAX_REDUCE_DEPTH + 1):
        chunks = chunk(lengths, cfg)
        # each chunk's row: its tokens from the level's array, then EOS
        starts = np.cumsum([0, *lengths])[[c.first_sentence for c in chunks]]
        sizes = np.array([c.n_tokens for c in chunks])
        cols = np.arange(sizes.max())
        live = cols < sizes[:, None]
        rows = np.full(live.shape, EOS_ID, dtype=int)
        rows[live] = tokens[(starts[:, None] + cols)[live]]
        map_outputs = _summarize(map_fn if depth == 1 else reduce_fn, rows, sizes)
        if len(chunks) == 1:
            summary, = map_outputs
            if trace is not None:
                trace.append(
                    {"depth": depth, "chunks": [asdict(chunks[0])],
                     "map_lengths": [len(summary)], "kept_sentences": None,
                     "concat_length": len(summary), "recursed": False}
                )
            return summary

        candidate_sentences: list[list[int]] = []
        for out in map_outputs:
            if out:
                candidate_sentences.extend(split_sentences(out))
        kept = dedup(candidate_sentences, cfg)
        concat = list(chain.from_iterable(kept))

        if trace is not None:
            trace.append(
                {"depth": depth, "chunks": list(map(asdict, chunks)),
                 "map_lengths": [len(o) for o in map_outputs],
                 "kept_sentences": len(kept),
                 "dropped_sentences": len(candidate_sentences) - len(kept),
                 "concat_length": len(concat),
                 "recursed": len(concat) > cfg.context_limit}
            )

        if not kept:
            return []
        rows, sizes = padded_rows([concat])
        if len(concat) <= cfg.context_limit:
            summary, = _summarize(reduce_fn, rows, sizes)
            return summary
        if len(concat) >= tokens.size:
            raise PipelineError(
                f"reduce step did not shrink its input "
                f"({tokens.size} -> {len(concat)} tokens)"
            )
        tokens, lengths = rows[0], list(map(len, kept))
    raise PipelineError(f"reduce recursion exceeded depth {MAX_REDUCE_DEPTH}")


def _summarize(fn: Summarizer, rows: np.ndarray, lengths: np.ndarray) -> list[list[int]]:
    """Apply a batch summarizer, checking that it answered every row."""
    outputs = [list(out) for out in fn(rows, lengths)]
    if len(outputs) != len(rows):
        raise PipelineError(
            f"summarizer returned {len(outputs)} summaries for {len(rows)} inputs"
        )
    return outputs
