"""Offline teacher supervision store.

Cache files are UTF-8 JSON Lines. The first line is a header::

    {"version": 1, "kind": "topk"|"pseudo", "vocab_size": int, "k": int}

A top-k header also records ``"mass_kept": {"mean": float, "min": float}``,
the probability mass the cached entries keep per position (null for a cache
without positions); readers ignore it. Top-k data lines carry per-position
(token_id, logprob) pairs sorted by descending log-probability; pseudo data
lines carry a teacher-generated summary as token ids plus its decoded text.
Files are written atomically and are immutable once written; readers
validate every line and report failures by line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import write_text_atomic

CACHE_VERSION = 1

# exp(logprobs) at one position may exceed 1 by at most this much.
MASS_TOL = 1e-6


class CacheFormatError(ValueError):
    """A cache file or record violates the schema."""


@dataclass
class TopKRecord:
    """Per-position top-k teacher log-probabilities for one example."""

    example_id: str
    positions: list[list[tuple[int, float]]]
    vocab_size: int


@dataclass
class PseudoLabelRecord:
    """A teacher-generated summary stored as tokens plus decoded text."""

    example_id: str
    teacher_id: str
    tokens: list[int]
    text: str
    beam_width: int


@dataclass(frozen=True)
class MixingConfig:
    """Gold/pseudo target mixing: replacement probability and seed."""

    p_pseudo: float = 0.3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_pseudo <= 1.0:
            raise ValueError("p_pseudo must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def validate_topk_record(rec: TopKRecord, k: int | None = None) -> list[float]:
    """Raise CacheFormatError unless the record satisfies all invariants.
    Returns the probability mass each position keeps, sum(exp(logprob))."""
    if not rec.example_id:
        raise CacheFormatError("record id must be non-empty")
    if rec.vocab_size < 2:
        raise CacheFormatError(f"{rec.example_id}: vocab_size must be >= 2")
    masses = []
    for pos, pairs in enumerate(rec.positions):
        if len(pairs) == 0:
            raise CacheFormatError(f"{rec.example_id} position {pos}: empty pair list")
        if k is not None and len(pairs) > k:
            raise CacheFormatError(
                f"{rec.example_id} position {pos}: {len(pairs)} entries exceed k={k}"
            )
        ids = [t for t, _ in pairs]
        lps = [lp for _, lp in pairs]
        if len(set(ids)) != len(ids):
            raise CacheFormatError(f"{rec.example_id} position {pos}: duplicate token ids")
        if any(t < 0 or t >= rec.vocab_size for t in ids):
            raise CacheFormatError(f"{rec.example_id} position {pos}: token id out of range")
        if not all(math.isfinite(lp) for lp in lps):
            raise CacheFormatError(f"{rec.example_id} position {pos}: non-finite logprob")
        if any(lps[i] < lps[i + 1] for i in range(len(lps) - 1)):
            raise CacheFormatError(
                f"{rec.example_id} position {pos}: logprobs not sorted descending"
            )
        masses.append(sum(math.exp(lp) for lp in lps))
        if masses[-1] > 1.0 + MASS_TOL:
            raise CacheFormatError(
                f"{rec.example_id} position {pos}: probability mass exceeds 1"
            )
    return masses


def validate_pseudo_record(rec: PseudoLabelRecord) -> None:
    if not rec.example_id:
        raise CacheFormatError("record id must be non-empty")
    if not rec.teacher_id:
        raise CacheFormatError(f"{rec.example_id}: teacher id must be non-empty")
    if len(rec.tokens) == 0:
        raise CacheFormatError(f"{rec.example_id}: pseudo summary must be non-empty")
    if rec.beam_width < 1:
        raise CacheFormatError(f"{rec.example_id}: beam_width must be >= 1")


def write_cache(
    records,
    path,
    *,
    kind: str | None = None,
    vocab_size: int | None = None,
    k: int | None = None,
) -> int:
    """Validate then write records as a JSONL cache file; returns the count.

    ``kind``/``vocab_size``/``k`` are inferred from the records when possible
    and are required for empty record lists (nothing to infer from).
    """
    records = list(records)
    if records:
        first = records[0]
        if isinstance(first, TopKRecord):
            inferred_kind = "topk"
            inferred_vocab = first.vocab_size
            inferred_k = max(
                (len(pairs) for r in records for pairs in r.positions), default=0
            )
        elif isinstance(first, PseudoLabelRecord):
            inferred_kind = "pseudo"
            inferred_vocab = vocab_size
            inferred_k = 0
        else:
            raise CacheFormatError(f"unsupported record type {type(first).__name__}")
        kind = kind or inferred_kind
        vocab_size = vocab_size if vocab_size is not None else inferred_vocab
        k = k if k is not None else inferred_k
    if kind not in ("topk", "pseudo"):
        raise CacheFormatError("kind must be 'topk' or 'pseudo'")
    if vocab_size is None or k is None:
        raise CacheFormatError("vocab_size and k are required when they cannot be inferred")

    header = {"version": CACHE_VERSION, "kind": kind, "vocab_size": int(vocab_size),
              "k": int(k)}
    lines = []
    masses: list[float] = []
    for rec in records:
        if kind == "topk":
            if not isinstance(rec, TopKRecord):
                raise CacheFormatError("mixed record kinds in one cache")
            if rec.vocab_size != vocab_size:
                raise CacheFormatError(f"{rec.example_id}: vocab_size differs from header")
            masses.extend(validate_topk_record(rec, k=int(k)))
            lines.append(
                json.dumps(
                    {"id": rec.example_id,
                     "positions": [[[int(t), float(lp)] for t, lp in pairs]
                                   for pairs in rec.positions]},
                    sort_keys=True,
                )
            )
        else:
            if not isinstance(rec, PseudoLabelRecord):
                raise CacheFormatError("mixed record kinds in one cache")
            validate_pseudo_record(rec)
            lines.append(
                json.dumps(
                    {"id": rec.example_id, "teacher": rec.teacher_id,
                     "beam": int(rec.beam_width),
                     "tokens": [int(t) for t in rec.tokens], "text": rec.text},
                    sort_keys=True,
                )
            )

    if kind == "topk":
        # the mass the cached entries keep, before densify renormalizes it
        header["mass_kept"] = (
            {"mean": math.fsum(masses) / len(masses), "min": min(masses)} if masses else None
        )
    try:
        write_text_atomic(path, "\n".join([json.dumps(header, sort_keys=True), *lines]) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write cache {path}: {exc}") from exc
    return len(records)


def read_cache(path) -> list[TopKRecord] | list[PseudoLabelRecord]:
    """Read and validate a cache file; errors name the offending line."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read().splitlines()
    except OSError as exc:
        raise OSError(f"failed to read cache {path}: {exc}") from exc
    if not raw:
        raise CacheFormatError(f"{path}: empty file, missing header")

    try:
        header = json.loads(raw[0])
    except json.JSONDecodeError as exc:
        raise CacheFormatError(f"{path} line 1: malformed header ({exc})") from exc
    if not isinstance(header, dict) or header.get("version") != CACHE_VERSION:
        raise CacheFormatError(
            f"{path} line 1: unsupported cache version {header.get('version')!r}"
        )
    kind = header.get("kind")
    if kind not in ("topk", "pseudo"):
        raise CacheFormatError(f"{path} line 1: unknown kind {kind!r}")
    vocab_size = header.get("vocab_size")
    k = header.get("k")
    if not isinstance(vocab_size, int) or not isinstance(k, int):
        raise CacheFormatError(f"{path} line 1: vocab_size and k must be integers")

    records: list = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"{path} line {lineno}: malformed record ({exc})") from exc
        try:
            if kind == "topk":
                rec = TopKRecord(
                    example_id=obj["id"],
                    positions=[[(int(t), float(lp)) for t, lp in pairs]
                               for pairs in obj["positions"]],
                    vocab_size=vocab_size,
                )
                validate_topk_record(rec, k=k)
            else:
                rec = PseudoLabelRecord(
                    example_id=obj["id"],
                    teacher_id=obj["teacher"],
                    tokens=[int(t) for t in obj["tokens"]],
                    text=obj["text"],
                    beam_width=int(obj["beam"]),
                )
                validate_pseudo_record(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"{path} line {lineno}: {exc}") from exc
        records.append(rec)
    return records


def densify(record: TopKRecord, position: int | None = None) -> np.ndarray:
    """Expand cached positions into full distributions over the vocabulary:
    every position as (T, V) rows, or one ``position`` as a (V,) vector.

    The cached masses are renormalized over their own support; tokens outside
    the top-k receive exactly zero.
    """
    positions = record.positions
    if position is not None:
        if position < 0 or position >= len(positions):
            raise IndexError(f"position {position} out of range for {record.example_id}")
        positions = [positions[position]]
    counts = np.array([len(pairs) for pairs in positions], dtype=int)
    if np.any(counts == 0):
        where = position if position is not None else int(np.argmin(counts))
        raise CacheFormatError(f"{record.example_id} position {where}: empty pair list")
    pairs = np.array([pair for pos in positions for pair in pos], dtype=float).reshape(-1, 2)
    # the cached masses as zero-padded rows, one per position
    rows = np.repeat(np.arange(len(positions)), counts)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    mass = np.zeros((len(positions), counts.max(initial=1)))
    mass[rows, cols] = np.exp(pairs[:, 1])
    p = np.zeros((len(positions), record.vocab_size))
    p[rows, pairs[:, 0].astype(int)] = mass[rows, cols] / mass.sum(axis=1)[rows]
    return p if position is None else p[0]


def sample_target(
    gold: list[int],
    pseudo: list[PseudoLabelRecord],
    cfg: MixingConfig,
    example_index: int,
) -> tuple[list[int], str]:
    """Pick the training target: gold, or a pseudo-label with p_pseudo.

    A pure function of (rng_seed, example_index): the draw stream is derived
    from both, so repeated runs see identical target choices. Returns the
    token sequence and a provenance flag ("gold" or "pseudo:<teacher_id>").
    """
    if len(gold) == 0:
        raise ValueError("gold target must be non-empty")
    if cfg.p_pseudo > 0 and len(pseudo) == 0:
        raise ValueError("p_pseudo > 0 but no pseudo-labels are available")
    rng = np.random.default_rng([cfg.rng_seed, example_index])
    if cfg.p_pseudo > 0 and rng.random() < cfg.p_pseudo:
        rec = pseudo[int(rng.integers(len(pseudo)))]
        return list(rec.tokens), f"pseudo:{rec.teacher_id}"
    return list(gold), "gold"
