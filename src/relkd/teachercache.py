"""Offline teacher supervision store.

Cache files are UTF-8 JSON Lines. The first line is a header::

    {"version": 1, "kind": "topk"|"pseudo", "vocab_size": int, "k": int}

A top-k header also records ``"mass_kept": {"mean": float, "min": float}``,
the probability mass the cached entries keep per position (null for a cache
without positions); readers ignore it. Top-k data lines carry per-position
(token_id, logprob) pairs sorted by descending log-probability; pseudo data
lines carry a teacher-generated summary as token ids plus its decoded text.
Token ids, pseudo tokens and beam widths are JSON integers, logprobs JSON
numbers. Files are written atomically and are immutable once written;
readers validate every line and report failures by line number.

A top-k cache is held as one ``TopKCache``: every cached entry in flat
arrays, checked by one vectorized pass over all positions and densified in
one step. Two builders make one, both through the same checks:
``read_cache`` from a file (rejecting one of the wrong ``kind`` at line 1),
and ``topk_cache`` from a model's top-k rows, one row per position.
``write_cache`` takes either a ``TopKCache`` or a list of
``PseudoLabelRecord``s. Only this module knows the (token_id, logprob) pairs
of the file format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atomic import write_text_atomic

CACHE_VERSION = 1

# exp(logprobs) at one position may exceed 1 by at most this much.
MASS_TOL = 1e-6

# What is wrong with a position, one entry per check of ``_check`` in order.
_FAULTS = ("empty pair list", "{n} entries exceed k={k}", "duplicate token ids",
           "token id out of range", "non-finite logprob", "logprobs not sorted descending",
           "probability mass exceeds 1")
_INTEGER = (int, np.integer)
_NUMBER = (int, float, np.integer, np.floating)


class CacheFormatError(ValueError):
    """A cache file or record violates the schema."""


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
            raise ValueError(f"p_pseudo must lie in [0, 1], got {self.p_pseudo}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _all_of(values, types) -> bool:
    """Whether every value is an instance of ``types``; a bool never is."""
    return all(t is not bool and issubclass(t, types) for t in set(map(type, values)))


class TopKCache:
    """Checked top-k records as flat arrays (build one with ``read_cache`` or
    ``topk_cache``). ``ids``/``logprobs`` hold every entry, position after
    position; position j has entries ``bounds[j]:bounds[j + 1]`` and keeps
    mass ``mass[j]``; record r has positions ``first[r]:first[r + 1]``, and
    ``index`` maps example ids to records. Its length is its record count.
    """

    def __init__(self, example_ids, first, counts, ids, logprobs, mass, vocab_size, k):
        self.example_ids = example_ids
        self.first = first
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self.ids = ids
        self.logprobs = logprobs
        self.mass = mass
        self.vocab_size = vocab_size
        self.k = k
        self.index = {eid: r for r, eid in enumerate(example_ids)}

    def __len__(self) -> int:
        return len(self.example_ids)

    @property
    def mass_kept(self) -> dict | None:
        """Mean and minimum over positions of the probability mass the cached
        entries keep, before densify renormalizes it; None without positions."""
        if not self.mass.size:
            return None
        return {"mean": math.fsum(self.mass.tolist()) / self.mass.size,
                "min": float(self.mass.min())}

    def densify(self, positions=None) -> np.ndarray:
        """Expand positions (all of them by default) into (n, V) rows: the
        cached masses renormalized over their own support, zero elsewhere."""
        pos = np.arange(self.mass.size) if positions is None else np.asarray(positions, dtype=int)
        counts = self.bounds[pos + 1] - self.bounds[pos]
        rows = np.repeat(np.arange(pos.size), counts)
        entries = np.arange(rows.size) + np.repeat(self.bounds[pos] - np.cumsum(counts) + counts,
                                                  counts)
        p = np.zeros((pos.size, self.vocab_size))
        p[rows, self.ids[entries]] = np.exp(self.logprobs[entries]) / self.mass[pos][rows]
        return p


def _entries(positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry count of each position, and every entry's token id and
    logprob, position after position; raises on an ill-typed entry."""
    pairs = list(chain.from_iterable(positions))
    if set(map(len, pairs)) - {2}:
        raise ValueError("each entry must be a [token_id, logprob] pair")
    flat = list(chain.from_iterable(pairs))
    ids, logprobs = flat[0::2], flat[1::2]
    if not _all_of(ids, _INTEGER):
        raise TypeError("token ids must be integers")
    if not _all_of(logprobs, _NUMBER):
        raise TypeError("logprobs must be numbers")
    return (np.array(list(map(len, positions)), dtype=np.int64),
            np.array(ids, dtype=np.int64), np.array(logprobs, dtype=float))


def _build(example_ids: list, positions: list, vocab_size, k, context) -> TopKCache:
    """Pack and check records given as their ids and position lists.
    ``context(r)`` starts each message about record r."""
    try:
        counts, ids, logprobs = _entries(list(chain.from_iterable(positions)))
    except (TypeError, ValueError, OverflowError):
        for r, pos in enumerate(positions):  # name the first record at fault
            try:
                _entries(pos)
            except (TypeError, ValueError, OverflowError) as exc:
                raise CacheFormatError(f"{context(r)}{exc}") from exc
        raise
    return _pack(example_ids, list(map(len, positions)), counts, ids, logprobs, vocab_size, k,
                 context)


def _pack(example_ids, lengths, counts, ids, logprobs, vocab_size, k, context) -> TopKCache:
    """Check flat entries, ``counts[j]`` of them for position j and
    ``lengths[r]`` positions for record r, and hold them as one TopKCache."""
    first = np.cumsum([0, *lengths], dtype=np.int64)
    mass = _check(example_ids, first, counts, ids, logprobs, vocab_size, k, context)
    return TopKCache(example_ids, first, counts, ids, logprobs, mass, vocab_size, k)


def _check(example_ids, first, counts, ids, logprobs, vocab_size, k, context) -> np.ndarray:
    """Check every position at once; returns the probability mass each keeps.
    Raises on the fault that checking one record at a time meets first: in
    each record its id (a new non-empty string), the vocabulary size, then
    each position through the checks of ``_FAULTS`` in order."""
    if not example_ids:
        return np.zeros(0)
    # one row per position, its entries left-aligned
    cell = np.arange(counts.max(initial=0)) < counts[:, None]
    tok = np.full(cell.shape, np.nan)
    tok[cell] = ids
    lp = np.zeros(cell.shape)
    lp[cell] = logprobs
    p = np.zeros(cell.shape)
    with np.errstate(over="ignore"):
        p[cell] = np.exp(logprobs)
    mass = p.sum(axis=1)
    ordered = np.sort(tok, axis=1)
    bad = np.stack([
        counts == 0,
        counts > k,
        (ordered[:, 1:] == ordered[:, :-1]).any(axis=1),
        ((tok < 0) | (tok >= vocab_size)).any(axis=1),
        (cell & ~np.isfinite(lp)).any(axis=1),
        (cell[:, 1:] & (lp[:, :-1] < lp[:, 1:])).any(axis=1),
        mass > 1.0 + MASS_TOL,
    ])
    faulty = np.flatnonzero(bad.any(axis=0))
    n, first_of = len(example_ids), {}  # the first record of each id
    r = min(int(np.searchsorted(first, faulty[0], side="right")) - 1 if faulty.size else n,
            next((r for r, eid in enumerate(example_ids)
                  if type(eid) is not str or not eid or first_of.setdefault(eid, r) != r), n),
            0 if vocab_size < 2 else n)
    if r == n:
        return mass
    eid, j = example_ids[r], faulty[0] if faulty.size else None
    if not isinstance(eid, str):
        what = "record id must be a string"
    elif not eid:
        what = "record id must be non-empty"
    elif eid in example_ids[:r]:
        what = f"record id {eid} already names an earlier record"
    elif vocab_size < 2:
        what = f"{eid}: vocab_size must be >= 2"
    else:
        what = (f"{eid} position {j - first[r]}: "
                + _FAULTS[int(np.argmax(bad[:, j]))].format(n=counts[j], k=k))
    raise CacheFormatError(context(r) + what)


def topk_cache(example_ids, lengths, ids, logprobs, vocab_size: int, k: int) -> TopKCache:
    """Pack and check rows of equal width as one TopKCache: row j of the
    (positions, width) arrays ``ids``/``logprobs`` is position j's entries,
    and record r has the next ``lengths[r]`` positions."""
    ids, logprobs = np.asarray(ids), np.asarray(logprobs, dtype=float)
    if ids.shape != logprobs.shape or ids.ndim != 2 or sum(lengths) != len(ids):
        raise CacheFormatError("rows must be two equal 2-D arrays, one row per position")
    return _pack(list(example_ids), lengths, np.full(len(ids), ids.shape[1], dtype=np.int64),
                 ids.ravel(), logprobs.ravel(), vocab_size, k, lambda r: "")


def validate_pseudo_record(rec: PseudoLabelRecord, vocab_size: int | None = None) -> None:
    """Raise CacheFormatError unless the record is well formed, with every
    token in [0, vocab_size) when a vocabulary size is given."""
    if not isinstance(rec.example_id, str):
        raise CacheFormatError("record id must be a string")
    if not rec.example_id:
        raise CacheFormatError("record id must be non-empty")
    if not rec.teacher_id:
        raise CacheFormatError(f"{rec.example_id}: teacher id must be non-empty")
    if len(rec.tokens) == 0:
        raise CacheFormatError(f"{rec.example_id}: pseudo summary must be non-empty")
    if not _all_of(rec.tokens, _INTEGER):
        raise CacheFormatError(f"{rec.example_id}: pseudo tokens must be integers")
    if vocab_size is not None and not all(0 <= t < vocab_size for t in rec.tokens):
        raise CacheFormatError(f"{rec.example_id}: pseudo token outside [0, {vocab_size})")
    if not _all_of([rec.beam_width], _INTEGER):
        raise CacheFormatError(f"{rec.example_id}: beam_width must be an integer")
    if rec.beam_width < 1:
        raise CacheFormatError(f"{rec.example_id}: beam_width must be >= 1")


_KINDS = {"topk": "top-k", "pseudo": "pseudo-label"}


def write_cache(records, path, *, vocab_size: int | None = None) -> int:
    """Validate then write a TopKCache, or a list of PseudoLabelRecords over
    a vocabulary of ``vocab_size`` tokens, as a JSONL cache file; returns the
    record count. Nothing is written unless every record passes."""
    if isinstance(records, TopKCache):
        if vocab_size not in (None, records.vocab_size):
            raise CacheFormatError("a TopKCache is written with its own vocab_size")
        cache, vocab_size, k = records, records.vocab_size, records.k
        # the mass the cached entries keep, before densify renormalizes it
        header = {"version": CACHE_VERSION, "kind": "topk", "mass_kept": cache.mass_kept}
        pairs = list(zip(cache.ids.tolist(), cache.logprobs.tolist()))
        cuts, first = cache.bounds.tolist(), cache.first.tolist()
        positions = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
        lines = [json.dumps({"id": eid, "positions": positions[a:b]}, sort_keys=True)
                 for eid, a, b in zip(cache.example_ids, first, first[1:])]
    else:
        records, header, k = list(records), {"version": CACHE_VERSION, "kind": "pseudo"}, 0
        unknown = set(map(type, records)) - {PseudoLabelRecord}
        if unknown:
            raise CacheFormatError(f"unsupported record type {unknown.pop().__name__}")
        if vocab_size is None:
            raise CacheFormatError("pseudo-label records are written with a vocab_size, "
                                   "the vocabulary their tokens must lie in")
        if not _all_of([vocab_size], _INTEGER):
            raise CacheFormatError("vocab_size must be an integer")
        for rec in records:
            validate_pseudo_record(rec, vocab_size)
        lines = [json.dumps({"id": rec.example_id, "teacher": rec.teacher_id,
                             "beam": int(rec.beam_width), "tokens": [int(t) for t in rec.tokens],
                             "text": rec.text}, sort_keys=True)
                 for rec in records]
    header.update(vocab_size=int(vocab_size), k=int(k))
    try:
        write_text_atomic(path, "\n".join([json.dumps(header, sort_keys=True), *lines]) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write cache {path}: {exc}") from exc
    return len(records)


def read_cache(path, kind: str | None = None) -> TopKCache | list[PseudoLabelRecord]:
    """Read and validate a cache file: a top-k cache as one TopKCache, a
    pseudo-label cache as its records. A file that is not of the ``kind``
    asked for ("topk" or "pseudo", default either) is rejected at its header.
    Errors name the offending line."""
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
        version = header.get("version") if isinstance(header, dict) else None
        raise CacheFormatError(f"{path} line 1: unsupported cache version {version!r}")
    found = header.get("kind")
    if found not in _KINDS:
        raise CacheFormatError(f"{path} line 1: unknown kind {found!r}")
    if kind not in (None, found):
        raise CacheFormatError(
            f"{path} line 1: a {_KINDS[found]} cache, not a {_KINDS[kind]} cache")
    vocab_size = header.get("vocab_size")
    k = header.get("k")
    if not _all_of([vocab_size, k], int):
        raise CacheFormatError(f"{path} line 1: vocab_size and k must be integers")

    records: list = []
    lines: list[int] = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"{path} line {lineno}: malformed record ({exc})") from exc
        try:
            if found == "topk":
                records.append((obj["id"], obj["positions"]))
            else:
                rec = PseudoLabelRecord(
                    example_id=obj["id"],
                    teacher_id=obj["teacher"],
                    tokens=list(obj["tokens"]),
                    text=obj["text"],
                    beam_width=obj["beam"],
                )
                validate_pseudo_record(rec, vocab_size)
                records.append(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheFormatError(f"{path} line {lineno}: {exc}") from exc
        lines.append(lineno)
    if found == "pseudo":
        return records
    return _build([eid for eid, _ in records], [pos for _, pos in records], vocab_size, k,
                  lambda r: f"{path} line {lines[r]}: ")


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
