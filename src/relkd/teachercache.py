"""Offline teacher supervision store.

Cache files are UTF-8 JSON Lines. The first line is a header::

    {"version": 3, "kind": "topk"|"pseudo", "vocab_size": int, "k": int}

A top-k header also records ``"mass_kept": {"mean": float, "min": float}``,
the probability mass the cached entries keep per position (null for a cache
without positions); readers ignore it. A top-k data line holds one record
as ``{"counts": str, "id": str, "ids": str, "logprobs": str}``: the base64
of each position's entry count and every entry's token id (position after
position, each position's entries by descending log-probability) as
little-endian int32, and of those entries' logprobs as little-endian
float64, which keeps every bit. A pseudo-label data line is ``{"id": str,
"teacher": str, "tokens": [int]}``, at most one per (example id, teacher)
pair. Lines end at "\\n" alone, so a JSON string may hold a raw U+2028, and
only JSON whitespace makes a blank line. Files are written atomically and
are immutable once written; readers validate every line and report failures
by line number.

A top-k cache is held as one ``TopKCache``: every cached entry in flat
arrays, densified in one step. Its constructor is the one place a top-k
cache is checked, by one vectorized pass over all positions. Two builders
call it: ``read_cache`` from a file (rejecting one of the wrong ``kind`` at
line 1), and ``topk_cache`` from a model's top-k rows, one row per position.
``write_cache`` takes either a ``TopKCache`` or a list of
``PseudoLabelRecord``s; it formats each top-k line from three buffers made
once per cache into the bytes that ``json.dumps(record, sort_keys=True)``
gives. ``read_cache`` runs its kind's one line checker over all data lines
at once, and on each line alone only to name the first faulty one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atomic import write_text_atomic
from .toymodel import decode_base64, encode_base64, integral

CACHE_VERSION = 3

# exp(logprobs) at one position may exceed 1 by at most this much.
MASS_TOL = 1e-6

# What is wrong with a position, one entry per position check of the
# ``TopKCache`` constructor, in order.
_FAULTS = ("no entries", "{n} entries exceed k={k}", "duplicate token ids",
           "token id out of range", "non-finite logprob", "logprobs not sorted descending",
           "probability mass exceeds 1")

_DISAGREE = ("counts, ids and logprobs disagree: need 4 bytes per count and per id, 8 logprob "
             "bytes per id, and counts >= 0 summing to the number of ids")


class CacheFormatError(ValueError):
    """A cache file or record violates the schema."""


@dataclass
class PseudoLabelRecord:
    """A teacher-generated summary of one example, as token ids."""

    example_id: str
    teacher_id: str
    tokens: list[int]


def _all_of(values, accepts) -> bool:
    """Whether the type of every value passes ``accepts``, a test of types
    such as ``toymodel.integral``."""
    return all(map(accepts, set(map(type, values))))


class TopKCache:
    """Top-k records as flat arrays, checked as they are built: ``read_cache``
    builds one from a file, ``topk_cache`` from a model's rows. ``ids`` and
    ``logprobs`` hold every entry, position after position; position j has
    entries ``bounds[j]:bounds[j + 1]`` and keeps mass ``mass[j]``; record r
    has positions ``first[r]:first[r + 1]``, and ``index`` maps example ids
    to records. Its length is its record count.
    """

    def __init__(self, example_ids, lengths, counts, ids, logprobs, vocab_size, k, context):
        """Check and hold flat entries, ``counts[j]`` of them for position j
        and ``lengths[r]`` positions for record r. Every position is checked
        at once; the error is the fault that checking one record at a time
        meets first: in each record its id (a new non-empty string), the
        vocabulary size, then each position through the checks of ``_FAULTS``
        in order, prefixed by ``context(r)``."""
        example_ids, lengths = list(example_ids), list(lengths)
        if (len(lengths) != len(example_ids) or not _all_of(lengths, integral)
                or min(lengths, default=0) < 0 or sum(lengths) != len(counts)):
            raise CacheFormatError("lengths must be one non-negative integer per record id, "
                                   "summing to one row per position")
        first = np.cumsum([0, *lengths], dtype=np.int64)
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
        # the record that holds the first faulty position, if any
        worst = int(np.searchsorted(first, faulty[0], side="right")) - 1 if faulty.size else -1
        index: dict[str, int] = {}
        for r, eid in enumerate(example_ids):
            if type(eid) is not str:
                what = "record id must be a string"
            elif not eid:
                what = "record id must be non-empty"
            elif index.setdefault(eid, r) != r:
                what = f"record id {eid} already names an earlier record"
            elif vocab_size < 2:
                what = f"{eid}: vocab_size must be >= 2"
            elif r == worst:
                j = faulty[0]
                what = (f"{eid} position {j - first[r]}: "
                        + _FAULTS[int(np.argmax(bad[:, j]))].format(n=counts[j], k=k))
            else:
                continue
            raise CacheFormatError(context(r) + what)
        self.example_ids = example_ids
        self.first = first
        self.bounds = np.concatenate([[0], np.cumsum(counts)])
        self.ids = ids
        self.logprobs = logprobs
        self.mass = mass
        self.vocab_size = vocab_size
        self.k = k
        self.index = index

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


def topk_cache(example_ids, lengths, ids, logprobs, vocab_size: int, k: int) -> TopKCache:
    """Rows of equal width as one TopKCache: row j of the (positions, width)
    arrays ``ids``/``logprobs`` is position j's entries, and record r has the
    next ``lengths[r]`` positions."""
    ids, logprobs = np.asarray(ids), np.asarray(logprobs, dtype=float)
    if ids.shape != logprobs.shape or ids.ndim != 2:
        raise CacheFormatError("rows must be two equal 2-D arrays, one row per position")
    if ids.size and not np.issubdtype(ids.dtype, np.integer):  # an empty list is float
        raise CacheFormatError(f"token ids must be integers, got dtype {ids.dtype}")
    return TopKCache(example_ids, lengths, np.full(len(ids), ids.shape[1], dtype=np.int64),
                     ids.ravel(), logprobs.ravel(), vocab_size, k, lambda r: "")


def _check_pseudo(records: list[PseudoLabelRecord], vocab_size: int) -> list[PseudoLabelRecord]:
    """The records, each with non-empty string ids and a non-empty list of
    integer tokens in [0, vocab_size). The checks run over all records at
    once, and one record at a time only to name the first faulty one."""
    names = [rec.example_id for rec in records] + [rec.teacher_id for rec in records]
    tokens = list(chain.from_iterable(rec.tokens for rec in records))
    if (set(map(type, names)) <= {str} and all(names) and all(len(rec.tokens) for rec in records)
            and _all_of(tokens, integral)
            and 0 <= min(tokens, default=0) and max(tokens, default=0) < vocab_size):
        return records
    for rec in records:
        if not isinstance(rec.example_id, str):
            raise CacheFormatError("record id must be a string")
        if not rec.example_id:
            raise CacheFormatError("record id must be non-empty")
        if not isinstance(rec.teacher_id, str):
            raise CacheFormatError(f"{rec.example_id}: teacher id must be a string")
        if not rec.teacher_id:
            raise CacheFormatError(f"{rec.example_id}: teacher id must be non-empty")
        if len(rec.tokens) == 0:
            raise CacheFormatError(f"{rec.example_id}: pseudo summary must be non-empty")
        if not _all_of(rec.tokens, integral):
            raise CacheFormatError(f"{rec.example_id}: pseudo tokens must be integers")
        if not all(0 <= t < vocab_size for t in rec.tokens):
            raise CacheFormatError(f"{rec.example_id}: pseudo token outside [0, {vocab_size})")
    return records


_KINDS = {"topk": "top-k", "pseudo": "pseudo-label"}


def write_cache(records, path, *, vocab_size: int | None = None) -> int:
    """Validate then write a TopKCache, or a list of PseudoLabelRecords over
    a vocabulary of ``vocab_size`` tokens, as a JSONL cache file; returns the
    record count. Nothing is written unless every record passes."""
    if isinstance(records, TopKCache):
        if vocab_size not in (None, records.vocab_size):
            raise CacheFormatError("a TopKCache is written with its own vocab_size")
        cache, vocab_size, k = records, records.vocab_size, records.k
        if vocab_size > 2**31 or k >= 2**31:
            raise CacheFormatError(f"vocab_size {vocab_size} > 2**31 or k {k} >= 2**31: a cache "
                                   "holds token ids and counts as int32")
        # the mass the cached entries keep, before densify renormalizes it
        header = {"version": CACHE_VERSION, "kind": "topk", "mass_kept": cache.mass_kept}
        # json.dumps(record, sort_keys=True) of each record, from buffers made once
        counts, ids, logprobs = (memoryview(values.astype(dtype).tobytes()) for values, dtype in (
            (np.diff(cache.bounds), "<i4"), (cache.ids, "<i4"), (cache.logprobs, "<f8")))
        cuts, first = cache.bounds.tolist(), cache.first.tolist()
        lines = [f'{{"counts": "{encode_base64(counts[4 * a:4 * b])}", "id": {json.dumps(eid)}, '
                 f'"ids": "{encode_base64(ids[4 * cuts[a]:4 * cuts[b]])}", '
                 f'"logprobs": "{encode_base64(logprobs[8 * cuts[a]:8 * cuts[b]])}"}}'
                 for eid, a, b in zip(cache.example_ids, first, first[1:])]
    else:
        records, header, k = list(records), {"version": CACHE_VERSION, "kind": "pseudo"}, 0
        unknown = set(map(type, records)) - {PseudoLabelRecord}
        if unknown:
            raise CacheFormatError(f"unsupported record type {unknown.pop().__name__}")
        if vocab_size is None:
            raise CacheFormatError("pseudo-label records are written with a vocab_size, "
                                   "the vocabulary their tokens must lie in")
        if not _all_of([vocab_size], integral):
            raise CacheFormatError("vocab_size must be an integer")
        _check_pseudo(records, vocab_size)
        _check_pairs(records, lambda r: "")
        lines = [f'{{"id": {json.dumps(rec.example_id)}, "teacher": {json.dumps(rec.teacher_id)}, '
                 f'"tokens": [{", ".join(map(str, map(int, rec.tokens)))}]}}'
                 for rec in records]
    header.update(vocab_size=int(vocab_size), k=int(k))
    try:
        write_text_atomic(path, "\n".join([json.dumps(header, sort_keys=True), *lines]) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write cache {path}: {exc}") from exc
    return len(records)


def _topk_lines(objs) -> tuple[list, list, np.ndarray, np.ndarray, np.ndarray]:
    """Parsed top-k data lines as ``TopKCache``'s first five arguments. Each
    check runs over every line at once: this raises if any line alone would,
    and raises for one line what checking it alone raises."""
    eids, *texts = ([obj[key] for obj in objs] for key in ("id", "counts", "ids", "logprobs"))
    blobs = list(map(decode_base64, texts, ("counts", "ids", "logprobs")))
    count_bytes, id_bytes, logprob_bytes = (np.array(list(map(len, b)), dtype=np.int64)
                                            for b in blobs)
    if (count_bytes % 4).any() or (id_bytes % 4).any() or (logprob_bytes != 2 * id_bytes).any():
        raise ValueError(_DISAGREE)
    lengths = count_bytes // 4
    counts, ids = (np.frombuffer(b"".join(b), "<i4").astype(np.int64) for b in blobs[:2])
    # the entries before each line's first position and after its last
    ends = np.concatenate([[0], np.cumsum(counts)])[np.concatenate([[0], np.cumsum(lengths)])]
    if counts.min(initial=0) < 0 or (np.diff(ends) != id_bytes // 4).any():
        raise ValueError(_DISAGREE)
    return (eids, lengths.tolist(), counts, ids,
            np.frombuffer(b"".join(blobs[2]), "<f8").astype(float))


def _check_pairs(records, context) -> None:
    """Raise CacheFormatError, prefixed by ``context(r)``, at the first record
    r whose (example id, teacher) pair an earlier record holds."""
    seen = set()
    for r, rec in enumerate(records):
        if (rec.example_id, rec.teacher_id) in seen:
            raise CacheFormatError(context(r) + f"{rec.example_id}: teacher {rec.teacher_id} "
                                   "already has an earlier pseudo-label")
        seen.add((rec.example_id, rec.teacher_id))


def read_cache(path, kind: str | None = None) -> TopKCache | list[PseudoLabelRecord]:
    """Read and validate a cache file: a top-k cache as one TopKCache, a
    pseudo-label cache as its records. A file that is not of the ``kind``
    asked for ("topk" or "pseudo", default either) is rejected at its header.
    Lines end at "\\n" alone. Errors name the offending line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise OSError(f"failed to read cache {path}: {exc}") from exc
    if not data:
        raise CacheFormatError(f"{path}: empty file, missing header")
    try:
        raw = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:  # named at the line of its first byte that is not UTF-8
        n = data.count(b"\n", 0, exc.start) + 1
        raise CacheFormatError(f"{path} line {n}: malformed "
                               f"{'header' if n == 1 else 'record'} ({exc})") from exc

    try:
        header = json.loads(raw[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CacheFormatError(f"{path} line 1: malformed header ({exc})") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if type(version) is not int or version != CACHE_VERSION:  # True == 1.0 == 1
        raise CacheFormatError(f"{path} line 1: unsupported cache version {version!r} (this "
                               f"relkd reads version {CACHE_VERSION}; rerun cache-teacher)")
    found = header.get("kind")
    if found not in _KINDS:
        raise CacheFormatError(f"{path} line 1: unknown kind {found!r}")
    if kind not in (None, found):
        raise CacheFormatError(
            f"{path} line 1: a {_KINDS[found]} cache, not a {_KINDS[kind]} cache")
    vocab_size = header.get("vocab_size")
    k = header.get("k")
    if not _all_of([vocab_size, k], integral):
        raise CacheFormatError(f"{path} line 1: vocab_size and k must be integers")

    numbers = [n for n, line in enumerate(raw[1:], start=2) if line.strip(" \t\r")]
    check = _topk_lines if found == "topk" else lambda objs: _check_pseudo(
        [PseudoLabelRecord(obj["id"], obj["teacher"], list(obj["tokens"])) for obj in objs],
        vocab_size)
    try:
        checked = check([json.loads(raw[n - 1]) for n in numbers])
    except (KeyError, TypeError, ValueError, RecursionError):
        # name the first faulty line, by the message it gets alone
        for n in numbers:
            try:
                check([json.loads(raw[n - 1])])
            except (json.JSONDecodeError, RecursionError) as exc:
                raise CacheFormatError(f"{path} line {n}: malformed record ({exc})") from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise CacheFormatError(f"{path} line {n}: {exc}") from exc
        raise

    def context(r):
        return f"{path} line {numbers[r]}: "

    if found == "topk":
        return TopKCache(*checked, vocab_size, k, context)
    _check_pairs(checked, context)
    return checked


def sample_target(
    gold: list[int],
    pseudo: list[PseudoLabelRecord],
    p_pseudo: float,
    seed: int,
    example_index: int,
) -> tuple[list[int], str]:
    """Pick the training target: gold, or a pseudo-label with probability
    ``p_pseudo``. A pure function of (seed, example_index), so repeated runs
    see identical target choices; training passes ``derive_seed(seed, 3)`` of
    its run's seed. Returns the token sequence and a provenance flag ("gold"
    or "pseudo:<teacher_id>")."""
    if not 0.0 <= p_pseudo <= 1.0:
        raise ValueError(f"p_pseudo must lie in [0, 1], got {p_pseudo}")
    if len(gold) == 0:
        raise ValueError("gold target must be non-empty")
    if p_pseudo > 0 and len(pseudo) == 0:
        raise ValueError("p_pseudo > 0 but no pseudo-labels are available")
    rng = np.random.default_rng([seed, example_index])
    if p_pseudo > 0 and rng.random() < p_pseudo:
        rec = pseudo[int(rng.integers(len(pseudo)))]
        return list(rec.tokens), f"pseudo:{rec.teacher_id}"
    return list(gold), "gold"
