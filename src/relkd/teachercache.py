"""Offline teacher supervision store.

Cache files are UTF-8 JSON Lines. The first line is a header::

    {"version": 4, "kind": "topk"|"pseudo", "vocab_size": int, "k": int}

Its ``vocab_size`` and ``k`` are integers, never bools, with 2 <= vocab_size
<= 2**31 (token ids are stored as int32), and a top-k cache has k >= 1.
Every top-k position holds exactly w = min(k, vocab_size) entries. A top-k
header also records ``"mass_kept": {"mean": float, "min": float}``, the
probability mass the cached entries keep per position (null for a cache
without positions); readers ignore it. A top-k data line holds one record as
``{"id": str, "ids": str, "logprobs": str}``: the base64 of every entry's
token id (position after position, w per position, each position's entries
by descending log-probability) as little-endian int32, and of those entries'
logprobs as little-endian float64, which keeps every bit. A pseudo-label
data line is ``{"id": str, "teacher": str, "tokens": [int]}``, at most one
per (example id, teacher) pair. Lines end at "\\n" alone, so a JSON string
may hold a raw U+2028, and only JSON whitespace makes a blank line. Files are
written atomically and are immutable once written; readers validate every
line and report failures by line number.

A top-k cache is held as one ``TopKCache``: its entries as (positions, w)
arrays, densified in one step. Its constructor is the one place a top-k
cache's rows are checked: their width, then one vectorized pass over all
positions. Two builders call it: ``read_cache`` from a file (rejecting one
of the wrong ``kind`` at line 1), and ``topk_cache`` from a model's top-k
rows, one row per position. ``write_cache`` takes either a ``TopKCache`` or
a list of ``PseudoLabelRecord``s; it formats each top-k line from two
buffers made once per cache into the bytes that
``json.dumps(record, sort_keys=True)`` gives. The header values are checked
at line 1 on read, in the constructor and in ``write_cache``. ``read_cache``
runs its kind's one line checker over all data lines at once, and on each
line alone only to name the first faulty one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .atomic import write_text_atomic
from .toymodel import decode_base64, encode_base64, integral

CACHE_VERSION = 4

# exp(logprobs) at one position may exceed 1 by at most this much.
MASS_TOL = 1e-6

# What is wrong with a position, one entry per position check of the
# ``TopKCache`` constructor, in order.
_FAULTS = ("duplicate token ids", "token id out of range", "non-finite logprob",
           "logprobs not sorted descending", "probability mass exceeds 1",
           "probability mass is zero")

_DISAGREE = ("ids and logprobs disagree: need 4 bytes per id, {w} ids per position "
             "(w = min(k, vocab_size)) and 8 logprob bytes per id")


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


def _check_header(kind: str, vocab_size, k, context: str = "") -> None:
    """Raise CacheFormatError, prefixed by ``context``, unless ``vocab_size``
    and ``k`` are integers with 2 <= vocab_size <= 2**31 (a cache holds token
    ids as int32) and, for a top-k cache, k >= 1."""
    if not _all_of([vocab_size, k], integral):
        what = "vocab_size and k must be integers"
    elif not 2 <= vocab_size <= 2**31:
        what = f"vocab_size {vocab_size} outside [2, 2**31]: a cache holds token ids as int32"
    elif kind == "topk" and k < 1:
        what = f"k {k} must be >= 1 in a top-k cache"
    else:
        return
    raise CacheFormatError(context + what)


class TopKCache:
    """Top-k records as (positions, w) arrays, w = min(k, vocab_size),
    checked as they are built: ``read_cache`` builds one from a file,
    ``topk_cache`` from a model's rows. Row j of ``ids`` and ``logprobs``
    holds position j's entries, and position j keeps mass ``mass[j]``;
    record r has positions ``first[r]:first[r + 1]``, and ``index`` maps
    example ids to records. Its length is its record count.
    """

    def __init__(self, example_ids, lengths, ids, logprobs, vocab_size, k, context):
        """Check and hold the (positions, w) rows ``ids`` and ``logprobs``,
        ``lengths[r]`` positions for record r, of a cache whose ``vocab_size``
        and ``k`` pass the header check. Every position is checked at once;
        the error is the fault that checking one record at a time meets
        first: in each record its id (a new non-empty string), then each
        position through the checks of ``_FAULTS`` in order, prefixed by
        ``context(r)``."""
        _check_header("topk", vocab_size, k)
        w = min(k, vocab_size)
        if ids.shape != logprobs.shape or ids.ndim != 2 or ids.shape[1] != w:
            raise CacheFormatError(f"rows must be two equal 2-D arrays, one row per position of "
                                   f"min(k, vocab_size) = {w} entries")
        example_ids, lengths = list(example_ids), list(lengths)
        if (len(lengths) != len(example_ids) or not _all_of(lengths, integral)
                or min(lengths, default=0) < 0 or sum(lengths) != len(ids)):
            raise CacheFormatError("lengths must be one non-negative integer per record id, "
                                   "summing to one row per position")
        first = np.cumsum([0, *lengths], dtype=np.int64)
        with np.errstate(over="ignore"):
            mass = np.exp(logprobs).sum(axis=1)
        ordered = np.sort(ids, axis=1)
        bad = np.stack([
            (ordered[:, 1:] == ordered[:, :-1]).any(axis=1),
            ((ids < 0) | (ids >= vocab_size)).any(axis=1),
            (~np.isfinite(logprobs)).any(axis=1),
            (logprobs[:, :-1] < logprobs[:, 1:]).any(axis=1),
            mass > 1.0 + MASS_TOL,
            ~(mass > 0),
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
            elif r == worst:
                j = faulty[0]
                what = f"{eid} position {j - first[r]}: {_FAULTS[int(np.argmax(bad[:, j]))]}"
            else:
                continue
            raise CacheFormatError(context(r) + what)
        self.example_ids = example_ids
        self.first = first
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
        p = np.zeros((pos.size, self.vocab_size))
        np.put_along_axis(p, self.ids[pos], np.exp(self.logprobs[pos]) / self.mass[pos, None],
                          axis=1)
        return p


def topk_cache(example_ids, lengths, ids, logprobs, vocab_size: int, k: int) -> TopKCache:
    """Rows as one TopKCache: row j of the (positions, min(k, vocab_size))
    arrays ``ids``/``logprobs`` is position j's entries, and record r has the
    next ``lengths[r]`` positions."""
    ids, logprobs = np.asarray(ids), np.asarray(logprobs, dtype=float)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):  # an empty list is float
        raise CacheFormatError(f"token ids must be integers, got dtype {ids.dtype}")
    return TopKCache(example_ids, lengths, ids, logprobs, vocab_size, k, lambda r: "")


def _check_pseudo(records: list[PseudoLabelRecord], vocab_size: int) -> list[PseudoLabelRecord]:
    """The records, each with non-empty string ids and a non-empty list of
    integer tokens in [0, vocab_size); the first faulty record raises."""
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
        _check_header("topk", vocab_size, k)
        # the mass the cached entries keep, before densify renormalizes it
        header = {"version": CACHE_VERSION, "kind": "topk", "mass_kept": cache.mass_kept}
        # json.dumps(record, sort_keys=True) of each record, from buffers made once
        ids, logprobs = (memoryview(values.astype(dtype).tobytes())
                         for values, dtype in ((cache.ids, "<i4"), (cache.logprobs, "<f8")))
        cuts = (cache.first * cache.ids.shape[1]).tolist()  # entries before each record
        lines = [f'{{"id": {json.dumps(eid)}, "ids": "{encode_base64(ids[4 * a:4 * b])}", '
                 f'"logprobs": "{encode_base64(logprobs[8 * a:8 * b])}"}}'
                 for eid, a, b in zip(cache.example_ids, cuts, cuts[1:])]
    else:
        records, header, k = list(records), {"version": CACHE_VERSION, "kind": "pseudo"}, 0
        unknown = set(map(type, records)) - {PseudoLabelRecord}
        if unknown:
            raise CacheFormatError(f"unsupported record type {unknown.pop().__name__}")
        if vocab_size is None:
            raise CacheFormatError("pseudo-label records are written with a vocab_size, "
                                   "the vocabulary their tokens must lie in")
        _check_header("pseudo", vocab_size, k)
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


def _topk_lines(objs, w: int) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Parsed top-k data lines of ``w`` entries per position as
    ``TopKCache``'s first four arguments. Each check runs over every line at
    once: this raises if any line alone would, and raises for one line what
    checking it alone raises."""
    eids, *texts = ([obj[key] for obj in objs] for key in ("id", "ids", "logprobs"))
    blobs = list(map(decode_base64, texts, ("ids", "logprobs")))
    id_bytes, logprob_bytes = (np.array(list(map(len, b)), dtype=np.int64) for b in blobs)
    if (id_bytes % (4 * w)).any() or (logprob_bytes != 2 * id_bytes).any():
        raise ValueError(_DISAGREE.format(w=w))
    ids, logprobs = (np.frombuffer(b"".join(b), dtype).reshape(-1, w)
                     for b, dtype in zip(blobs, ("<i4", "<f8")))
    return eids, (id_bytes // (4 * w)).tolist(), ids.astype(np.int64), logprobs.astype(float)


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
    vocab_size, k = header.get("vocab_size"), header.get("k")
    _check_header(found, vocab_size, k, f"{path} line 1: ")

    numbers = [n for n, line in enumerate(raw[1:], start=2) if line.strip(" \t\r")]
    check = (lambda objs: _topk_lines(objs, min(k, vocab_size))) if found == "topk" else (
        lambda objs: _check_pseudo(
            [PseudoLabelRecord(obj["id"], obj["teacher"], list(obj["tokens"])) for obj in objs],
            vocab_size))
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
