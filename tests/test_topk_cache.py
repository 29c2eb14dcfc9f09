"""The array-backed top-k cache against the per-record oracles: the same
inputs accepted and rejected, the same line and position named, and the
same densified rows."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from relkd.teachercache import (
    CACHE_VERSION,
    CacheFormatError,
    PseudoLabelRecord,
    TopKCache,
    read_cache,
    topk_cache,
    write_cache,
)
from relkd.training import topk_from_logits

from oracles import (
    densify_oracle,
    records_of,
    topk_line,
    topk_pairs,
    validate_topk_record_oracle,
    write_raw,
)

FAULTS = ("unsorted", "duplicate", "out_of_range", "non_finite", "excess_mass", "zero_mass",
          "empty_id")


@st.composite
def caches(draw):
    """(example_id, positions) records, each position a distribution's top
    min(k, vocab) entries sorted by descending log-probability, their
    vocabulary size and the cache's k."""
    vocab = draw(st.integers(2, 12))
    k = draw(st.integers(1, vocab + 2))
    records = []
    for i in range(draw(st.integers(1, 4))):
        positions = []
        for _ in range(draw(st.integers(0, 4))):
            weights = draw(st.lists(st.integers(1, 1000), min_size=vocab, max_size=vocab))
            ids = draw(st.permutations(range(vocab)))[:k]
            total = sum(weights)
            positions.append(sorted(((t, math.log(weights[t] / total)) for t in ids),
                                    key=lambda e: -e[1]))
        records.append((f"ex{i}", positions))
    return records, vocab, k


@st.composite
def faulty_caches(draw):
    """A cache, unchanged or with up to two faults of FAULTS at drawn spots,
    each at its own record: the checks must name the one met first."""
    records, vocab, k = draw(caches())
    taken = set()  # the records that hold a fault
    # often an empty id, before or after a position fault
    second = st.none() | st.just("empty_id") | st.sampled_from(FAULTS)
    for fault in (draw(st.sampled_from((None, *FAULTS))), draw(second)):
        if fault is None:
            continue
        free = [r for r in range(len(records)) if r not in taken]
        spots = [(r, p) for r in free for p in range(len(records[r][1]))]
        if not (free if fault == "empty_id" else spots):
            assume(taken)  # only a second fault may find no place
            break
        if fault == "empty_id":
            r = draw(st.sampled_from(free))
            records[r] = ("", records[r][1])
            taken.add(r)
            continue
        r, p = draw(st.sampled_from(spots))
        taken.add(r)
        pairs = records[r][1][p]
        j = draw(st.integers(0, len(pairs) - 1))
        if fault == "unsorted":
            pairs.reverse()
        elif fault == "duplicate":  # a position of one entry stays whole
            pairs[j - 1] = (pairs[j][0], pairs[j - 1][1])
        elif fault == "out_of_range":
            pairs[j] = (draw(st.sampled_from((-1, vocab, vocab + 7))), pairs[j][1])
        elif fault == "non_finite":
            pairs[j] = (pairs[j][0], draw(st.sampled_from((math.nan, math.inf, -math.inf))))
        elif fault == "zero_mass":  # every exp(logprob) underflows to 0.0
            pairs[:] = [(t, -800.0 - i) for i, (t, _) in enumerate(pairs)]
        else:
            pairs[0] = (pairs[0][0], 0.5)
    return records, vocab, k


def _oracle(records, vocab, k):
    """(line, message) of the first fault, or None, and the masses kept."""
    masses = []
    for line, (example_id, positions) in enumerate(records, start=2):
        try:
            masses += validate_topk_record_oracle(example_id, positions, vocab)
        except ValueError as exc:
            return (line, str(exc)), masses
    return None, masses


@given(faulty_caches())
def test_checks_match_the_per_record_oracle(tmp_path_factory, case):
    records, vocab, k = case
    tmp = tmp_path_factory.mktemp("c")
    path = write_raw(tmp / "topk.jsonl", records, vocab, k)
    fault, masses = _oracle(records, vocab, k)
    if fault is None:
        cache = read_cache(path, "topk")
        assert records_of(cache) == records
        assert np.allclose(cache.mass, masses, rtol=0, atol=1e-14)
        out = tmp / "written.jsonl"
        write_cache(cache, out)
        assert records_of(read_cache(out, "topk")) == records
        return
    line, message = fault
    with pytest.raises(CacheFormatError) as read_err:
        read_cache(path, "topk")
    assert str(read_err.value) == f"{path} line {line}: {message}"
    # the file of the faulty record alone agrees
    one = write_raw(tmp / "one.jsonl", [records[line - 2]], vocab, k)
    with pytest.raises(CacheFormatError) as one_err:
        read_cache(one, "topk")
    assert str(one_err.value) == f"{one} line 2: {message}"


@given(caches(), st.integers(0, 2**32 - 1))
def test_whole_table_densify_is_the_oracle_bit_for_bit(tmp_path_factory, case, seed):
    records, vocab, k = case
    tmp = tmp_path_factory.mktemp("c")
    cache = read_cache(write_raw(tmp / "topk.jsonl", records, vocab, k), "topk")
    rows = cache.densify()
    expected = [densify_oracle(positions, vocab) for _, positions in records if positions]
    assert np.array_equal(rows, np.concatenate(expected) if expected else np.zeros((0, vocab)))
    # any gather of positions is those rows, and a record alone densifies the same
    order = np.random.default_rng(seed).permutation(len(rows))
    assert np.array_equal(cache.densify(order), rows[order])
    for r, rec in enumerate(records):
        if rec[1]:
            alone = read_cache(write_raw(tmp / f"{r}.jsonl", [rec], vocab, k), "topk")
            assert np.array_equal(alone.densify(), densify_oracle(rec[1], vocab))


# ids that JSON escapes: a quote, a backslash, a newline, a non-ASCII letter
# and U+2028, a line separator to str.splitlines
ESCAPED_IDS = ('"', "\\", "\n", "é", "\u2028", 'a"b\\c\ndé\u2028')


@given(caches(), st.permutations(ESCAPED_IDS))
def test_each_written_line_is_json_dumps_of_its_record(tmp_path_factory, case, names):
    drawn, vocab, k = case
    records = [(name, positions) for name, (_, positions) in zip(names, drawn)]
    tmp = tmp_path_factory.mktemp("c")
    path = tmp / "written.jsonl"
    write_cache(read_cache(write_raw(tmp / "raw.jsonl", records, vocab, k), "topk"), path)
    _, *lines, end = path.read_bytes().split(b"\n")
    assert end == b""
    assert lines == [json.dumps(topk_line(*rec), sort_keys=True).encode() for rec in records]
    assert records_of(read_cache(path, "topk")) == records


def test_records_are_found_by_index_and_by_example_id(tmp_path):
    recs = [(f"ex{i}", [[(i, -0.5)]] * i) for i in range(4)]
    cache = read_cache(write_raw(tmp_path / "c.jsonl", recs, 5, 1), "topk")
    records = records_of(cache)
    assert len(cache) == 4 and records == recs
    assert records[-1] == recs[3] and records[cache.index["ex2"]] == recs[2]
    assert "ex2" in cache.index and "ex9" not in cache.index and recs[1] in records
    with pytest.raises(IndexError):
        records[4]
    with pytest.raises(KeyError):
        cache.index["ex9"]


def test_a_repeated_record_id_is_named_at_its_line(tmp_path):
    # an index keeps one record per id, so a repeat would hide the other's rows
    recs = [("ex0", [[(1, -0.5)]]), ("ex1", [[(2, -0.5)]]), ("ex0", [[(3, -0.5)]] * 2)]
    path = write_raw(tmp_path / "c.jsonl", recs, 5, 1)
    with pytest.raises(CacheFormatError) as err:
        read_cache(path, "topk")
    assert str(err.value) == f"{path} line 4: record id ex0 already names an earlier record"
    # a fault in an earlier record is still met first
    recs[1] = ("ex1", [[(7, -0.5)]])
    with pytest.raises(CacheFormatError, match="line 3: ex1 position 0: token id out of range"):
        read_cache(write_raw(tmp_path / "c.jsonl", recs, 5, 1), "topk")
    with pytest.raises(CacheFormatError, match="^record id a already names an earlier record$"):
        topk_cache(["a", "b", "a"], [1, 1, 1], np.zeros((3, 1), int), np.zeros((3, 1)), 5, 1)


def test_read_cache_of_kind_topk_rejects_a_pseudo_cache(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"version": CACHE_VERSION, "kind": "pseudo", "vocab_size": 5,
                                "k": 0}) + "\n")
    with pytest.raises(CacheFormatError, match="line 1: a pseudo-label cache"):
        read_cache(path, "topk")
    assert read_cache(path, "pseudo") == read_cache(path) == []


def test_read_cache_of_kind_pseudo_rejects_a_topk_cache(tmp_path):
    path = write_raw(tmp_path / "c.jsonl", [("ex0", [[(1, -0.5)]])], 5, 1)
    with pytest.raises(CacheFormatError, match=re.escape(f"{path} line 1: a top-k cache")):
        read_cache(path, "pseudo")
    assert records_of(read_cache(path, "topk")) == records_of(read_cache(path))


@st.composite
def topk_rows(draw):
    """A model's top-k rows over records of drawn lengths, unchanged or with
    one fault at a drawn position: an id outside the vocabulary, or a row
    out of order."""
    vocab = draw(st.integers(2, 12))
    k = draw(st.integers(1, vocab + 2))
    lengths = draw(st.lists(st.integers(0, 4), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.standard_normal((sum(lengths), vocab)) * draw(st.sampled_from((0.5, 3.0, 30.0)))
    if draw(st.booleans()):
        logits = np.round(logits)  # ties, broken toward lower ids
    ids, logprobs = topk_from_logits(logits, k)
    fault = draw(st.sampled_from((None, "out_of_range", "unsorted")))
    if fault is not None and len(ids):
        j = draw(st.integers(0, len(ids) - 1))
        if fault == "out_of_range":
            ids[j, draw(st.integers(0, ids.shape[1] - 1))] = vocab + draw(st.integers(0, 3))
        else:
            assume(ids.shape[1] > 1 and logprobs[j, 0] > logprobs[j, 1])
            ids[j, :2], logprobs[j, :2] = ids[j, 1::-1].copy(), logprobs[j, 1::-1].copy()
    return vocab, k, lengths, ids, logprobs


@given(topk_rows())
def test_rows_pack_as_their_pairs_do(tmp_path_factory, case):
    vocab, k, lengths, ids, logprobs = case
    example_ids = [f"ex{i}" for i in range(len(lengths))]
    pairs, ends = topk_pairs(ids, logprobs), np.cumsum(lengths).tolist()
    records = [(eid, pairs[end - n:end]) for eid, end, n in zip(example_ids, ends, lengths)]
    path = write_raw(tmp_path_factory.mktemp("c") / "topk.jsonl", records, vocab, k)
    try:
        expected = read_cache(path, "topk")
    except CacheFormatError as exc:
        with pytest.raises(CacheFormatError) as err:
            topk_cache(example_ids, lengths, ids, logprobs, vocab, k)
        line = example_ids.index(str(err.value).split()[0]) + 2
        assert str(exc) == f"{path} line {line}: {err.value}"
        return
    cache = topk_cache(example_ids, lengths, ids, logprobs, vocab, k)
    assert records_of(cache) == records_of(expected) == records
    assert cache.mass.tobytes() == expected.mass.tobytes()
    assert (cache.k, cache.vocab_size) == (expected.k, expected.vocab_size) == (k, vocab)


def test_rows_must_match_the_record_lengths():
    ids, logprobs = topk_from_logits(np.zeros((3, 5)), 2)
    for eids, lengths, rows in ((["ex0"], [2], (ids, logprobs)),
                                (["ex0"], [3], (ids, logprobs[:, :1])),
                                (["ex0"], [3], (ids.ravel(), logprobs.ravel())),
                                # a negative length lets an earlier record claim too many rows
                                (["a", "b"], [3, -1], (ids[:2], logprobs[:2])),
                                # a length with no record id leaves its rows unowned
                                (["a"], [1, 1], (ids[:2], logprobs[:2])),
                                # rows narrower than min(k, vocab_size)
                                (["ex0"], [3], (ids[:, :1], logprobs[:, :1]))):
        with pytest.raises(CacheFormatError, match="one row per position"):
            topk_cache(eids, lengths, *rows, 5, 2)


def test_the_constructor_rejects_rows_wider_than_w():
    # written, such rows would read back as more positions than were built
    with pytest.raises(CacheFormatError, match=re.escape("min(k, vocab_size) = 1 entries")):
        TopKCache(["a"], [1], np.array([[0, 1, 2]]), np.array([[-1.5, -2.0, -3.0]]), 5, 1,
                  lambda r: "")


def test_rows_whose_mass_underflows_to_zero_are_rejected():
    # densify would divide their 0.0 by 0.0 and return a NaN row
    ids = np.array([[3, 1], [0, 2], [4, 5]])
    logprobs = np.array([[-0.5, -1.5], [-800.0, -801.0], [-1.0, -2.0]])
    with pytest.raises(CacheFormatError, match="^b position 0: probability mass is zero$"):
        topk_cache(["a", "b"], [1, 2], ids, logprobs, 8, 2)


@pytest.mark.parametrize("ids", [np.array([[1.5]]), np.array([[math.nan]]),
                                 np.array([[True]])], ids=["float", "nan", "bool"])
def test_token_ids_that_are_not_integers_are_rejected(ids):
    # such ids would be written as lines that read back as malformed
    with pytest.raises(CacheFormatError, match="token ids must be integers"):
        topk_cache(["a"], [1], ids, np.array([[-0.5]]), 5, 1)


def test_what_write_cache_does_not_take_is_not_written(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = ("ex0", [[(1, -0.5)]])
    with pytest.raises(CacheFormatError, match="unsupported record type tuple"):
        write_cache([rec], path)
    cache = read_cache(write_raw(tmp_path / "raw.jsonl", [rec], 5, 1), "topk")
    with pytest.raises(CacheFormatError, match="its own vocab_size"):
        write_cache(cache, path, vocab_size=6)
    with pytest.raises(CacheFormatError, match="written with a vocab_size"):
        write_cache([PseudoLabelRecord("ex0", "t1", [4])], path)
    assert not path.exists()
