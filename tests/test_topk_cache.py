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
    CacheFormatError,
    PseudoLabelRecord,
    TopKRecord,
    index_topk,
    read_cache,
    topk_cache,
    write_cache,
)
from relkd.training import topk_from_logits

from oracles import densify_oracle, records_of, topk_pairs, validate_topk_record_oracle

FAULTS = ("unsorted", "duplicate", "out_of_range", "non_finite", "over_k", "excess_mass",
          "empty_position", "empty_id", "small_vocab")


@st.composite
def caches(draw, uniform=False):
    """Records of one vocabulary, each position a distribution's top entries
    sorted by descending log-probability, and the cache's k. With
    ``uniform`` every position holds the same number of entries."""
    vocab = draw(st.integers(2, 12))
    k = draw(st.integers(1, vocab))
    width = draw(st.integers(1, k))
    records = []
    for i in range(draw(st.integers(1, 4))):
        positions = []
        for _ in range(draw(st.integers(0, 4))):
            weights = draw(st.lists(st.integers(1, 1000), min_size=vocab, max_size=vocab))
            ids = draw(st.permutations(range(vocab)))[: width if uniform else draw(
                st.integers(1, k))]
            total = sum(weights)
            positions.append(sorted(((t, math.log(weights[t] / total)) for t in ids),
                                    key=lambda e: -e[1]))
        records.append(TopKRecord(f"ex{i}", positions, vocab))
    return records, k


@st.composite
def faulty_caches(draw):
    """A cache, unchanged or with one fault of FAULTS at a drawn spot."""
    records, k = draw(caches())
    fault = draw(st.sampled_from((None, *FAULTS)))
    if fault == "empty_id":
        records[draw(st.integers(0, len(records) - 1))].example_id = ""
    elif fault == "small_vocab":
        for rec in records:
            rec.vocab_size = 1
    elif fault is not None:
        spots = [(r, p) for r, rec in enumerate(records) for p in range(len(rec.positions))]
        assume(spots)
        r, p = draw(st.sampled_from(spots))
        pairs = records[r].positions[p]
        j = draw(st.integers(0, len(pairs) - 1))
        vocab = records[r].vocab_size
        if fault == "unsorted":
            pairs.reverse()
        elif fault == "duplicate":
            pairs.append((pairs[j][0], pairs[-1][1] - 1.0))
        elif fault == "out_of_range":
            pairs[j] = (draw(st.sampled_from((-1, vocab, vocab + 7))), pairs[j][1])
        elif fault == "non_finite":
            pairs[j] = (pairs[j][0], draw(st.sampled_from((math.nan, math.inf, -math.inf))))
        elif fault == "over_k":
            k = len(pairs) - 1
        elif fault == "excess_mass":
            pairs[0] = (pairs[0][0], 0.5)
        else:
            records[r].positions[p] = []
    return records, k


def _write_raw(path, records, k):
    """The records as a cache file, unchecked, so that faults reach the reader."""
    header = {"version": 1, "kind": "topk", "vocab_size": records[0].vocab_size, "k": k}
    lines = [json.dumps({"id": r.example_id, "positions": r.positions}) for r in records]
    path.write_text("\n".join([json.dumps(header), *lines]) + "\n")


def _oracle(records, k):
    """(line, message) of the first fault, or None, and the masses kept."""
    masses = []
    for line, rec in enumerate(records, start=2):
        try:
            masses += validate_topk_record_oracle(rec.example_id, rec.positions,
                                                  rec.vocab_size, k)
        except ValueError as exc:
            return (line, str(exc)), masses
    return None, masses


@given(faulty_caches())
def test_checks_match_the_per_record_oracle(tmp_path_factory, case):
    records, k = case
    path = tmp_path_factory.mktemp("c") / "topk.jsonl"
    _write_raw(path, records, k)
    fault, masses = _oracle(records, k)
    out = path.with_name("written.jsonl")
    if fault is None:
        cache = read_cache(path, "topk")
        assert records_of(cache) == records
        assert np.allclose(cache.mass, masses, rtol=0, atol=1e-14)
        assert records_of(index_topk(records, k=k)) == records
        write_cache(index_topk(records, k=k), out)
        assert out.exists()
        return
    line, message = fault
    with pytest.raises(CacheFormatError) as read_err:
        read_cache(path, "topk")
    assert str(read_err.value) == f"{path} line {line}: {message}"
    with pytest.raises(CacheFormatError) as write_err:
        write_cache(index_topk(records, k=k), out)
    assert str(write_err.value) == message
    assert not out.exists()
    # the batch of one agrees record by record
    bad = records[line - 2]
    with pytest.raises(CacheFormatError) as one_err:
        index_topk([bad], k=k)
    assert str(one_err.value) == message


@given(caches(uniform=True), st.integers(0, 2**32 - 1))
def test_whole_table_densify_is_the_oracle_bit_for_bit(tmp_path_factory, case, seed):
    records, k = case
    path = tmp_path_factory.mktemp("c") / "topk.jsonl"
    write_cache(index_topk(records, k=k), path)
    cache = read_cache(path, "topk")
    vocab = records[0].vocab_size
    rows = cache.densify()
    expected = [densify_oracle(r.positions, vocab) for r in records if r.positions]
    assert np.array_equal(rows, np.concatenate(expected) if expected else np.zeros((0, vocab)))
    # any gather of positions is those rows, and a record alone densifies the same
    order = np.random.default_rng(seed).permutation(len(rows))
    assert np.array_equal(cache.densify(order), rows[order])
    for rec in records:
        if rec.positions:
            assert np.array_equal(index_topk([rec]).densify(),
                                  densify_oracle(rec.positions, vocab))


@given(caches())
def test_ragged_densify_is_the_oracle_to_rounding(records_k):
    records, _ = records_k
    for rec in records:
        if rec.positions:
            rows = index_topk([rec]).densify()
            assert np.allclose(rows, densify_oracle(rec.positions, rec.vocab_size),
                               rtol=0, atol=1e-15)
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)


def test_records_are_found_by_index_and_by_example_id():
    recs = [TopKRecord(f"ex{i}", [[(i, -0.5)]] * i, 5) for i in range(4)]
    cache = index_topk(recs)
    records = records_of(cache)
    assert len(cache) == 4 and records == recs
    assert records[-1] == recs[3] and records[cache.index["ex2"]] == recs[2]
    assert "ex2" in cache.index and "ex9" not in cache.index and recs[1] in records
    assert index_topk(records, k=5).k == 5
    with pytest.raises(IndexError):
        records[4]
    with pytest.raises(KeyError):
        cache.index["ex9"]


def test_records_of_another_vocabulary_are_rejected():
    with pytest.raises(CacheFormatError, match="ex1: vocab_size differs"):
        index_topk([TopKRecord("ex0", [[(1, -0.5)]], 5), TopKRecord("ex1", [[(1, -0.5)]], 6)])


def test_read_cache_of_kind_topk_rejects_a_pseudo_cache(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"version": 1, "kind": "pseudo", "vocab_size": 5, "k": 0}\n')
    with pytest.raises(CacheFormatError, match="line 1: a pseudo-label cache"):
        read_cache(path, "topk")
    assert read_cache(path, "pseudo") == read_cache(path) == []


def test_read_cache_of_kind_pseudo_rejects_a_topk_cache(tmp_path):
    path = tmp_path / "c.jsonl"
    write_cache(index_topk([TopKRecord("ex0", [[(1, -0.5)]], 5)]), path)
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
def test_rows_pack_as_their_pairs_do(case):
    vocab, k, lengths, ids, logprobs = case
    example_ids = [f"ex{i}" for i in range(len(lengths))]
    pairs, ends = topk_pairs(ids, logprobs), np.cumsum(lengths).tolist()
    records = [TopKRecord(eid, pairs[end - n:end], vocab)
               for eid, end, n in zip(example_ids, ends, lengths)]
    try:
        expected = index_topk(records, k=k, vocab_size=vocab)
    except CacheFormatError as exc:
        with pytest.raises(CacheFormatError) as err:
            topk_cache(example_ids, lengths, ids, logprobs, vocab, k)
        assert str(err.value) == str(exc)
        return
    cache = topk_cache(example_ids, lengths, ids, logprobs, vocab, k)
    assert records_of(cache) == records_of(expected) == records
    assert cache.mass.tobytes() == expected.mass.tobytes()
    assert (cache.k, cache.vocab_size) == (expected.k, expected.vocab_size) == (k, vocab)


def test_rows_must_match_the_record_lengths():
    ids, logprobs = topk_from_logits(np.zeros((3, 5)), 2)
    for lengths, rows in (([2], (ids, logprobs)), ([3], (ids, logprobs[:, :1])),
                          ([3], (ids.ravel(), logprobs.ravel()))):
        with pytest.raises(CacheFormatError, match="one row per position"):
            topk_cache(["ex0"], lengths, *rows, 5, 2)


@pytest.mark.parametrize("options", [{"k": True}, {"k": 2.0}, {"vocab_size": True},
                                     {"vocab_size": "5"}])
def test_ill_typed_k_or_vocab_size_is_rejected(options):
    with pytest.raises(CacheFormatError, match="vocab_size and k must be integers"):
        index_topk([TopKRecord("ex0", [[(1, -0.5)]], 5)], **options)


@pytest.mark.parametrize("cache", [index_topk([]), index_topk([], k=2),
                                   index_topk([], vocab_size=5)])
def test_an_empty_cache_without_vocab_size_or_k_is_not_written(tmp_path, cache):
    path = tmp_path / "c.jsonl"
    with pytest.raises(CacheFormatError, match="vocab_size and k are required"):
        write_cache(cache, path)
    assert not path.exists()


def test_what_write_cache_does_not_take_is_not_written(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = TopKRecord("ex0", [[(1, -0.5)]], 5)
    with pytest.raises(CacheFormatError, match="unsupported record type TopKRecord"):
        write_cache([rec], path)
    with pytest.raises(CacheFormatError, match="its own vocab_size"):
        write_cache(index_topk([rec]), path, vocab_size=6)
    with pytest.raises(CacheFormatError, match="vocab_size and k are required"):
        write_cache([PseudoLabelRecord("ex0", "t1", [4], "4", 1)], path)
    assert not path.exists()
