"""Property tests: cache round trips, densify, dedup and target sampling."""

import math

import numpy as np
from hypothesis import given, strategies as st

from relkd.longdoc import ChunkConfig, dedup
from relkd.teachercache import (
    PseudoLabelRecord,
    read_cache,
    sample_target,
    write_cache,
)

from oracles import records_of, write_raw


@st.composite
def topk_positions(draw, vocab, width):
    """One cached position: ``width`` distinct ids of a distribution over the
    vocabulary, sorted by descending log-probability."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=vocab, max_size=vocab))
    ids = draw(st.permutations(range(vocab)))[:width]
    total = sum(weights)
    pairs = [(t, math.log(weights[t] / total)) for t in ids]
    return sorted(pairs, key=lambda e: -e[1])


@st.composite
def topk_records(draw, min_positions=0):
    """(example_id, positions) records over a drawn vocabulary, its size and
    a drawn k; each position holds min(k, vocab) entries."""
    vocab = draw(st.integers(2, 12))
    k = draw(st.integers(1, vocab + 2))
    n = draw(st.integers(0, 4))
    return [(f"ex{i}", draw(st.lists(topk_positions(vocab, min(k, vocab)),
                                     min_size=min_positions, max_size=5)))
            for i in range(n)], vocab, k


pseudo_records = st.lists(st.builds(
    PseudoLabelRecord,
    example_id=st.text(min_size=1),
    teacher_id=st.text(min_size=1),
    tokens=st.lists(st.integers(0, 11), min_size=1, max_size=8),
), max_size=4, unique_by=lambda rec: (rec.example_id, rec.teacher_id))


@given(topk_records(), st.sampled_from([0, 2**31 - 12]))
def test_topk_cache_round_trip(tmp_path_factory, case, shift):
    # token ids moved up by ``shift`` reach the int32 bound, and a record of
    # no positions and one at the vocabulary's last id are always there
    records, vocab, k = case
    k = min(k, vocab)  # so that the shift keeps each position k wide
    vocab += shift
    last = [(vocab - 1, 0.0), *((shift + t, -1000.0) for t in range(k - 1))]
    records = [(eid, [[(t + shift, lp) for t, lp in pairs] for pairs in positions])
               for eid, positions in records] + [("none", []), ("last", [last])]
    tmp = tmp_path_factory.mktemp("c")
    cache = read_cache(write_raw(tmp / "raw.jsonl", records, vocab, k), "topk")
    write_cache(cache, tmp / "topk.jsonl")
    again = read_cache(tmp / "topk.jsonl")
    assert records_of(again) == records
    for name in ("ids", "logprobs", "first", "mass"):
        assert getattr(again, name).tobytes() == getattr(cache, name).tobytes()


@given(pseudo_records)
def test_pseudo_cache_round_trip(tmp_path_factory, records):
    # tokens at both ends of the vocabulary are always there
    edges = PseudoLabelRecord("edges", "t", [11, 0])
    records = [rec for rec in records if (rec.example_id, rec.teacher_id) != ("edges", "t")]
    records.append(edges)
    path = tmp_path_factory.mktemp("c") / "pseudo.jsonl"
    write_cache(records, path, vocab_size=12)
    assert read_cache(path) == records


@given(topk_records(min_positions=1))
def test_densify_rows_are_distributions_on_the_cached_support(tmp_path_factory, case):
    records, vocab, k = case
    tmp = tmp_path_factory.mktemp("c")
    for r, (example_id, positions) in enumerate(records):
        path = write_raw(tmp / f"{r}.jsonl", [(example_id, positions)], vocab, k)
        p = read_cache(path, "topk").densify()
        assert p.shape == (len(positions), vocab)
        for row, pairs in zip(p, positions):
            support = [t for t, _ in pairs]
            assert abs(row.sum() - 1.0) <= 1e-12
            assert np.all(np.delete(row, support) == 0.0)
            assert np.all(row[support] > 0.0)


@given(st.lists(st.lists(st.integers(0, 8), max_size=6), max_size=12),
       st.floats(0.0, 1.0))
def test_dedup_is_idempotent(sentences, threshold):
    cfg = ChunkConfig(jaccard_threshold=threshold)
    kept = dedup(sentences, cfg)
    assert dedup(kept, cfg) == kept


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.lists(st.integers(0, 10_000), min_size=1, max_size=20), st.integers(0, 2**32 - 1))
def test_sample_target_is_a_function_of_seed_and_index(seed, p, indices, noise):
    gold = [7, 8, 9]
    pseudo = [PseudoLabelRecord("e", "t1", [5]), PseudoLabelRecord("e", "t2", [6])]
    first = [sample_target(gold, pseudo, p, seed, i) for i in indices]
    # other draws in between, in another order, with the global numpy state moved
    np.random.seed(noise % 2**32)
    np.random.random()
    sample_target(gold, pseudo, p, noise, 0)
    again = [sample_target(gold, pseudo, p, seed, i) for i in reversed(indices)][::-1]
    assert again == first
