"""Property tests: cache round trips, densify, dedup and target sampling."""

import math

import numpy as np
from hypothesis import given, strategies as st

from relkd.longdoc import ChunkConfig, dedup
from relkd.teachercache import (
    MixingConfig,
    PseudoLabelRecord,
    TopKRecord,
    densify,
    read_cache,
    sample_target,
    write_cache,
)


@st.composite
def topk_positions(draw, vocab):
    """One cached position: k distinct ids of a distribution over the
    vocabulary, sorted by descending log-probability."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=vocab, max_size=vocab))
    ids = draw(st.permutations(range(vocab)))[: draw(st.integers(1, vocab))]
    total = sum(weights)
    pairs = [(t, math.log(weights[t] / total)) for t in ids]
    return sorted(pairs, key=lambda e: -e[1])


@st.composite
def topk_records(draw, min_positions=0):
    vocab = draw(st.integers(2, 12))
    n = draw(st.integers(0, 4))
    return [TopKRecord(f"ex{i}", draw(st.lists(topk_positions(vocab), min_size=min_positions,
                                                max_size=5)), vocab)
            for i in range(n)]


pseudo_records = st.lists(st.builds(
    PseudoLabelRecord,
    example_id=st.text(min_size=1),
    teacher_id=st.text(min_size=1),
    tokens=st.lists(st.integers(0, 11), min_size=1, max_size=8),
    text=st.text(),
    beam_width=st.integers(1, 8),
), max_size=4)


@given(topk_records())
def test_topk_cache_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("c") / "topk.jsonl"
    write_cache(records, path, kind="topk", vocab_size=records[0].vocab_size if records else 5,
                k=max((len(p) for r in records for p in r.positions), default=1))
    assert read_cache(path) == records


@given(pseudo_records)
def test_pseudo_cache_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("c") / "pseudo.jsonl"
    write_cache(records, path, kind="pseudo", vocab_size=12, k=0)
    assert read_cache(path) == records


@given(topk_records(min_positions=1))
def test_densify_rows_are_distributions_on_the_cached_support(records):
    for rec in records:
        p = densify(rec)
        assert p.shape == (len(rec.positions), rec.vocab_size)
        for row, pairs in zip(p, rec.positions):
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
    pseudo = [PseudoLabelRecord("e", "t1", [5], "5", 4), PseudoLabelRecord("e", "t2", [6], "6", 4)]
    cfg = MixingConfig(p_pseudo=p, rng_seed=seed)
    first = [sample_target(gold, pseudo, cfg, i) for i in indices]
    # other draws in between, in another order, with the global numpy state moved
    np.random.seed(noise % 2**32)
    np.random.random()
    sample_target(gold, pseudo, MixingConfig(p_pseudo=p, rng_seed=noise), 0)
    again = [sample_target(gold, pseudo, cfg, i) for i in reversed(indices)][::-1]
    assert again == first
