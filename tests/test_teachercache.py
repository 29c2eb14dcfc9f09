import json
import math

import numpy as np
import pytest

from relkd.teachercache import (
    CacheFormatError,
    MixingConfig,
    PseudoLabelRecord,
    TopKRecord,
    densify,
    read_cache,
    sample_target,
    write_cache,
)
from relkd.training import topk_from_logits


def topk_record(example_id="ex0", vocab=5):
    lp = [math.log(0.6), math.log(0.3)]
    return TopKRecord(example_id, [[(1, lp[0]), (3, lp[1])], [(0, lp[0]), (2, lp[1])]], vocab)


def pseudo_record(example_id="ex0", teacher="t1"):
    return PseudoLabelRecord(example_id, teacher, [4, 3, 2], "4 3 2", 4)


class TestWriteRead:
    def test_empty_writes_header_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        n = write_cache([], path, kind="topk", vocab_size=5, k=2)
        assert n == 0
        assert len(path.read_text().splitlines()) == 1
        assert read_cache(path) == []

    def test_topk_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [topk_record(f"ex{i}") for i in range(3)]
        assert write_cache(records, path) == 3
        assert len(path.read_text().splitlines()) == 4
        assert read_cache(path) == records

    def test_pseudo_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        records = [pseudo_record(f"ex{i}") for i in range(3)]
        assert write_cache(records, path, vocab_size=5) == 3
        assert read_cache(path) == records

    def test_unsorted_logprobs_rejected_before_write(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = TopKRecord("ex0", [[(1, -2.0), (3, -0.5)]], 5)
        with pytest.raises(CacheFormatError):
            write_cache([bad], path)
        assert not path.exists()

    def test_duplicate_token_ids_rejected(self, tmp_path):
        bad = TopKRecord("ex0", [[(1, -0.5), (1, -2.0)]], 5)
        with pytest.raises(CacheFormatError):
            write_cache([bad], tmp_path / "c.jsonl")

    def test_excess_mass_rejected(self, tmp_path):
        bad = TopKRecord("ex0", [[(1, 0.1), (2, -0.1)]], 5)
        with pytest.raises(CacheFormatError):
            write_cache([bad], tmp_path / "c.jsonl")

    def test_empty_pseudo_rejected(self, tmp_path):
        bad = PseudoLabelRecord("ex0", "t1", [], "", 4)
        with pytest.raises(CacheFormatError):
            write_cache([bad], tmp_path / "p.jsonl", vocab_size=5)

    def test_truncated_final_line_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cache([topk_record("ex0"), topk_record("ex1")], path)
        text = path.read_text()
        path.write_text(text[: text.rindex('"positions"') + 4])
        with pytest.raises(CacheFormatError, match="line 3"):
            read_cache(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 99, "kind": "topk", "vocab_size": 5, "k": 2}) + "\n")
        with pytest.raises(CacheFormatError, match="version"):
            read_cache(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 1, "kind": "blobs", "vocab_size": 5, "k": 2}) + "\n")
        with pytest.raises(CacheFormatError, match="kind"):
            read_cache(path)

    def test_missing_file_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="nope.jsonl"):
            read_cache(tmp_path / "nope.jsonl")

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records = [topk_record(f"ex{i}") for i in range(4)]
        write_cache(records, a)
        write_cache(records, b)
        assert a.read_bytes() == b.read_bytes()


class TestDensify:
    def test_complete_record_reproduces_distribution(self):
        p = np.array([0.5, 0.2, 0.2, 0.1])
        pairs = sorted(
            [(i, math.log(v)) for i, v in enumerate(p)], key=lambda e: -e[1]
        )
        rec = TopKRecord("ex0", [pairs], 4)
        assert np.allclose(densify(rec, 0), p, atol=1e-12)

    def test_top2_renormalization(self):
        # top-2 of (0.6, 0.3, 0.1) renormalizes to (2/3, 1/3, 0)
        rec = TopKRecord("ex0", [[(0, math.log(0.6)), (1, math.log(0.3))]], 3)
        assert np.allclose(densify(rec, 0), [2 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_output_is_valid_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = int(rng.integers(3, 10))
            k = int(rng.integers(1, v + 1))
            logp = np.log(rng.dirichlet(np.ones(v)))
            order = np.argsort(-logp)[:k]
            rec = TopKRecord("ex0", [[(int(i), float(logp[i])) for i in order]], v)
            p = densify(rec, 0)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            densify(topk_record(), 5)

    def test_empty_position(self):
        rec = TopKRecord("ex0", [[]], 5)
        with pytest.raises(CacheFormatError):
            densify(rec, 0)


class TestSampleTarget:
    GOLD = [7, 8, 9]
    PSEUDO = [pseudo_record(teacher="t1"), pseudo_record(teacher="t2")]

    def test_p_zero_always_gold(self):
        cfg = MixingConfig(p_pseudo=0.0, rng_seed=1)
        for i in range(50):
            toks, prov = sample_target(self.GOLD, [], cfg, i)
            assert toks == self.GOLD and prov == "gold"

    def test_p_one_single_teacher(self):
        cfg = MixingConfig(p_pseudo=1.0, rng_seed=1)
        for i in range(50):
            toks, prov = sample_target(self.GOLD, [self.PSEUDO[0]], cfg, i)
            assert toks == self.PSEUDO[0].tokens and prov == "pseudo:t1"

    def test_deterministic_per_seed_and_index(self):
        cfg = MixingConfig(p_pseudo=0.5, rng_seed=3)
        first = [sample_target(self.GOLD, self.PSEUDO, cfg, i) for i in range(200)]
        second = [sample_target(self.GOLD, self.PSEUDO, cfg, i) for i in range(200)]
        assert first == second

    def test_empty_pseudo_with_positive_p(self):
        with pytest.raises(ValueError):
            sample_target(self.GOLD, [], MixingConfig(p_pseudo=0.3, rng_seed=0), 0)

    def test_empty_gold(self):
        with pytest.raises(ValueError):
            sample_target([], self.PSEUDO, MixingConfig(p_pseudo=0.0, rng_seed=0), 0)

    def test_binomial_concentration(self):
        cfg = MixingConfig(p_pseudo=0.3, rng_seed=0)
        hits = sum(
            sample_target(self.GOLD, self.PSEUDO, cfg, i)[1] != "gold"
            for i in range(10_000)
        )
        assert 0.285 <= hits / 10_000 <= 0.315


class TestMixingConfig:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            MixingConfig(p_pseudo=1.5)
        with pytest.raises(ValueError):
            MixingConfig(p_pseudo=-0.1)


class TestMassKept:
    def _write(self, tmp_path, k, seed=0):
        logits = np.random.default_rng(seed).standard_normal((12, 6)) * 2.0
        records = [TopKRecord(f"ex{i}", topk_from_logits(logits[3 * i: 3 * i + 3], k), 6)
                   for i in range(4)]
        path = tmp_path / "c.jsonl"
        write_cache(records, path, k=k)
        header = json.loads(path.read_text().splitlines()[0])
        return logits, records, path, header["mass_kept"]

    def test_full_support_keeps_all_mass(self, tmp_path):
        _, records, path, mass = self._write(tmp_path, k=6)
        assert abs(mass["mean"] - 1.0) <= 1e-12 and abs(mass["min"] - 1.0) <= 1e-12
        assert read_cache(path) == records

    def test_top1_keeps_the_max_probability(self, tmp_path):
        logits, records, path, mass = self._write(tmp_path, k=1, seed=1)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        top = (p / p.sum(axis=1, keepdims=True)).max(axis=1)
        assert mass["mean"] == pytest.approx(top.mean(), rel=1e-12)
        assert mass["min"] == pytest.approx(top.min(), rel=1e-12)
        assert read_cache(path) == records

    def test_null_without_positions_and_absent_from_pseudo_caches(self, tmp_path):
        write_cache([], tmp_path / "c.jsonl", kind="topk", vocab_size=5, k=2)
        assert json.loads((tmp_path / "c.jsonl").read_text())["mass_kept"] is None
        write_cache([pseudo_record()], tmp_path / "p.jsonl", vocab_size=5)
        assert "mass_kept" not in json.loads((tmp_path / "p.jsonl").read_text().splitlines()[0])
