import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relkd.teachercache import (
    CacheFormatError,
    PseudoLabelRecord,
    read_cache,
    sample_target,
    topk_cache,
    write_cache,
)
from relkd.training import topk_from_logits

from oracles import packed, records_of, topk_line, topk_pairs, write_raw


def topk_record(example_id="ex0"):
    lp = [math.log(0.6), math.log(0.3)]
    return (example_id, [[(1, lp[0]), (3, lp[1])], [(0, lp[0]), (2, lp[1])]])


def topk(tmp_path, records, vocab=5, k=2):
    """The records read back, as the CLI reads them, from a cache file."""
    return read_cache(write_raw(tmp_path / "raw.jsonl", records, vocab, k), "topk")


def pseudo_record(example_id="ex0", teacher="t1"):
    return PseudoLabelRecord(example_id, teacher, [4, 3, 2])


PSEUDO_HEADER = {"version": 3, "kind": "pseudo", "vocab_size": 64, "k": 0}


def pseudo_line(example_id, teacher="t1", tokens=(5, 7)):
    """The fields of a pseudo-label data line."""
    return {"id": example_id, "teacher": teacher, "tokens": list(tokens)}


# one faulty pseudo-label line each, as text from its fields, and the start
# of its message when the faulty line is line 3, record ex1
PSEUDO_FAULTS = {
    "malformed-json": (lambda fields: json.dumps(fields)[:-1], "malformed record ("),
    "missing-key": (lambda fields: json.dumps({key: value for key, value in fields.items()
                                               if key != "tokens"}), "'tokens'"),
    "bool-token": (lambda fields: json.dumps({**fields, "tokens": [5, True]}),
                   "ex1: pseudo tokens must be integers"),
    "empty-tokens": (lambda fields: json.dumps({**fields, "tokens": []}),
                     "ex1: pseudo summary must be non-empty"),
    "token-outside-vocabulary": (lambda fields: json.dumps({**fields, "tokens": [5, 64]}),
                                 "ex1: pseudo token outside [0, 64)"),
    "tokens-not-a-list": (lambda fields: json.dumps({**fields, "tokens": 5}),
                          "'int' object is not iterable"),
    "non-string-teacher": (lambda fields: json.dumps({**fields, "teacher": 1}),
                           "ex1: teacher id must be a string"),
    "empty-teacher": (lambda fields: json.dumps({**fields, "teacher": ""}),
                      "ex1: teacher id must be non-empty"),
    "not-an-object": (lambda fields: json.dumps(list(fields)), "list indices must be"),
}
TWIN_FAULTS = ("malformed-json", "missing-key", "bool-token", "empty-tokens",
               "token-outside-vocabulary")


class TestWriteRead:
    def test_empty_writes_header_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        n = write_cache(topk(tmp_path, []), path)
        assert n == 0
        assert len(path.read_text().splitlines()) == 1
        assert records_of(read_cache(path)) == []

    def test_topk_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [topk_record(f"ex{i}") for i in range(3)]
        assert write_cache(topk(tmp_path, records), path) == 3
        assert len(path.read_text().splitlines()) == 4
        assert records_of(read_cache(path)) == records

    def test_pseudo_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        records = [pseudo_record(f"ex{i}") for i in range(3)]
        assert write_cache(records, path, vocab_size=5) == 3
        assert read_cache(path) == records

    def test_unsorted_logprobs_rejected_before_write(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = ("ex0", [[(1, -2.0), (3, -0.5)]])
        with pytest.raises(CacheFormatError):
            write_cache(topk(tmp_path, [bad]), path)
        assert not path.exists()

    def test_duplicate_token_ids_rejected(self, tmp_path):
        bad = ("ex0", [[(1, -0.5), (1, -2.0)]])
        with pytest.raises(CacheFormatError):
            write_cache(topk(tmp_path, [bad]), tmp_path / "c.jsonl")

    def test_excess_mass_rejected(self, tmp_path):
        bad = ("ex0", [[(1, 0.1), (2, -0.1)]])
        with pytest.raises(CacheFormatError):
            write_cache(topk(tmp_path, [bad]), tmp_path / "c.jsonl")

    def test_pseudo_records_without_a_vocab_size_are_not_written(self, tmp_path):
        # their tokens cannot be range-checked, and the header needs the size
        path = tmp_path / "p.jsonl"
        with pytest.raises(CacheFormatError, match="pseudo-label records are written with a "
                                                   "vocab_size, the vocabulary their tokens"):
            write_cache([pseudo_record()], path)
        assert not path.exists()

    def test_empty_pseudo_rejected(self, tmp_path):
        bad = PseudoLabelRecord("ex0", "t1", [])
        with pytest.raises(CacheFormatError):
            write_cache([bad], tmp_path / "p.jsonl", vocab_size=5)

    def test_truncated_final_line_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_cache(topk(tmp_path, [topk_record("ex0"), topk_record("ex1")]), path)
        text = path.read_text()
        path.write_text(text[: text.rindex('"logprobs"') + 4])
        with pytest.raises(CacheFormatError, match="line 3"):
            read_cache(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 99, "kind": "topk", "vocab_size": 5, "k": 2}) + "\n")
        with pytest.raises(CacheFormatError, match="version"):
            read_cache(path)

    def test_a_version_1_cache_is_rejected_with_its_remedy(self, tmp_path):
        # version 1 held [token_id, logprob] pairs as JSON numbers
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 1, "kind": "topk", "vocab_size": 5, "k": 2}) + "\n"
                        + json.dumps({"id": "ex0", "positions": [[[1, -0.5]]]}) + "\n")
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert str(err.value) == (f"{path} line 1: unsupported cache version 1 (this relkd reads "
                                  "version 3; rerun cache-teacher)")

    @pytest.mark.parametrize("kind, line", [
        ("topk", {"counts": [1], "id": "ex0", "ids": [1], "logprobs": "AAAAAAAA4L8="}),
        ("pseudo", {"beam": 4, "id": "ex0", "teacher": "t1", "text": "4", "tokens": [4]})])
    def test_a_version_2_cache_is_rejected_with_its_remedy(self, tmp_path, kind, line):
        # version 2 held top-k counts and ids as JSON integers, and a pseudo
        # label's text and beam width
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 2, "kind": kind, "vocab_size": 5, "k": 2}) + "\n"
                        + json.dumps(line) + "\n")
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert str(err.value) == (f"{path} line 1: unsupported cache version 2 (this relkd reads "
                                  "version 3; rerun cache-teacher)")

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_integer(self, tmp_path, version):
        # Python compares True == 1.0 == 1; JSON tells them apart
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": version, "kind": "topk", "vocab_size": 5, "k": 2})
                        + "\n")
        with pytest.raises(CacheFormatError, match=f"unsupported cache version {version!r}"):
            read_cache(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"version": 3, "kind": "blobs", "vocab_size": 5, "k": 2}) + "\n")
        with pytest.raises(CacheFormatError, match="kind"):
            read_cache(path)

    def test_missing_file_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="nope.jsonl"):
            read_cache(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_raw_line_separators_in_strings_read_back(self, tmp_path, newline):
        # JSON allows U+2028, U+2029 and U+0085 raw in a string; JSON Lines
        # ends a line at "\n" alone
        records = [PseudoLabelRecord(f"ex\u2028{i}", "t\u0085\u2029", [4, 3]) for i in range(2)]
        topk_records = [(f"ex\u2029\u0085{i}", topk_record()[1]) for i in range(2)]
        write_cache(records, tmp_path / "p.jsonl", vocab_size=5)
        write_cache(topk(tmp_path, topk_records), tmp_path / "c.jsonl")
        for path in (tmp_path / "p.jsonl", tmp_path / "c.jsonl"):
            lines = [json.dumps(json.loads(line), ensure_ascii=False)
                     for line in path.read_text().splitlines()]
            text = newline.join(lines) + newline
            assert len(text.splitlines()) > len(lines)  # str.splitlines would cut records
            path.write_bytes(text.encode())
        assert read_cache(tmp_path / "p.jsonl") == records
        assert records_of(read_cache(tmp_path / "c.jsonl")) == topk_records

    def test_a_byte_that_is_not_utf8_after_a_raw_separator_names_its_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        header = {"version": 3, "kind": "pseudo", "vocab_size": 5, "k": 0}
        line = {"id": "ex\u2028\u0085", "teacher": "t1", "tokens": [4]}
        path.write_bytes("\n".join([json.dumps(header), json.dumps(line, ensure_ascii=False),
                                    '{"id": "ex1"']).encode() + b"\xff\n")
        with pytest.raises(CacheFormatError, match=re.escape(f"{path} line 3: malformed record")):
            read_cache(path)

    def test_a_repeated_pseudo_label_pair_is_not_written(self, tmp_path):
        path = tmp_path / "p.jsonl"
        records = [PseudoLabelRecord("ex0", "t1", [5]), PseudoLabelRecord("ex0", "t1", [6]),
                   PseudoLabelRecord("ex0", "t2", [7])]
        with pytest.raises(CacheFormatError) as err:
            write_cache(records, path, vocab_size=8)
        assert str(err.value) == "ex0: teacher t1 already has an earlier pseudo-label"
        assert not path.exists()

    def test_a_repeated_pseudo_label_pair_is_named_at_its_later_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        pairs = [("ex0", "t1"), ("ex0", "t2"), ("ex1", "t1"), ("ex0", "t2")]  # lines 2 to 5
        lines = [{"version": 3, "kind": "pseudo", "vocab_size": 8, "k": 0}]
        lines += [{"id": eid, "teacher": teacher, "tokens": [5 + i % 3]}
                  for i, (eid, teacher) in enumerate(pairs)]
        path.write_text("\n".join(map(json.dumps, lines)) + "\n")
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert str(err.value) == (f"{path} line 5: ex0: teacher t2 already has an earlier "
                                  "pseudo-label")

    def test_only_json_whitespace_makes_a_blank_line(self, tmp_path):
        # str.strip would also empty a line of U+0085, which json.loads rejects
        path = tmp_path / "p.jsonl"
        lines = [json.dumps(PSEUDO_HEADER), " \t\r", json.dumps(pseudo_line("ex0")), " \x85",
                 json.dumps(pseudo_line("ex1"))]
        path.write_bytes("\n".join(lines).encode() + b"\n")
        with pytest.raises(CacheFormatError, match=re.escape(f"{path} line 4: malformed record")):
            read_cache(path)
        lines[3] = "\t "
        path.write_bytes("\n".join(lines).encode() + b"\n")
        assert read_cache(path) == [PseudoLabelRecord(f"ex{i}", "t1", [5, 7]) for i in range(2)]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records = [topk_record(f"ex{i}") for i in range(4)]
        write_cache(topk(tmp_path, records), a)
        write_cache(topk(tmp_path, records), b)
        assert a.read_bytes() == b.read_bytes()


class TestExactLogprobs:
    def test_extreme_logprobs_come_back_bit_for_bit(self, tmp_path):
        tiny = 5e-324  # the smallest subnormal
        rec = ("ex0", [[(1, -0.0), (2, -1e308)], [(3, tiny), (0, -1e308)], [(4, -tiny)]])
        path = tmp_path / "c.jsonl"
        write_cache(topk(tmp_path, [rec]), path)
        logprobs = read_cache(path).logprobs
        assert logprobs.tobytes() == np.array([-0.0, -1e308, tiny, -1e308, -tiny]).tobytes()

    def test_rewriting_a_read_cache_is_byte_identical(self, tmp_path):
        logits = np.random.default_rng(3).standard_normal((40, 9)) * 4.0
        path, again = tmp_path / "c.jsonl", tmp_path / "again.jsonl"
        write_cache(topk_cache([f"ex{i}" for i in range(8)], [5] * 8,
                               *topk_from_logits(logits, 4), 9, 4), path)
        write_cache(read_cache(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestDensify:
    def test_complete_record_reproduces_distribution(self, tmp_path):
        p = np.array([0.5, 0.2, 0.2, 0.1])
        pairs = sorted(
            [(i, math.log(v)) for i, v in enumerate(p)], key=lambda e: -e[1]
        )
        rec = ("ex0", [pairs])
        assert np.allclose(topk(tmp_path, [rec], 4, 4).densify([0])[0], p, atol=1e-12)

    def test_top2_renormalization(self, tmp_path):
        # top-2 of (0.6, 0.3, 0.1) renormalizes to (2/3, 1/3, 0)
        rec = ("ex0", [[(0, math.log(0.6)), (1, math.log(0.3))]])
        assert np.allclose(topk(tmp_path, [rec], 3).densify([0])[0], [2 / 3, 1 / 3, 0.0],
                           atol=1e-12)

    def test_output_is_valid_distribution(self, tmp_path):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = int(rng.integers(3, 10))
            k = int(rng.integers(1, v + 1))
            logp = np.log(rng.dirichlet(np.ones(v)))
            order = np.argsort(-logp)[:k]
            rec = ("ex0", [[(int(i), float(logp[i])) for i in order]])
            p = topk(tmp_path, [rec], v, k).densify([0])[0]
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_position_out_of_range(self, tmp_path):
        with pytest.raises(IndexError):
            topk(tmp_path, [topk_record()]).densify([5])

    def test_empty_position(self, tmp_path):
        rec = ("ex0", [[]])
        with pytest.raises(CacheFormatError):
            topk(tmp_path, [rec]).densify([0])


class TestSampleTarget:
    GOLD = [7, 8, 9]
    PSEUDO = [pseudo_record(teacher="t1"), pseudo_record(teacher="t2")]

    def test_p_zero_always_gold(self):
        for i in range(50):
            toks, prov = sample_target(self.GOLD, [], 0.0, 1, i)
            assert toks == self.GOLD and prov == "gold"

    def test_p_one_single_teacher(self):
        for i in range(50):
            toks, prov = sample_target(self.GOLD, [self.PSEUDO[0]], 1.0, 1, i)
            assert toks == self.PSEUDO[0].tokens and prov == "pseudo:t1"

    def test_deterministic_per_seed_and_index(self):
        first = [sample_target(self.GOLD, self.PSEUDO, 0.5, 3, i) for i in range(200)]
        second = [sample_target(self.GOLD, self.PSEUDO, 0.5, 3, i) for i in range(200)]
        assert first == second

    def test_empty_pseudo_with_positive_p(self):
        with pytest.raises(ValueError):
            sample_target(self.GOLD, [], 0.3, 0, 0)

    def test_empty_gold(self):
        with pytest.raises(ValueError):
            sample_target([], self.PSEUDO, 0.0, 0, 0)

    def test_binomial_concentration(self):
        hits = sum(
            sample_target(self.GOLD, self.PSEUDO, 0.3, 0, i)[1] != "gold"
            for i in range(10_000)
        )
        assert 0.285 <= hits / 10_000 <= 0.315

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            sample_target(self.GOLD, self.PSEUDO, 1.5, 0, 0)
        with pytest.raises(ValueError):
            sample_target(self.GOLD, self.PSEUDO, -0.1, 0, 0)


class TestMassKept:
    def _write(self, tmp_path, k, seed=0):
        logits = np.random.default_rng(seed).standard_normal((12, 6)) * 2.0
        records = [(f"ex{i}", topk_pairs(*topk_from_logits(logits[3 * i: 3 * i + 3], k)))
                   for i in range(4)]
        path = tmp_path / "c.jsonl"
        write_cache(topk(tmp_path, records, 6, k), path)
        header = json.loads(path.read_text().splitlines()[0])
        return logits, records, path, header["mass_kept"]

    def test_full_support_keeps_all_mass(self, tmp_path):
        _, records, path, mass = self._write(tmp_path, k=6)
        assert abs(mass["mean"] - 1.0) <= 1e-12 and abs(mass["min"] - 1.0) <= 1e-12
        assert records_of(read_cache(path)) == records

    def test_top1_keeps_the_max_probability(self, tmp_path):
        logits, records, path, mass = self._write(tmp_path, k=1, seed=1)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        top = (p / p.sum(axis=1, keepdims=True)).max(axis=1)
        assert mass["mean"] == pytest.approx(top.mean(), rel=1e-12)
        assert mass["min"] == pytest.approx(top.min(), rel=1e-12)
        assert records_of(read_cache(path)) == records

    def test_null_without_positions_and_absent_from_pseudo_caches(self, tmp_path):
        write_cache(topk(tmp_path, []), tmp_path / "c.jsonl")
        assert json.loads((tmp_path / "c.jsonl").read_text())["mass_kept"] is None
        write_cache([pseudo_record()], tmp_path / "p.jsonl", vocab_size=5)
        assert "mass_kept" not in json.loads((tmp_path / "p.jsonl").read_text().splitlines()[0])


class TestIllTypedValues:
    """Top-k counts and ids must be base64 strings of little-endian int32,
    and logprobs a base64 string of 8 bytes per token id; pseudo tokens must
    be JSON integers (never a bool, a float or a string) in the vocabulary;
    bad values fail on read with their line and on write before any file
    exists."""

    def _lines(self, path, header, *records):
        path.write_text("\n".join(json.dumps(o) for o in (header, *records)) + "\n")
        return path

    def _topk(self, tmp_path, header=(), **fields):
        return self._lines(tmp_path / "c.jsonl",
                           {"version": 3, "kind": "topk", "vocab_size": 5, "k": 2, **dict(header)},
                           topk_line("ok", [[(1, -0.5)]]),
                           {**topk_line("ex1", [[(2, -0.5)]]), **fields})

    def _pseudo(self, tmp_path, **fields):
        return self._lines(tmp_path / "p.jsonl",
                           {"version": 3, "kind": "pseudo", "vocab_size": 64, "k": 0},
                           {"id": "ok", "teacher": "t1", "tokens": [5]},
                           {"id": "ex1", "teacher": "t1", "tokens": [5, 7], **fields})

    COUNTS = "counts must be a base64 string"
    IDS = "ids must be a base64 string"
    BASE64 = "logprobs must be a base64 string"
    LENGTHS = "counts, ids and logprobs disagree"

    @pytest.mark.parametrize("fields, message", [
        ({"counts": [1]}, COUNTS), ({"counts": 1}, COUNTS), ({"counts": None}, COUNTS),
        ({"counts": "AQAA!AA="}, COUNTS), ({"counts": "AQAAAA"}, COUNTS),
        ({"ids": [2]}, IDS), ({"ids": 2}, IDS), ({"ids": True}, IDS), ({"ids": "AgAA!AA="}, IDS),
        ({"ids": "AgAAAA"}, IDS), ({"ids": "ééé="}, IDS),
        ({"logprobs": -0.5}, BASE64), ({"logprobs": None}, BASE64),
        ({"logprobs": ["AAAAAAAA4L8="]}, BASE64), ({"logprobs": "AAAAAAAA4L8"}, BASE64),
        ({"logprobs": "AAAA!AAA4L8="}, BASE64), ({"logprobs": "ééé="}, BASE64),
        ({"counts": packed("i", [2])}, LENGTHS), ({"counts": packed("i", [1, 1])}, LENGTHS),
        ({"counts": packed("i", [-1, 2])}, LENGTHS),
        ({"counts": "AQAAAAA="}, LENGTHS), ({"counts": "AQA="}, LENGTHS),
        ({"ids": "AgAAAAA="}, LENGTHS), ({"ids": "AgA="}, LENGTHS),
        ({"ids": packed("i", [2, 3])}, LENGTHS), ({"logprobs": "AAAAAAAA4L8AAAAAAADgvw=="}, LENGTHS),
        ({"logprobs": "AAAAAAAA4A=="}, LENGTHS), ({"logprobs": ""}, LENGTHS),
        ({"counts": "", "ids": ""}, LENGTHS)],
        ids=["counts-list", "counts-number", "null-counts", "non-base64-counts",
             "unpadded-counts", "ids-list", "ids-number", "bool-ids", "non-base64-ids",
             "unpadded-ids", "non-ascii-ids", "number-blob", "null-blob", "list-blob",
             "unpadded-blob", "non-base64-blob", "non-ascii-blob",
             "count-over-ids", "extra-count", "negative-count",
             "5-byte-counts", "2-byte-counts", "5-byte-ids", "2-byte-ids", "extra-id",
             "16-byte-blob", "7-byte-blob", "empty-blob", "no-entries-but-a-blob"])
    def test_ill_typed_topk_line_names_its_line(self, tmp_path, fields, message):
        path = self._topk(tmp_path, **fields)
        with pytest.raises(CacheFormatError, match=re.escape(f"{path} line 3: {message}")):
            read_cache(path)

    @pytest.mark.parametrize("missing", ["counts", "ids", "logprobs"])
    def test_topk_line_without_a_field_names_its_line(self, tmp_path, missing):
        path = self._lines(tmp_path / "c.jsonl",
                           {"version": 3, "kind": "topk", "vocab_size": 5, "k": 2},
                           topk_line("ok", [[(1, -0.5)]]),
                           {key: value for key, value in topk_line("ex1", [[(2, -0.5)]]).items()
                            if key != missing})
        with pytest.raises(CacheFormatError, match=f"line 3: '{missing}'"):
            read_cache(path)

    # one faulty top-k line each, as text, and the start of its message
    LINE_FAULTS = {
        "malformed-json": (lambda fields: json.dumps(fields)[:-1], "malformed record ("),
        "missing-key": (lambda fields: json.dumps({key: value for key, value in fields.items()
                                                   if key != "logprobs"}), "'logprobs'"),
        "ids-as-a-list": (lambda fields: json.dumps({**fields, "ids": [2]}), IDS),
        "bad-base64-counts": (lambda fields: json.dumps({**fields, "counts": "AQAA!AA="}), COUNTS),
        "bad-base64": (lambda fields: json.dumps({**fields, "logprobs": "AAAA!AAA4L8="}), BASE64),
        "disagreeing-counts": (lambda fields: json.dumps({**fields, "counts": packed("i", [2])}),
                               LENGTHS),
        "negative-count": (lambda fields: json.dumps({**fields, "counts": packed("i", [-1, 2])}),
                           LENGTHS),
    }

    @pytest.mark.parametrize("second", LINE_FAULTS)
    @pytest.mark.parametrize("first", LINE_FAULTS)
    def test_of_two_faulty_topk_lines_the_earlier_is_named(self, tmp_path, first, second):
        header = {"version": 3, "kind": "topk", "vocab_size": 5, "k": 2}
        records = [topk_line(f"ex{i}", [[(2, -0.5)]]) for i in range(5)]  # lines 2 to 6

        def read(faults):
            """The error of reading the records with ``faults`` at their lines."""
            lines = [self.LINE_FAULTS[faults[n]][0](fields) if n in faults else json.dumps(fields)
                     for n, fields in enumerate(records, start=2)]
            path = tmp_path / f"{len(faults)}.jsonl"
            path.write_text("\n".join([json.dumps(header), *lines]) + "\n")
            with pytest.raises(CacheFormatError) as err:
                read_cache(path)
            return path, str(err.value)

        alone, message = read({3: first})
        assert message.startswith(f"{alone} line 3: {self.LINE_FAULTS[first][1]}")
        path, both = read({3: first, 5: second})
        assert both == message.replace(str(alone), str(path))

    @pytest.mark.parametrize("second", TWIN_FAULTS)
    @pytest.mark.parametrize("first", TWIN_FAULTS)
    def test_of_two_faulty_pseudo_lines_the_earlier_is_named(self, tmp_path, first, second):
        records = [pseudo_line(f"ex{i}") for i in range(5)]  # lines 2 to 6

        def read(faults):
            """The error of reading the records with ``faults`` at their lines."""
            lines = [PSEUDO_FAULTS[faults[n]][0](fields) if n in faults else json.dumps(fields)
                     for n, fields in enumerate(records, start=2)]
            path = tmp_path / f"{len(faults)}.jsonl"
            path.write_text("\n".join([json.dumps(PSEUDO_HEADER), *lines]) + "\n")
            with pytest.raises(CacheFormatError) as err:
                read_cache(path)
            return path, str(err.value)

        alone, message = read({3: first})
        assert message.startswith(f"{alone} line 3: {PSEUDO_FAULTS[first][1]}")
        path, both = read({3: first, 5: second})
        assert both == message.replace(str(alone), str(path))

    @pytest.mark.parametrize("bits", [math.nan, math.inf, -math.inf])
    def test_non_finite_bits_in_the_blob_name_their_line(self, tmp_path, bits):
        path = self._topk(tmp_path, **topk_line("ex1", [[(2, -0.5), (3, bits)]]))
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert str(err.value) == f"{path} line 3: ex1 position 0: non-finite logprob"

    @pytest.mark.parametrize("fields", [{"tokens": [5.5, 7]}, {"tokens": [True]},
                                        {"tokens": ["5"]}, {"tokens": [999]}, {"tokens": [-4]},
                                        {"tokens": [5, 64]}, {"teacher": 5},
                                        {"teacher": ["t1"]}])
    def test_ill_typed_pseudo_value_names_its_line(self, tmp_path, fields):
        with pytest.raises(CacheFormatError, match="line 3"):
            read_cache(self._pseudo(tmp_path, **fields))

    def test_pseudo_tokens_at_the_vocabulary_edges_are_read(self, tmp_path):
        [_, rec] = read_cache(self._pseudo(tmp_path, tokens=[0, 63]))
        assert rec.tokens == [0, 63]

    @pytest.mark.parametrize("header", [{"vocab_size": True}, {"k": True}, {"k": 2.0}])
    def test_ill_typed_header_is_rejected(self, tmp_path, header):
        with pytest.raises(CacheFormatError, match="line 1"):
            read_cache(self._topk(tmp_path, header))

    def test_header_that_is_not_an_object_is_rejected(self, tmp_path):
        path = self._lines(tmp_path / "c.jsonl", [1, "topk"])
        with pytest.raises(CacheFormatError, match="line 1"):
            read_cache(path)

    @pytest.mark.parametrize("tokens", [[5.5, 7], [True], ["5"], [999], [-4], [64]])
    def test_ill_typed_pseudo_record_is_not_written(self, tmp_path, tokens):
        path = tmp_path / "p.jsonl"
        bad = PseudoLabelRecord("ex1", "t1", tokens)
        with pytest.raises(CacheFormatError):
            write_cache([pseudo_record(), bad], path, vocab_size=64)
        assert not path.exists()

    @pytest.mark.parametrize("teacher", [5, ["t1"], None])
    def test_a_teacher_id_that_is_not_a_string_is_not_written(self, tmp_path, teacher):
        path = tmp_path / "p.jsonl"
        with pytest.raises(CacheFormatError, match="ex1: teacher id must be a string"):
            write_cache([pseudo_record(), PseudoLabelRecord("ex1", teacher, [5])], path,
                        vocab_size=64)
        assert not path.exists()

    @pytest.mark.parametrize("header", [{"vocab_size": True}])
    def test_ill_typed_header_is_not_written(self, tmp_path, header):
        path = tmp_path / "p.jsonl"
        with pytest.raises(CacheFormatError):
            write_cache([pseudo_record()], path, **{"vocab_size": 64, **header})
        assert not path.exists()

    def test_numpy_integers_are_written_as_json_integers(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = topk_cache(["ex0"], [1], np.array([[1]], dtype=np.int64),
                           np.array([[-0.5]], dtype=np.float64), 5, 1)
        write_cache(cache, path)
        assert records_of(read_cache(path)) == [("ex0", [[(1, -0.5)]])]
        tokens = np.array([4, 0], dtype=np.int32)
        write_cache([PseudoLabelRecord("ex0", "t1", list(tokens))], path, vocab_size=5)
        assert json.loads(path.read_text().splitlines()[1])["tokens"] == [4, 0]
        assert read_cache(path) == [PseudoLabelRecord("ex0", "t1", [4, 0])]

    @pytest.mark.parametrize("vocab_size, k", [(2**31 + 1, 1), (5, 2**31)])
    def test_a_cache_past_the_int32_bound_is_not_written(self, tmp_path, vocab_size, k):
        # the cache only declares the size: its one entry allocates nothing large
        path = tmp_path / "c.jsonl"
        cache = topk_cache(["ex0"], [1], [[1]], [[-0.5]], vocab_size, k)
        with pytest.raises(CacheFormatError, match=re.escape(
                f"vocab_size {vocab_size} > 2**31 or k {k} >= 2**31: a cache holds token ids "
                "and counts as int32")):
            write_cache(cache, path)
        assert not path.exists()
        write_cache(topk_cache(["ex0"], [1], [[2**31 - 1]], [[-0.5]], 2**31, 2**31 - 1), path)
        assert read_cache(path).ids.tolist() == [2**31 - 1]


@st.composite
def pseudo_files(draw):
    """The text of a pseudo-label file's data lines, any text raw in their
    strings, with up to two lines faulty by PSEUDO_FAULTS; the indices of
    the faulty lines; and the fields of every line."""
    fields = [pseudo_line(f"ex{i}{draw(st.text(max_size=8))}",
                          draw(st.sampled_from(["t1", "t2\u2028"])),
                          draw(st.lists(st.integers(0, 63), min_size=1, max_size=4)))
              for i in range(draw(st.integers(1, 5)))]
    faults = draw(st.dictionaries(st.integers(0, len(fields) - 1),
                                  st.sampled_from(sorted(PSEUDO_FAULTS)), max_size=2))
    lines = [PSEUDO_FAULTS[faults[i]][0](line) if i in faults
             else json.dumps(line, ensure_ascii=False) for i, line in enumerate(fields)]
    return lines, sorted(faults), fields


@given(pseudo_files())
def test_a_pseudo_file_fails_as_its_first_faulty_line_alone(tmp_path_factory, case):
    lines, faulty, fields = case
    tmp = tmp_path_factory.mktemp("p")

    def read(path, data_lines):
        path.write_text("\n".join([json.dumps(PSEUDO_HEADER), *data_lines]) + "\n",
                        encoding="utf-8")
        return read_cache(path, "pseudo")

    path, one = tmp / "all.jsonl", tmp / "one.jsonl"
    if not faulty:
        assert read(path, lines) == [PseudoLabelRecord(f["id"], f["teacher"], f["tokens"])
                                     for f in fields]
        return
    with pytest.raises(CacheFormatError) as alone:
        read(one, [lines[faulty[0]]])
    with pytest.raises(CacheFormatError) as whole:
        read(path, lines)
    assert str(alone.value).startswith(f"{one} line 2: ")
    assert str(whole.value) == str(alone.value).replace(f"{one} line 2: ",
                                                        f"{path} line {faulty[0] + 2}: ")
