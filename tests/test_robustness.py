"""Ill-typed configs fail before any output; every writer replaces its file
atomically."""

import base64
import dataclasses
import json
import math
import os
import re
import struct
import types

import numpy as np
import pytest

import relkd.atomic
from relkd import cli
from relkd.cli import DEFAULT_CONFIG, _NULLABLE, _write_json, _write_jsonl, main
from relkd.teachercache import CACHE_VERSION, PseudoLabelRecord, write_cache
from relkd.toymodel import init_params, save_checkpoint
from relkd.training import synthetic_document

from oracles import line_positions, topk_line
from test_cli import write_config


class TestConfigTypes:
    @pytest.mark.parametrize("text, message", [
        ('{"preset": "A1", "training": {"epochs": "3"}}', "training.epochs must be an integer"),
        ('[{"preset": "A1"}]', "must be a JSON object"),
        ('{"training": {"equal_teacher_weights": 1}}', "training.equal_teacher_weights"),
        ('{"corpus": {"n_train": true}}', "corpus.n_train must be an integer"),
        ('{"training": {"epochs": 3.0}}', "training.epochs must be an integer"),
        ('{"preset": 3}', "preset must be a string or null"),
        ('{"teacher1": {"checkpoint": null}}', "teacher1.checkpoint must be a string"),
        ('{"pseudo_teachers": [{"id": 1, "checkpoint": "t.json"}]}', "pseudo_teachers[0].id"),
        ('{"pseudo_teachers": ["t.json"]}', "pseudo_teachers[0] must be an object"),
        ('{"mapreduce": []}', "mapreduce must be an object"),
        ('{"preset": "A1", "corpus": {"n_train": 20, "n_test": 5}, '
         '"training": {"epochs": 1, "alpha_kd": NaN}}', "training.alpha_kd must be a finite number"),
        ('{"training": {"mu": NaN}}', "training.mu must be a finite number"),
        ('{"training": {"learning_rate": Infinity}}',
         "training.learning_rate must be a finite number"),
        ('{"training": {"cpdp_clamp": Infinity}}', "training.cpdp_clamp must be a finite number"),
    ])
    def test_ill_typed_value_fails_before_any_output(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "cache-teacher", "distill"])
    @pytest.mark.parametrize("text, path", [
        ('{"training": {"gen_max_len": 0}}', "training.gen_max_len"),
        ('{"training": {"gen_max_len": -3}}', "training.gen_max_len"),
        ('{"beam_width": 0}', "beam_width"),
        ('{"beam_width": -1}', "beam_width"),
        ('{"cache_k": 0}', "cache_k"),
        ('{"cache_k": -2}', "cache_k"),
        ('{"student": {"hidden_dim": 0}}', "student.hidden_dim"),
        ('{"student": {"hidden_dim": -3}}', "student.hidden_dim"),
    ])
    def test_out_of_range_width_fails_before_any_output(self, tmp_path, capsys, text, path,
                                                         command):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert f"{path} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("training, key", [
        ({"learning_rate": -0.5}, "learning_rate"),
        ({"learning_rate": 0}, "learning_rate"),
        ({"lambda_override": 1.5}, "lambda_override"),
        ({"lambda_override": -2.0}, "lambda_override"),
        ({"anchor_tokens": -3}, "anchor_tokens"),
        ({"anchor_tokens": 0}, "anchor_tokens"),
        ({"tau_min": 3.0}, "tau_min"),
        ({"p_pseudo": -0.1}, "p_pseudo"),
        ({"batch_size": 0}, "batch_size"),
        ({"alpha_kd": 0.6, "alpha_inter": 0.6}, "alpha_kd"),
        ({"fixed_tau": 0}, "fixed_tau"),
        ({"loss_mode": "A9"}, "loss_mode"),
        ({"mu": -1.0}, "mu"),
        ({"p_pseudo": 1.5}, "p_pseudo"),
        ({"gate_steepness": 0}, "gate_steepness"),
    ])
    def test_out_of_range_training_value_fails_before_any_output(self, tmp_path, capsys,
                                                                 training, key):
        cfg = write_config(tmp_path / "c.json", preset="ewad_cpdp", training=training)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
        assert f"error: training.{key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("teacher", ["teacher1", "teacher2"])
    def test_a_teacher_hidden_dim_is_an_unknown_key(self, tmp_path, capsys, teacher):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({teacher: {"hidden_dim": 999}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
        assert f"unknown key {teacher}.hidden_dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corpus, message", [
        ({"min_sentences": 0, "max_sentences": 0}, "corpus.max_sentences must be >= 1"),
        ({"task": "copy", "min_sentence_len": 0, "max_sentence_len": 0},
         "corpus.max_sentence_len must be >= 1"),
        ({"min_sentences": 3, "max_sentences": 2},
         "corpus.max_sentences must be >= min_sentences (3), got 2"),
        ({"min_sentence_len": -3}, "corpus.min_sentence_len must be >= 0, got -3"),
        ({"vocab_size": 100}, "corpus.vocab_size must lie in [5, 64], got 100"),
        ({"vocab_size": 4}, "corpus.vocab_size must lie in [5, 64], got 4"),
        ({"task": "translate"}, "corpus.task must be 'compress' or 'copy'"),
        ({"stride": 0}, "corpus.stride must be >= 1"),
        ({"n_train": -1}, "corpus.n_train must be >= 0, got -1"),
        ({"n_test": -2}, "corpus.n_test must be >= 0, got -2"),
    ])
    def test_a_corpus_that_cannot_be_drawn_fails_before_any_output(self, tmp_path, capsys,
                                                                   corpus, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": corpus}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evaluate"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cache-teacher", "distill", "mapreduce"])
    @pytest.mark.parametrize("overrides, message", [
        ({"pseudo_teachers": [{"id": "p", "checkpoint": "t1.json"},
                              {"id": "p", "checkpoint": "t2.json"}]},
         "pseudo_teachers[].id must be unique, got ['p', 'p']"),
        ({"pseudo_teachers": [{"id": "p"}]}, "pseudo_teachers[0].checkpoint is missing"),
        ({"pseudo_teachers": [{"id": "p", "checkpoint": "t.json"}, {"checkpoint": "t.json"}]},
         "pseudo_teachers[1].id is missing"),
        ({"mapreduce": {"chunk_capacity": 0}}, "mapreduce.chunk_capacity"),
        ({"mapreduce": {"chunk_capacity": 65}}, "mapreduce.chunk_capacity"),
        ({"mapreduce": {"overlap_sentences": -1}}, "mapreduce.overlap_sentences"),
        ({"mapreduce": {"jaccard_threshold": 1.5}}, "mapreduce.jaccard_threshold"),
        ({"mapreduce": {"context_limit": 0}}, "mapreduce.context_limit must be >= 1, got 0"),
    ])
    def test_a_bad_pseudo_teacher_or_mapreduce_entry_fails_before_any_output(
            self, tmp_path, capsys, command, overrides, message):
        cfg = write_config(tmp_path / "c.json", preset="A3", **overrides)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, key", [
        ("cache-teacher", {"pseudo_teachers": [{"id": "", "checkpoint": "p.json"}]},
         "pseudo_teachers[0].id"),
        ("cache-teacher", {"pseudo_teachers": [{"id": "p", "checkpoint": ""}]},
         "pseudo_teachers[0].checkpoint"),
        ("distill", {"outputs": {"checkpoint": ""}}, "outputs.checkpoint"),
        ("mapreduce", {"mapreduce": {"map_checkpoint": ""}}, "mapreduce.map_checkpoint"),
    ], ids=["pseudo-id", "pseudo-checkpoint", "outputs-checkpoint", "map-checkpoint"])
    def test_an_empty_string_fails_before_any_output(self, tmp_path, capsys, command,
                                                     overrides, key):
        cfg = write_config(tmp_path / "c.json", preset="A1", **overrides)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert f"{key} must be a non-empty string" in capsys.readouterr().err
        assert not out.exists()

    def test_ints_fit_floats_and_nullable_keys_take_their_type(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="A1",
                           training={"epochs": 1, "learning_rate": 1, "lambda_override": 1},
                           teacher2={"checkpoint": None},
                           mapreduce={"map_checkpoint": "m.json", "reduce_checkpoint": None})
        assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 0

    def test_every_null_default_has_a_type(self):
        def nulls(d, prefix=""):
            for key, value in d.items():
                if isinstance(value, dict):
                    yield from nulls(value, f"{prefix}{key}.")
                elif value is None:
                    yield prefix + key

        assert set(nulls(DEFAULT_CONFIG)) == set(_NULLABLE)


def _writers(tmp_path):
    params = init_params(6, 3, np.random.default_rng(0))
    return {
        "save_checkpoint": lambda p, meta: save_checkpoint(p, params, meta={"m": meta}),
        "write_cache": lambda p, meta: write_cache(
            [PseudoLabelRecord(f"ex{i}", "p1", [3, 4]) for i in range(meta)], p,
            vocab_size=6),
        "_write_json": lambda p, meta: _write_json(p, {"m": meta}),
        "_write_jsonl": lambda p, meta: _write_jsonl(p, {"m": meta}, [{"r": meta}]),
    }


@pytest.mark.parametrize("writer", sorted(_writers(".")))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, writer):
    write = _writers(tmp_path)[writer]
    path = tmp_path / "target.json"
    write(str(path), 1)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(relkd.atomic.os, "replace", fail)
    with pytest.raises(OSError):
        write(str(path), 2)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["target.json"]

    monkeypatch.undo()
    write(str(path), 2)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["target.json"]


def test_failure_while_writing_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "target.txt"
    relkd.atomic.write_text_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        relkd.atomic.write_text_atomic(path, "new \ud800\n")  # a lone surrogate
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["target.txt"]


def test_written_files_get_the_usual_mode(tmp_path):
    umask = os.umask(0o022)
    try:
        relkd.atomic.write_text_atomic(tmp_path / "f.json", json.dumps({}))
    finally:
        os.umask(umask)
    assert (tmp_path / "f.json").stat().st_mode & 0o777 == 0o644


def test_writing_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # another thread may create a file while the umask is changed
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(relkd.atomic.os, "umask", umask)
    relkd.atomic.write_text_atomic(tmp_path / "f.json", json.dumps({}))
    assert (tmp_path / "f.json").read_text() == "{}"


def _through_positions(corrupt):
    """A corruption of a top-k data line of ``width`` entries per position
    made on its (token_id, logprob) positions, written back as a data line."""
    return lambda rec, width: json.dumps(topk_line(rec["id"],
                                                   corrupt(line_positions(rec, width))))


def _cache_teacher(tmp_path):
    """Two teacher checkpoints and their caches under ``tmp_path``; returns
    an A2 config and teacher 1's top-k cache."""
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(tmp_path / name, init_params(16, dim, np.random.default_rng(dim)))
    cfg = write_config(tmp_path / "c.json", preset="A2")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    return cfg, tmp_path / "teacher1_topk.jsonl"


@pytest.mark.parametrize("corrupt", [
    lambda rec, width: '{"id": "' + rec["id"],                            # truncated line
    _through_positions(lambda pos: [pos[0][1:], *pos[1:]]),               # a position short
    # ids as JSON integers, as version 2 wrote them
    lambda rec, width: json.dumps({**rec, "ids": [t for p in line_positions(rec, width)
                                                  for t, _ in p]}),
    _through_positions(lambda pos: [p[::-1] for p in pos]),               # unsorted
    _through_positions(lambda pos: [[(pos[0][0][0], math.nan), *pos[0][1:]], *pos[1:]]),  # NaN
    lambda rec, width: json.dumps({**rec, "logprobs": "%" + rec["logprobs"][1:]}),  # not base64
    lambda rec, width: json.dumps({**rec, "logprobs": rec["logprobs"][:-4]}),  # blob too short
    _through_positions(lambda pos: [[*pos[0], pos[0][-1]], *pos[1:]]),    # a position over
    lambda rec, width: json.dumps({**rec, "ids": rec["ids"][:-4]}),       # ids not whole int32
    # every exp(logprob) of a position is 0.0, which densify would divide by
    _through_positions(lambda pos: [pos[0], [(t, -800.0 - i) for i, (t, _) in enumerate(pos[1])],
                                    *pos[2:]]),
])
def test_distill_on_a_corrupt_teacher_cache_fails_before_any_output(tmp_path, capsys, corrupt):
    cfg, cache = _cache_teacher(tmp_path)
    lines = cache.read_text().splitlines()
    header = json.loads(lines[0])
    lines[4] = corrupt(json.loads(lines[4]), min(header["k"], header["vocab_size"]))
    cache.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    err = capsys.readouterr().err
    assert f"{cache} line 5:" in err
    assert not (tmp_path / "student.json").exists()
    assert not (tmp_path / "metrics.jsonl").exists()


def test_distill_on_a_version_1_teacher_cache_fails_before_any_output(tmp_path, capsys):
    cfg, cache = _cache_teacher(tmp_path)
    header, *lines = map(json.loads, cache.read_text().splitlines())
    width = min(header["k"], header["vocab_size"])
    # version 1 held each position as [token_id, logprob] pairs of JSON numbers
    v1 = [{**header, "version": 1},
          *({"id": rec["id"], "positions": line_positions(rec, width)} for rec in lines)]
    cache.write_text("".join(json.dumps(obj) + "\n" for obj in v1))
    capsys.readouterr()

    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    err = capsys.readouterr().err
    assert (f"{cache} line 1: unsupported cache version 1 (this relkd reads version "
            f"{CACHE_VERSION}; rerun cache-teacher)") in err
    assert not (tmp_path / "student.json").exists()
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("preset, override, wrong", [
    ("A2", {"teacher1": {"cache": "pseudo_labels.jsonl"}}, "pseudo_labels.jsonl"),
    ("A3", {"pseudo_cache": "teacher1_topk.jsonl"}, "teacher1_topk.jsonl"),
], ids=["pseudo-as-teacher1", "topk-as-pseudo"])
def test_distill_on_a_cache_of_the_wrong_kind_fails_before_any_output(tmp_path, capsys, preset,
                                                                      override, wrong):
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(tmp_path / name, init_params(16, dim, np.random.default_rng(dim)))
    cache_cfg = write_config(tmp_path / "cache.json",
                             pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cache_cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    cfg = write_config(tmp_path / "c.json", preset=preset, **override)
    capsys.readouterr()

    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / wrong} line 1:" in err
    assert not (tmp_path / "student.json").exists()
    assert not (tmp_path / "metrics.jsonl").exists()


@pytest.mark.parametrize("text, message", [
    ('{"tokens": [3.7, 4.2, 2, 5, 9.9, 2]}', "must be a non-empty list of integer tokens"),
    ("[true, 4, 2]", "must be a non-empty list of integer tokens"),
    ('{"tokens": [3, "4", 2]}', "must be a non-empty list of integer tokens"),
    ('{"tokens": 7}', "must be a non-empty list of integer tokens"),
    ('{"words": [3, 4]}', "must be a non-empty list of integer tokens"),
    ('"3 4 2"', "must be a non-empty list of integer tokens"),
    ('{"tokens": []}', "must be a non-empty list of integer tokens"),
    ('{"tokens": [3, 4,', "is not valid JSON"),
    ("[3, 4, 99]", "has token 99, outside the checkpoints' vocabulary [0, 16)"),
    ('{"tokens": [3, -1, 5, 16]}', "has token -1, outside the checkpoints' vocabulary [0, 16)"),
    ('[3, 99, 4, "5"]', "must be a non-empty list of integer tokens"),
    ("[-1, 3, 2.5]", "must be a non-empty list of integer tokens"),
], ids=["floats", "bools", "strings", "not-a-list", "no-tokens-key", "text", "empty",
        "malformed", "beyond-vocabulary", "negative", "range-then-string", "range-then-float"])
def test_mapreduce_rejects_a_document_that_is_not_integer_tokens(tmp_path, capsys, text,
                                                                  message):
    save_checkpoint(tmp_path / "m.json", init_params(16, 4, np.random.default_rng(0)))
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    cfg = write_config(tmp_path / "c.json", mapreduce={"map_checkpoint": "m.json"})
    out = tmp_path / "out"
    out.mkdir()
    (out / "m.json").write_bytes((tmp_path / "m.json").read_bytes())
    assert main(["--config", str(cfg), "--out", str(out), "mapreduce", "--trace",
                 "--document", str(doc)]) == 1
    err = capsys.readouterr().err
    assert f"document {doc} {message}" in err
    assert os.listdir(out) == ["m.json"]


def _malformed_checkpoint(text, fault):
    obj = json.loads(text)
    if fault == "array":
        return json.dumps([obj])
    if fault == "truncated":
        return text[:100]
    if fault == "no-recur":
        del obj["recur"]
    if fault == "hidden-dim-5":
        obj["hidden_dim"] = 5
    if fault == "vocab-size--1":  # numpy's reshape would infer it
        obj["vocab_size"] = -1
    if fault == "meta-array":
        obj["meta"] = []

    def raw(name):  # an array's little-endian float64 bytes
        return base64.b64decode(obj[name])

    def b64(data):
        return base64.b64encode(data).decode()

    if fault == "embed-as-a-list":
        obj["embed"] = np.frombuffer(raw("embed"), "<f8").tolist()
    if fault == "embed-not-base64":
        obj["embed"] = "%" + obj["embed"][1:]
    if fault == "embed-a-byte-short":
        obj["embed"] = b64(raw("embed")[:-1])
    if fault == "embed-a-value-short":
        obj["embed"] = b64(raw("embed")[:-8])
    if fault == "embed-holds-nan":
        obj["embed"] = b64(struct.pack("<d", math.nan) + raw("embed")[8:])
    if fault == "version-1":  # the arrays as flat lists of JSON numbers
        return json.dumps({**obj, "version": 1, **{
            name: np.frombuffer(raw(name), "<f8").tolist() for name in ("embed", "recur", "out")}},
            sort_keys=True) + "\n"
    return json.dumps(obj)


@pytest.mark.parametrize("fault", ["array", "truncated", "no-recur", "hidden-dim-5",
                                   "vocab-size--1", "meta-array", "embed-as-a-list",
                                   "embed-not-base64", "embed-a-byte-short",
                                   "embed-a-value-short", "embed-holds-nan", "version-1"])
def test_evaluate_on_a_malformed_checkpoint_names_it_before_any_output(tmp_path, capsys, fault):
    ckpt = tmp_path / "student.json"
    save_checkpoint(ckpt, init_params(64, 16, np.random.default_rng(0)))
    ckpt.write_text(_malformed_checkpoint(ckpt.read_text(), fault))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "evaluate"]) == 1
    assert f"error: {ckpt}: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.json", "student.json"]


# Each JSON input: the command that reads it, the preset it runs under, its
# file, the line corrupted (None: the whole file) and the error it gives.
JSON_INPUTS = {
    "config": ("distill", "A1", "c.json", None, "config {} is not valid JSON: "),
    "checkpoint": ("evaluate", "A1", "teacher1.json", None, "{}: "),
    "document": ("mapreduce", "A1", "doc.json", None, "document {} is not valid JSON: "),
    "topk-header": ("distill", "A2", "teacher1_topk.jsonl", 0, "{} line 1: malformed header ("),
    "topk-record": ("distill", "A2", "teacher1_topk.jsonl", 4, "{} line 5: malformed record ("),
    "pseudo-record": ("distill", "A3", "pseudo_labels.jsonl", 4,
                      "{} line 5: malformed record ("),
}
JSON_FAULTS = {
    "deep": lambda text: b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": lambda text: text[:1] + b"\xff" + text[1:],
}


@pytest.mark.parametrize("fault", sorted(JSON_FAULTS))
@pytest.mark.parametrize("source", list(JSON_INPUTS))
def test_a_json_input_that_cannot_be_parsed_is_one_named_error(tmp_path, capsys, source, fault):
    command, preset, name, line, message = JSON_INPUTS[source]
    for ckpt, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(tmp_path / ckpt, init_params(16, dim, np.random.default_rng(dim)))
    cfg = write_config(tmp_path / "c.json", pseudo_teachers=[{"id": "p1",
                                                               "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    (tmp_path / "doc.json").write_text("[3, 4, 2, 5]")
    write_config(cfg, preset=preset, mapreduce={"map_checkpoint": "teacher1.json"})
    path = tmp_path / name
    if line is None:
        path.write_bytes(JSON_FAULTS[fault](path.read_bytes()))
    else:
        lines = path.read_bytes().split(b"\n")
        lines[line] = JSON_FAULTS[fault](lines[line])
        path.write_bytes(b"\n".join(lines))
    before = _files(tmp_path)
    capsys.readouterr()

    args = {"evaluate": ["--checkpoint", name], "mapreduce": ["--document", str(path)]}
    assert main(["--config", str(cfg), "--out", str(tmp_path), command,
                 *args.get(command, [])]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert len(err.splitlines()) == 1 and err.startswith("error: " + message.format(path))
    assert _files(tmp_path) == before


def test_mapreduce_reads_integer_tokens_bare_or_as_an_object(tmp_path):
    save_checkpoint(tmp_path / "m.json", init_params(16, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", mapreduce={"map_checkpoint": "m.json"})
    summaries = []
    for name, obj in (("bare.json", [3, 4, 2, 5]), ("object.json", {"tokens": [3, 4, 2, 5]})):
        (tmp_path / name).write_text(json.dumps(obj))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce",
                     "--document", str(tmp_path / name)]) == 0
        summaries.append((tmp_path / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


def test_cache_teacher_on_an_empty_training_split_fails_before_any_output(tmp_path, capsys):
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", corpus={"n_train": 0},
                       teacher2={"checkpoint": None})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 1
    assert "corpus.n_train" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.json", "teacher1.json"]


@pytest.mark.parametrize("command, small", [
    (["evaluate"], "student.json"),
    (["evaluate", "--teacher-checkpoint", "teacher.json"], "teacher.json"),
    (["mapreduce"], "student.json"),
    (["mapreduce"], "reduce.json"),
    (["cache-teacher"], "teacher1.json"),
], ids=["evaluate", "evaluate-teacher", "mapreduce-map", "mapreduce-reduce", "cache-teacher"])
def test_a_checkpoint_that_cannot_read_the_corpus_fails_before_any_output(tmp_path, capsys,
                                                                          command, small):
    for name in ("student.json", "teacher.json", "reduce.json", "teacher1.json"):
        vocab = 16 if name == small else 64
        save_checkpoint(tmp_path / name, init_params(vocab, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64},
                       teacher2={"checkpoint": None},
                       mapreduce={"reduce_checkpoint": "reduce.json"})
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), *command]) == 1
    assert (f"corpus.vocab_size 64 exceeds the vocabulary size 16 of checkpoint "
            f"{tmp_path / small}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("document", [False, True], ids=["synthetic", "document"])
def test_a_reduce_checkpoint_of_a_smaller_vocabulary_fails_before_any_decoding(
        tmp_path, capsys, monkeypatch, document):
    # REDUCE reads MAP's summaries, whose tokens may lie beyond its vocabulary
    save_checkpoint(tmp_path / "map.json", init_params(64, 8, np.random.default_rng(0)))
    save_checkpoint(tmp_path / "reduce.json", init_params(32, 8, np.random.default_rng(1)))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 32},
                       mapreduce={"map_checkpoint": "map.json",
                                  "reduce_checkpoint": "reduce.json"})
    decoded = []
    for name in ("decode_rows", "generate"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: decoded.append(a), raising=False)
    args = []
    if document:
        (tmp_path / "doc.json").write_text(json.dumps(synthetic_document(3000, vocab_size=32)))
        args = ["--document", str(tmp_path / "doc.json")]
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce", "--trace",
                 *args]) == 1
    assert (f"error: mapreduce.reduce_checkpoint {tmp_path / 'reduce.json'} has vocabulary "
            f"size 32, smaller than the vocabulary size 64 of mapreduce.map_checkpoint "
            f"{tmp_path / 'map.json'}") in capsys.readouterr().err
    assert decoded == []
    assert sorted(os.listdir(tmp_path)) == before


def test_a_pipeline_failure_is_an_error_before_any_output(tmp_path, capsys):
    # 20-token chunks summarized into longer MAP outputs cannot shrink
    save_checkpoint(tmp_path / "m.json",
                    init_params(64, 16, np.random.default_rng(5), scale=0.6))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64},
                       mapreduce={"map_checkpoint": "m.json", "chunk_capacity": 20,
                                  "overlap_sentences": 1, "context_limit": 24})
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce", "--trace"]) == 1
    assert "error: reduce step did not shrink its input (3000 -> " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_a_topk_teacher_of_a_larger_vocabulary_fails_before_any_output(tmp_path, capsys):
    save_checkpoint(tmp_path / "teacher1.json", init_params(80, 16, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64},
                       teacher2={"checkpoint": None})
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 1
    assert (f"corpus.vocab_size 64 differs from the vocabulary size 80 of checkpoint "
            f"{tmp_path / 'teacher1.json'}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_a_pseudo_teacher_token_outside_the_corpus_vocabulary_is_named(tmp_path, capsys):
    # a V=80 pseudo teacher decodes tokens that the V=64 top-k teacher cannot score
    save_checkpoint(tmp_path / "teacher1.json", init_params(64, 8, np.random.default_rng(0)))
    save_checkpoint(tmp_path / "p80.json", init_params(80, 8, np.random.default_rng(1)))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64, "n_train": 20},
                       teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p80", "checkpoint": "p80.json"}])
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 1
    err = capsys.readouterr().err
    found = re.search(r"pseudo teacher p80 \(checkpoint (\S+)\) emits token (\d+) for "
                      r"example (tr\d{5}), outside corpus.vocab_size 64", err)
    assert found, err
    assert found[1] == str(tmp_path / "p80.json") and int(found[2]) >= 64
    assert sorted(os.listdir(tmp_path)) == before


def test_a_topk_teacher_is_checked_before_any_pseudo_teacher_decodes(tmp_path, capsys):
    # with both checkpoints at V=80, the top-k teacher's vocabulary is the
    # fault named, not a token that the pseudo teacher decodes
    save_checkpoint(tmp_path / "teacher1.json", init_params(80, 8, np.random.default_rng(0)))
    save_checkpoint(tmp_path / "p80.json", init_params(80, 8, np.random.default_rng(1)))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64, "n_train": 20},
                       teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p80", "checkpoint": "p80.json"}])
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 1
    assert (f"corpus.vocab_size 64 differs from the vocabulary size 80 of checkpoint "
            f"{tmp_path / 'teacher1.json'}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_an_a5_teacher_checkpoint_that_cannot_read_the_corpus_fails(tmp_path, capsys):
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", preset="A5", teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    # the caches stay valid; only the checkpoint for hidden states is too small
    save_checkpoint(tmp_path / "teacher1.json", init_params(8, 4, np.random.default_rng(0)))
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    assert ("corpus.vocab_size 16 exceeds the vocabulary size 8 of checkpoint "
            f"{tmp_path / 'teacher1.json'}") in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_an_a5_teacher_checkpoint_of_a_larger_vocabulary_trains(tmp_path):
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 4, np.random.default_rng(0)))
    cfg = write_config(tmp_path / "c.json", preset="A5", teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    # hidden states come from a V=20 checkpoint; the caches stay those of the V=16 one
    save_checkpoint(tmp_path / "t20.json", init_params(20, 5, np.random.default_rng(1)))
    cfg = write_config(tmp_path / "c.json", preset="A5",
                       teacher1={"checkpoint": "t20.json"}, teacher2={"checkpoint": None})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 0
    assert (tmp_path / "student.json").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
def test_a_diverged_distill_is_an_error_without_output(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"preset": "A1", "corpus": {"n_train": 40, "n_test": 10},
                               "training": {"epochs": 3, "learning_rate": 1e307}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
    assert "error: training diverged at epoch" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_a_distill_whose_meta_is_not_standard_json_writes_no_output(tmp_path, capsys,
                                                                    monkeypatch):
    train = cli.train

    def nan_anchor(*args, **kwargs):
        return dataclasses.replace(train(*args, **kwargs),
                                   anchor=types.SimpleNamespace(delta_star=math.nan))

    monkeypatch.setattr(cli, "train", nan_anchor)
    cfg = write_config(tmp_path / "c.json", preset="A1", corpus={"n_train": 16})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
    assert (f"error: {out / 'student.json'}: checkpoint meta must be standard JSON"
            in capsys.readouterr().err)
    assert os.listdir(out) == []


def _gate_trace_inputs(tmp_path, student_vocab, meta):
    """Two teachers, their caches, and a student.json for ``gate-trace``."""
    for i, name in enumerate(("teacher1.json", "teacher2.json")):
        save_checkpoint(tmp_path / name, init_params(16, 4, np.random.default_rng(i)))
    cfg = write_config(tmp_path / "c.json")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    # written by hand: save_checkpoint writes no meta that is not standard JSON
    student = tmp_path / "student.json"
    save_checkpoint(student, init_params(student_vocab, 4, np.random.default_rng(1)))
    student.write_text(json.dumps({**json.loads(student.read_text()), "meta": meta or {}}))
    return ["--config", str(cfg), "--out", str(tmp_path), "gate-trace", "--samples", "tr00000"]


NOT_A_NUMBER = "meta.delta_star must be a finite number or null"


# NaN and infinities are not standard JSON: load_checkpoint refuses them first
@pytest.mark.parametrize("delta_star, message", [
    ("abc", NOT_A_NUMBER), (True, NOT_A_NUMBER), ([1.0], NOT_A_NUMBER),
    (float("nan"), "checkpoint must be standard JSON, got NaN"),
    (-float("inf"), "checkpoint must be standard JSON, got -Infinity"),
], ids=["string", "bool", "array", "nan", "infinity"])
def test_gate_trace_rejects_a_delta_star_that_is_not_a_number(tmp_path, capsys, delta_star,
                                                              message):
    assert main(_gate_trace_inputs(tmp_path, 16, {"delta_star": delta_star})) == 1
    assert f"error: {tmp_path / 'student.json'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "gate_trace.jsonl").exists()


def test_gate_trace_on_a_student_that_cannot_read_the_corpus_fails(tmp_path, capsys):
    assert main(_gate_trace_inputs(tmp_path, 8, None)) == 1
    assert ("corpus.vocab_size 16 exceeds the vocabulary size 8 of checkpoint "
            f"{tmp_path / 'student.json'}") in capsys.readouterr().err
    assert not (tmp_path / "gate_trace.jsonl").exists()


def test_gate_trace_on_a_student_of_another_vocabulary_fails(tmp_path, capsys):
    # the student is scored against the V=16 caches, so a V=20 one cannot be
    assert main(_gate_trace_inputs(tmp_path, 20, None)) == 1
    assert ("corpus.vocab_size 16 differs from the vocabulary size 20 of checkpoint "
            f"{tmp_path / 'student.json'}") in capsys.readouterr().err
    assert not (tmp_path / "gate_trace.jsonl").exists()


@pytest.mark.parametrize("command", [["distill"], ["gate-trace", "--samples", "tr00000"]])
def test_a_topk_cache_of_another_vocabulary_is_named(tmp_path, capsys, command):
    _gate_trace_inputs(tmp_path, 16, None)
    cfg = write_config(tmp_path / "c.json", preset="ewad_cpdp")
    # a valid cache whose header claims a vocabulary other than the corpus's
    path = tmp_path / "teacher1_topk.jsonl"
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([json.dumps({**json.loads(header), "vocab_size": 80}), *lines])
                    + "\n")
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), *command]) == 1
    assert ("teacher 1 cache has vocab_size 80, corpus.vocab_size is 16"
            in capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("preset, cache, keep, message", [
    # the header alone: a cache that exists and was read, with no records
    ("A2", "teacher1_topk.jsonl", lambda line: '"kind": "topk"' in line,
     "missing cache record tr00000 for teacher 1"),
    ("A3", "pseudo_labels.jsonl", lambda line: '"tr00003"' not in line,
     "missing pseudo-label record for tr00003"),
    ("A3", "pseudo_labels.jsonl", lambda line: '"kind": "pseudo"' in line,
     "missing pseudo-label record for tr00000"),
], ids=["empty-topk", "pseudo-gap", "empty-pseudo"])
def test_a_cache_without_an_example_s_record_names_it(tmp_path, capsys, preset, cache, keep,
                                                      message):
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 8, np.random.default_rng(8)))
    cfg = write_config(tmp_path / "c.json", preset=preset, teacher2={"checkpoint": None},
                       pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}])
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    path = tmp_path / cache
    path.write_text("".join(line for line in path.read_text().splitlines(True) if keep(line)))
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def _files(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("command, fields, message", [
    ("distill", dict(preset="A1", outputs={"metrics": "student.json"}),
     "outputs.metrics and outputs.checkpoint name the same file"),
    ("distill", dict(preset="A2", outputs={"checkpoint": "teacher1_topk.jsonl"}),
     "outputs.checkpoint and teacher1.cache name the same file"),
    ("cache-teacher", dict(pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}],
                           pseudo_cache="teacher1_topk.jsonl"),
     "pseudo_cache and teacher1.cache name the same file"),
    ("distill", dict(preset="A1", outputs={"metrics": "c.json"}),
     "outputs.metrics and --config name the same file"),
], ids=["metrics-as-checkpoint", "a2-checkpoint-as-teacher1-cache", "pseudo-as-teacher1-cache",
        "metrics-as-config"])
def test_an_output_that_names_another_file_of_the_run_fails_before_any_output(
        tmp_path, capsys, command, fields, message):
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7), ("student.json", 6)):
        save_checkpoint(tmp_path / name, init_params(16, dim, np.random.default_rng(dim)))
    cache_cfg = write_config(tmp_path / "cache.json")
    assert main(["--config", str(cache_cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    cfg = write_config(tmp_path / "c.json", **fields)
    before = _files(tmp_path)
    capsys.readouterr()

    assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 1
    assert message in capsys.readouterr().err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command, fields, message", [
    ("distill", dict(preset="A1", outputs={"metrics": "."}), "outputs.metrics names a directory"),
    ("distill", dict(preset="A1", outputs={"metrics": "m"}), "outputs.metrics names a directory"),
    ("distill", dict(preset="A1", outputs={"metrics": "new/"}), "outputs.metrics names a directory"),
    ("distill", dict(preset="A1", outputs={"checkpoint": "sub/student.json"}),
     "outputs.checkpoint lies in a directory that does not exist"),
    ("cache-teacher", dict(teacher1={"cache": "sub/teacher1_topk.jsonl"}),
     "teacher1.cache lies in a directory that does not exist"),
], ids=["metrics-as-out-dir", "metrics-as-subdir", "metrics-as-missing-subdir",
        "checkpoint-in-missing-dir", "cache-in-missing-dir"])
def test_an_output_that_is_not_a_file_in_an_existing_directory_fails_before_any_output(
        tmp_path, capsys, command, fields, message):
    out = tmp_path / "o"
    (out / "m").mkdir(parents=True)
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(out / name, init_params(16, dim, np.random.default_rng(dim)))
    cfg = write_config(tmp_path / "c.json", **fields)
    before = sorted(tmp_path.rglob("*"))

    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, fields, key", [
    (["cache-teacher"], dict(teacher1={"checkpoint": "."}), "teacher1.checkpoint"),
    (["evaluate", "--checkpoint", "."], {}, "--checkpoint"),
], ids=["cache-teacher-checkpoint", "evaluate-checkpoint"])
def test_an_input_that_is_a_directory_fails_before_any_output(tmp_path, capsys, command,
                                                              fields, key):
    out = tmp_path / "o"
    out.mkdir()
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(out / name, init_params(16, dim, np.random.default_rng(dim)))
    cfg = write_config(tmp_path / "c.json", **fields)
    before = sorted(tmp_path.rglob("*"))

    assert main(["--config", str(cfg), "--out", str(out), *command]) == 1
    assert f"error: {key} is not a file: {os.path.join(out, '.')}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_a_ce_distill_may_write_over_a_teacher_it_does_not_read(tmp_path):
    # how teachers are trained: CE reads no teacher file
    save_checkpoint(tmp_path / "teacher1.json", init_params(16, 8, np.random.default_rng(8)))
    before = (tmp_path / "teacher1.json").read_bytes()
    cfg = write_config(tmp_path / "c.json", preset="A1", outputs={"checkpoint": "teacher1.json"})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 0
    assert (tmp_path / "teacher1.json").read_bytes() != before
