"""Ill-typed configs fail before any output; every writer replaces its file
atomically."""

import json
import os
import re

import numpy as np
import pytest

import relkd.atomic
from relkd.cli import DEFAULT_CONFIG, _NULLABLE, _write_json, _write_jsonl, main
from relkd.teachercache import PseudoLabelRecord, write_cache
from relkd.toymodel import init_params, save_checkpoint

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
        ({"context_limit": 0}, "context_limit"),
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
    ])
    def test_a_bad_pseudo_teacher_or_mapreduce_entry_fails_before_any_output(
            self, tmp_path, capsys, command, overrides, message):
        cfg = write_config(tmp_path / "c.json", preset="A3", **overrides)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert message in capsys.readouterr().err
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
    rec = PseudoLabelRecord("ex0", "p1", [3, 4], "3 4", 2)
    return {
        "save_checkpoint": lambda p, meta: save_checkpoint(p, params, meta={"m": meta}),
        "write_cache": lambda p, meta: write_cache([rec] * meta, p, vocab_size=6),
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


@pytest.mark.parametrize("corrupt", [
    lambda rec: '{"id": "' + rec["id"],                                   # truncated line
    lambda rec: json.dumps({**rec, "positions": rec["positions"][::-1] + [[]]}),  # empty position
    lambda rec: json.dumps({**rec, "positions": [[[3.7, -0.5]]]}),       # ill-typed token id
    lambda rec: json.dumps({**rec, "positions": [p[::-1] for p in rec["positions"]]}),  # unsorted
])
def test_distill_on_a_corrupt_teacher_cache_fails_before_any_output(tmp_path, capsys, corrupt):
    for name, dim in (("teacher1.json", 8), ("teacher2.json", 7)):
        save_checkpoint(tmp_path / name, init_params(16, dim, np.random.default_rng(dim)))
    cfg = write_config(tmp_path / "c.json", preset="A2")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    cache = tmp_path / "teacher1_topk.jsonl"
    lines = cache.read_text().splitlines()
    lines[4] = corrupt(json.loads(lines[4]))
    cache.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
    err = capsys.readouterr().err
    assert f"{cache} line 5:" in err
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
    if fault == "meta-array":
        obj["meta"] = []
    return json.dumps(obj)


@pytest.mark.parametrize("fault", ["array", "truncated", "no-recur", "hidden-dim-5",
                                   "meta-array"])
def test_evaluate_on_a_malformed_checkpoint_names_it_before_any_output(tmp_path, capsys, fault):
    ckpt = tmp_path / "student.json"
    save_checkpoint(ckpt, init_params(64, 16, np.random.default_rng(0)))
    ckpt.write_text(_malformed_checkpoint(ckpt.read_text(), fault))
    cfg = write_config(tmp_path / "c.json", corpus={"vocab_size": 64})
    assert main(["--config", str(cfg), "--out", str(tmp_path), "evaluate"]) == 1
    assert f"error: {ckpt}: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.json", "student.json"]


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


def _gate_trace_inputs(tmp_path, student_vocab, meta):
    """Two teachers, their caches, and a student.json for ``gate-trace``."""
    for i, name in enumerate(("teacher1.json", "teacher2.json")):
        save_checkpoint(tmp_path / name, init_params(16, 4, np.random.default_rng(i)))
    cfg = write_config(tmp_path / "c.json")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 0
    save_checkpoint(tmp_path / "student.json",
                    init_params(student_vocab, 4, np.random.default_rng(1)), meta=meta)
    return ["--config", str(cfg), "--out", str(tmp_path), "gate-trace", "--samples", "tr00000"]


@pytest.mark.parametrize("delta_star", ["abc", True, [1.0], float("nan")],
                         ids=["string", "bool", "array", "nan"])
def test_gate_trace_rejects_a_delta_star_that_is_not_a_number(tmp_path, capsys, delta_star):
    assert main(_gate_trace_inputs(tmp_path, 16, {"delta_star": delta_star})) == 1
    assert (f"error: {tmp_path / 'student.json'}: meta.delta_star must be a finite number "
            "or null") in capsys.readouterr().err
    assert not (tmp_path / "gate_trace.jsonl").exists()


def test_gate_trace_on_a_student_that_cannot_read_the_corpus_fails(tmp_path, capsys):
    assert main(_gate_trace_inputs(tmp_path, 8, None)) == 1
    assert ("corpus.vocab_size 16 exceeds the vocabulary size 8 of checkpoint "
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
