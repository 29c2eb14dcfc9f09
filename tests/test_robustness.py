"""Ill-typed configs fail before any output; every writer replaces its file
atomically."""

import json
import os

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

    @pytest.mark.parametrize("command", ["evaluate", "cache-teacher"])
    @pytest.mark.parametrize("text, path", [
        ('{"training": {"gen_max_len": 0}}', "training.gen_max_len"),
        ('{"training": {"gen_max_len": -3}}', "training.gen_max_len"),
        ('{"beam_width": 0}', "beam_width"),
        ('{"beam_width": -1}', "beam_width"),
        ('{"cache_k": 0}', "cache_k"),
        ('{"cache_k": -2}', "cache_k"),
    ])
    def test_out_of_range_width_fails_before_any_output(self, tmp_path, capsys, text, path,
                                                         command):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == 1
        assert f"{path} must be >= 1" in capsys.readouterr().err
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
