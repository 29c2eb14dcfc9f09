import json
import os

import pytest

from relkd import cli
from relkd.cli import main
from relkd.teachercache import read_cache
from relkd.toymodel import generate, generate_batch, load_checkpoint
from relkd.training import MODES


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "seed": 0,
        "corpus": {"n_train": 24, "n_test": 8, "n_val": 0, "vocab_size": 16,
                   "task": "copy", "min_sentence_len": 3, "max_sentence_len": 5},
        "student": {"hidden_dim": 6},
        "teacher1": {"checkpoint": "teacher1.json"},
        "teacher2": {"checkpoint": "teacher2.json"},
        "cache_k": 16,
        "training": {"epochs": 6, "batch_size": 8},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Teachers, caches, and an A2 student trained once for the module."""
    root = tmp_path_factory.mktemp("ws")
    out = str(root)

    t1_cfg = write_config(root / "t1.json", preset="A1",
                          student={"hidden_dim": 8},
                          outputs={"checkpoint": "teacher1.json",
                                   "metrics": "teacher1_metrics.jsonl"},
                          training={"epochs": 12, "batch_size": 8})
    assert main(["--config", str(t1_cfg), "--out", out, "distill"]) == 0

    t2_cfg = write_config(root / "t2.json", preset="A1", seed=1,
                          student={"hidden_dim": 7},
                          outputs={"checkpoint": "teacher2.json",
                                   "metrics": "teacher2_metrics.jsonl"},
                          training={"epochs": 12, "batch_size": 8})
    assert main(["--config", str(t2_cfg), "--out", out, "distill"]) == 0

    cache_cfg = write_config(
        root / "cache.json",
        pseudo_teachers=[{"id": "p1", "checkpoint": "teacher1.json"}],
    )
    assert main(["--config", str(cache_cfg), "--out", out, "cache-teacher"]) == 0

    a2_cfg = write_config(root / "a2.json", preset="A2")
    assert main(["--config", str(a2_cfg), "--out", out, "distill"]) == 0

    return root


class TestCacheTeacher:
    def test_cache_files_exist_and_validate(self, workspace):
        topk1 = read_cache(workspace / "teacher1_topk.jsonl")
        topk2 = read_cache(workspace / "teacher2_topk.jsonl")
        pseudo = read_cache(workspace / "pseudo_labels.jsonl")
        # 24 gold records plus one pseudo-variant per example per teacher
        assert len(topk1) == 48 and len(topk2) == 48
        assert len(pseudo) == 24

    def test_missing_checkpoint_fails_before_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           teacher1={"checkpoint": "absent.json"})
        assert main(["--config", str(cfg), "--out", str(tmp_path), "cache-teacher"]) == 1
        assert not (tmp_path / "teacher1_topk.jsonl").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            teacher1={"checkpoint": str(workspace / "teacher1.json")},
            teacher2={"checkpoint": None},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--config", str(cfg), "--out", str(out), "cache-teacher"]) == 0
        assert (out1 / "teacher1_topk.jsonl").read_bytes() == \
               (out2 / "teacher1_topk.jsonl").read_bytes()


class TestDistill:
    def test_checkpoint_and_metrics_written(self, workspace):
        params, extras = load_checkpoint(workspace / "student.json")
        assert params.hidden_dim == 6
        assert extras["meta"]["loss_mode"] == "A2"
        lines = (workspace / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 1 and header["kind"] == "metrics"
        assert len(lines) == 1 + 6

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="A2",
            teacher1={"checkpoint": str(workspace / "teacher1.json"),
                      "cache": str(workspace / "teacher1_topk.jsonl")},
            training={"epochs": 3, "batch_size": 8},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 0
        for name in ("student.json", "metrics.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_arm_cache_mismatch_is_an_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="ewad_full")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1
        assert not (tmp_path / "student.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="A1",
                           training={"epochs": 2, "batch_size": 8})
        outs = {}
        for name, args in [("a", ["--seed", "5"]), ("b", ["--seed", "5"]), ("c", [])]:
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out", str(out)] + args + ["distill"]) == 0
            outs[name] = (out / "student.json").read_bytes()
        assert outs["a"] == outs["b"]
        assert outs["a"] != outs["c"]

    def test_unknown_preset(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", preset="A9")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 1


class TestEvaluate:
    def test_report_schema(self, workspace):
        cfg = write_config(workspace / "eval.json", preset="A2")
        assert main(["--config", str(cfg), "--out", str(workspace), "evaluate"]) == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["version"] == 1 and report["kind"] == "evaluation"
        for key in ("rouge1", "rouge2", "rougeL"):
            assert 0.0 <= report[key] <= 1.0

    def test_teacher_against_itself_has_full_retention(self, workspace):
        cfg = write_config(workspace / "eval2.json")
        assert main([
            "--config", str(cfg), "--out", str(workspace), "evaluate",
            "--checkpoint", "teacher1.json", "--teacher-checkpoint", "teacher1.json",
        ]) == 0
        report = json.loads((workspace / "report.json").read_text())
        assert report["retention_pct"] == 100.0

    def test_empty_test_split_is_an_error(self, workspace):
        cfg = write_config(workspace / "eval3.json", corpus={"n_test": 0})
        assert main(["--config", str(cfg), "--out", str(workspace), "evaluate"]) == 1


class TestMapReduce:
    def test_short_document_routes_direct(self, workspace, tmp_path):
        doc = list(range(3, 15))
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps({"tokens": doc}))
        cfg = write_config(
            tmp_path / "c.json",
            mapreduce={"map_checkpoint": str(workspace / "teacher1.json"),
                       "chunk_capacity": 60, "overlap_sentences": 3,
                       "jaccard_threshold": 0.75, "reduce_checkpoint": None},
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce",
                     "--document", str(doc_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["route"] == "direct"
        params, _ = load_checkpoint(workspace / "teacher1.json")
        assert summary["summary"] == generate(params, doc, mode="greedy", max_len=16)

    def test_long_document_routes_mapreduce_with_trace(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            mapreduce={"map_checkpoint": str(workspace / "teacher1.json"),
                       "chunk_capacity": 60, "overlap_sentences": 3,
                       "jaccard_threshold": 0.75, "reduce_checkpoint": None},
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce",
                     "--trace"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["route"] == "mapreduce"
        assert summary["n_input_tokens"] == 3000
        rows = [json.loads(l) for l in
                (tmp_path / "mapreduce_trace.jsonl").read_text().splitlines()]
        assert rows[0]["kind"] == "mapreduce_trace"
        assert len(rows[1]["chunks"]) >= 2

    @pytest.mark.parametrize("command", [["cache-teacher"], ["distill"], ["evaluate"],
                                         ["mapreduce"], ["gate-trace", "--samples", "tr00001"]])
    def test_trace_is_a_mapreduce_option_not_a_global_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "--trace", *command])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reduce", [None, "teacher1.json", "teacher2.json"],
                             ids=["unset", "same-as-map", "other"])
    def test_each_checkpoint_is_loaded_once_and_plays_its_role(self, workspace, tmp_path,
                                                               monkeypatch, reduce):
        loads, decoders = [], []

        def load(path):
            result = load_checkpoint(path)
            loads.append((path, result[0]))
            return result

        def decode(params, docs, **kw):
            decoders.append(params)
            return generate_batch(params, docs, **kw)

        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(cli, "generate_batch", decode)
        map_path = str(workspace / "teacher1.json")
        reduce_path = map_path if reduce is None else str(workspace / reduce)
        cfg = write_config(tmp_path / "c.json",
                           mapreduce={"map_checkpoint": map_path,
                                      "reduce_checkpoint": reduce and reduce_path})
        assert main(["--config", str(cfg), "--out", str(tmp_path), "mapreduce"]) == 0
        assert [path for path, _ in loads] == list(dict.fromkeys([map_path, reduce_path]))
        # the first call maps the chunks; every later one reduces
        params = dict(loads)
        assert len(decoders) >= 2
        assert decoders[0] is params[map_path]
        assert all(p is params[reduce_path] for p in decoders[1:])

    def test_same_input_twice_identical(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            mapreduce={"map_checkpoint": str(workspace / "teacher1.json"),
                       "chunk_capacity": 60, "overlap_sentences": 3,
                       "jaccard_threshold": 0.75, "reduce_checkpoint": None},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--config", str(cfg), "--out", str(out), "mapreduce"]) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestGateTrace:
    def _config(self, workspace, path, **kw):
        return write_config(
            path, preset="ewad_cpdp",
            teacher1={"checkpoint": str(workspace / "teacher1.json"),
                      "cache": str(workspace / "teacher1_topk.jsonl")},
            teacher2={"checkpoint": str(workspace / "teacher2.json"),
                      "cache": str(workspace / "teacher2_topk.jsonl")},
            outputs={"checkpoint": str(workspace / "student.json"),
                     "gate_trace": "gate_trace.jsonl"},
            **kw,
        )

    def test_record_count_matches_target_lengths(self, workspace, tmp_path):
        from relkd.cli import _corpus_cfg, load_config
        from relkd.training import synthetic_corpus

        cfg_path = self._config(workspace, tmp_path / "c.json")
        samples = ["tr00000", "tr00003"]
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "gate-trace", "--samples", ",".join(samples)]) == 0
        rows = [json.loads(l) for l in
                (tmp_path / "gate_trace.jsonl").read_text().splitlines()][1:]
        corpus = synthetic_corpus(_corpus_cfg(load_config(str(cfg_path), None), "train"))
        by_id = {ex.example_id: ex for ex in corpus.examples}
        expected = sum(len(by_id[s].summary) + 1 for s in samples)
        assert len(rows) == expected
        for row in rows:
            assert 0.0 < row["lambda"] < 1.0
            assert 0.0 <= row["agreement"] <= 1.0
            assert row["cpdp_term"] <= 100.0

    def test_identical_caches_give_full_agreement(self, workspace, tmp_path):
        cfg_path = self._config(
            workspace, tmp_path / "c.json",
        )
        # point both teachers at the same cache file
        cfg = json.loads(cfg_path.read_text())
        cfg["teacher2"]["cache"] = cfg["teacher1"]["cache"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "gate-trace", "--samples", "tr00001"]) == 0
        rows = [json.loads(l) for l in
                (tmp_path / "gate_trace.jsonl").read_text().splitlines()][1:]
        assert all(row["agreement"] == 1.0 for row in rows)
        assert all(abs(row["lambda"] - 0.9241418199787566) < 1e-9 for row in rows)

    def test_disjoint_teacher_caches_close_the_gate(self, workspace, tmp_path):
        # hand-built caches: teacher 1 certain of token 3, teacher 2 of token 4
        from relkd.cli import _corpus_cfg, load_config
        from relkd.teachercache import TopKRecord, index_topk, write_cache
        from relkd.training import synthetic_corpus

        cfg_path = self._config(workspace, tmp_path / "c.json")
        cfg = json.loads(cfg_path.read_text())
        corpus = synthetic_corpus(_corpus_cfg(load_config(str(cfg_path), None), "train"))

        for n, (tok, name) in enumerate([(3, "t1.jsonl"), (4, "t2.jsonl")]):
            records = [
                TopKRecord(ex.example_id,
                           [[(tok, 0.0)]] * (len(ex.summary) + 1),
                           corpus.vocab_size)
                for ex in corpus.examples
            ]
            write_cache(index_topk(records, k=1), tmp_path / name)
            cfg[f"teacher{n + 1}"]["cache"] = str(tmp_path / name)
        cfg_path.write_text(json.dumps(cfg))

        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "gate-trace", "--samples", "tr00000,tr00004"]) == 0
        rows = [json.loads(l) for l in
                (tmp_path / "gate_trace.jsonl").read_text().splitlines()][1:]
        assert rows
        assert all(row["lambda"] < 0.08 for row in rows)

    def test_unknown_sample_id(self, workspace, tmp_path):
        cfg_path = self._config(workspace, tmp_path / "c.json")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "gate-trace", "--samples", "zz999"]) == 1
        assert not (tmp_path / "gate_trace.jsonl").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg_path = self._config(workspace, tmp_path / "c.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "gate-trace", "--samples", "tr00002"]) == 0
        assert (out1 / "gate_trace.jsonl").read_bytes() == \
               (out2 / "gate_trace.jsonl").read_bytes()


class TestConfigKeys:
    @pytest.mark.parametrize("overrides, path", [
        ({"training": {"epoch": 1, "epochs": 2}}, "training.epoch"),
        ({"trainig": {"epochs": 2}}, "trainig"),
        ({"pseudo_teachers": [{"id": "p1", "ckpt": "t.json"}]}, "pseudo_teachers[0].ckpt"),
    ])
    def test_unknown_key_fails_before_any_output(self, tmp_path, capsys, overrides, path):
        cfg = write_config(tmp_path / "c.json", preset="A1", **overrides)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "distill"]) == 1
        assert path in capsys.readouterr().err
        assert not out.exists()

    # a valid value other than the default for every training key
    NON_DEFAULT = {
        "loss_mode": "A2", "learning_rate": 0.3, "epochs": 3, "batch_size": 5,
        "fixed_tau": 1.5, "alpha_kd": 0.2, "alpha_inter": 0.1, "mu": 0.5,
        "cpdp_clamp": 10.0, "p_pseudo": 0.5, "gate_steepness": 2.0,
        "gate_threshold": 0.25, "weight_temperature": 2.0, "tau_min": 0.25,
        "tau_max": 3.0, "anchor_tokens": 7, "lambda_override": 0.5,
        "equal_teacher_weights": True, "context_limit": 32, "gen_max_len": 5,
    }

    def test_every_training_key_reaches_its_train_config_field(self):
        from relkd.cli import DEFAULT_CONFIG, _train_config, load_config

        assert set(self.NON_DEFAULT) == set(DEFAULT_CONFIG["training"])
        for key, value in self.NON_DEFAULT.items():
            assert value != DEFAULT_CONFIG["training"][key]
            cfg = load_config(None, None)
            cfg["training"][key] = value
            tc = _train_config(cfg)
            holders = (tc, tc.weights, tc.reliability, tc.adaptive_tau_cfg, tc.mixing)
            assert [getattr(h, key) for h in holders if hasattr(h, key)] == [value], key

    def test_every_preset_key_is_a_training_key(self):
        from relkd.cli import DEFAULT_CONFIG, PRESETS

        for name, preset in PRESETS.items():
            assert set(preset) <= set(DEFAULT_CONFIG["training"]), name
            assert preset["loss_mode"] in MODES, name


class TestLoadBundle:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_reads_exactly_what_the_mode_row_requires(self, tmp_path, monkeypatch, mode):
        import relkd.cli as cli

        read, kinds = [], []
        monkeypatch.setattr(cli, "read_cache",
                            lambda p, kind: read.append(p) or kinds.append(kind) or [])
        monkeypatch.setattr(cli, "load_checkpoint", lambda p: read.append(p) or (object(), {}))
        cfg = cli.load_config(None, None)
        cfg["training"].update(loss_mode=mode, p_pseudo=0.3)
        for name in ("teacher1_topk.jsonl", "teacher2_topk.jsonl", "pseudo_labels.jsonl",
                     "teacher1.json"):
            (tmp_path / name).write_text("")
        bundle = cli._load_bundle(cfg, str(tmp_path), cli._train_config(cfg))

        spec = MODES[mode]
        expected = [name for flag, name in (
            (spec.teacher1, "teacher1_topk.jsonl"), (spec.teacher2, "teacher2_topk.jsonl"),
            (spec.pseudo, "pseudo_labels.jsonl"), (spec.hidden, "teacher1.json"),
        ) if flag]
        assert [os.path.basename(p) for p in read] == expected
        assert kinds == [kind for flag, kind in ((spec.teacher1, "topk"), (spec.teacher2, "topk"),
                                                 (spec.pseudo, "pseudo")) if flag]
        assert (bundle.topk1 is not None) == spec.teacher1
        assert (bundle.topk2 is not None) == spec.teacher2
        assert (bundle.pseudo is not None) == spec.pseudo
        assert (bundle.teacher_params is not None) == spec.hidden


class TestGateTraceAnchor:
    def test_header_reports_the_anchor_the_student_was_trained_with(self, workspace, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", preset="ewad_cpdp",
            teacher1={"checkpoint": str(workspace / "teacher1.json"),
                      "cache": str(workspace / "teacher1_topk.jsonl")},
            teacher2={"checkpoint": str(workspace / "teacher2.json"),
                      "cache": str(workspace / "teacher2_topk.jsonl")},
            outputs={"checkpoint": "cpdp.json", "metrics": "cpdp.jsonl"},
            training={"epochs": 2, "batch_size": 8},
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path), "distill"]) == 0
        delta_star = load_checkpoint(tmp_path / "cpdp.json")[1]["meta"]["delta_star"]
        assert delta_star is not None

        def traced(checkpoint):
            c = json.loads(cfg.read_text())
            c["outputs"]["checkpoint"] = checkpoint
            cfg.write_text(json.dumps(c))
            assert main(["--config", str(cfg), "--out", str(tmp_path),
                         "gate-trace", "--samples", "tr00000"]) == 0
            lines = (tmp_path / "gate_trace.jsonl").read_text().splitlines()
            return json.loads(lines[0])["delta_star"]

        assert traced("cpdp.json") == delta_star
        # a student trained without CPDP gets the anchor distill would compute
        assert traced(str(workspace / "student.json")) == delta_star
