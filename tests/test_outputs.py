"""Every CLI output file and all stdout is byte-identical to the record in
``tests/golden/outputs.json``.

One small workspace (40 training examples, V=24, k=6, two pseudo teachers)
runs ``cache-teacher``, then ``distill``, ``evaluate --teacher-checkpoint``
and ``gate-trace`` for every preset, then ``mapreduce --trace``. The test
compares the sha256 of each file the workspace holds afterwards, and of
everything the commands printed, with the record.

After a change that is meant to alter an output, regenerate the record with
``PYTHONPATH=src python tests/test_outputs.py > tests/golden/outputs.json``
and say which outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from relkd.cli import PRESETS, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.json")
SAMPLES = "tr00000,tr00003"


def _config(path, **overrides) -> str:
    cfg = {
        "version": 1,
        "seed": 0,
        "corpus": {"n_train": 40, "n_test": 10, "n_val": 0, "vocab_size": 24},
        "student": {"hidden_dim": 6},
        "teacher1": {"checkpoint": "teacher1.json"},
        "teacher2": {"checkpoint": "teacher2.json"},
        "pseudo_teachers": [{"id": "p1", "checkpoint": "teacher1.json"},
                            {"id": "p2", "checkpoint": "teacher2.json"}],
        "cache_k": 6,
        "training": {"epochs": 2, "batch_size": 8},
        **overrides,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    return path


def _run(out: str, config: str, *args: str) -> None:
    rc = main(["--config", config, "--out", out, *args])
    if rc != 0:
        raise RuntimeError(f"{' '.join(args)} with {os.path.basename(config)} exited {rc}")


def outputs(root: str) -> dict[str, str]:
    """Run the workspace under ``root``; the sha256 of every output file by
    name, and of all stdout under ``"<stdout>"``."""
    configs, out = os.path.join(root, "configs"), os.path.join(root, "ws")
    os.makedirs(configs)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for name, seed, hidden in (("teacher1", 0, 8), ("teacher2", 1, 7)):
            _run(out, _config(os.path.join(configs, f"{name}.json"), preset="A1", seed=seed,
                              student={"hidden_dim": hidden},
                              training={"epochs": 4, "batch_size": 8},
                              outputs={"checkpoint": f"{name}.json",
                                       "metrics": f"{name}_metrics.jsonl"}),
                 "distill")
        _run(out, _config(os.path.join(configs, "cache.json")), "cache-teacher")
        for preset in PRESETS:
            cfg = _config(os.path.join(configs, f"{preset}.json"), preset=preset,
                          outputs={"checkpoint": f"{preset}.json",
                                   "metrics": f"{preset}_metrics.jsonl",
                                   "report": f"{preset}_report.json",
                                   "gate_trace": f"{preset}_gate_trace.jsonl"})
            _run(out, cfg, "distill")
            _run(out, cfg, "evaluate", "--teacher-checkpoint", "teacher1.json")
            _run(out, cfg, "gate-trace", "--samples", SAMPLES)
        _run(out, _config(os.path.join(configs, "mapreduce.json"),
                          mapreduce={"map_checkpoint": "ewad_cpdp.json",
                                     "reduce_checkpoint": "A2.json"}),
             "--trace", "mapreduce")
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    digests["<stdout>"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


def test_every_output_matches_its_recorded_digest(tmp_path):
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    got = outputs(str(tmp_path))
    assert sorted(got) == sorted(golden)
    assert [name for name in golden if got[name] != golden[name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(outputs(tmp), sys.stdout, indent=1, sort_keys=True)
        print()
