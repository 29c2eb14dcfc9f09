"""Command-line front end.

Subcommands: cache-teacher, distill, evaluate, mapreduce, gate-trace.
Global flags: --config PATH, --seed INT, --out DIR. ``mapreduce --trace``
also writes the chunk-level trace of the MapReduce pipeline.

Configs are a single versioned JSON document. Every constant has a default,
so naming a preset ("A2", "ewad_cpdp", ...) is a complete experiment; any
explicitly set field overrides the preset. All validation happens before the
first output file is created, and every output is deterministic given
(config, seed): rerunning a subcommand rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import partial

from .atomic import write_text_atomic
from .evalmetrics import retention
from .longdoc import ChunkConfig, PipelineError, summarize_long
from .losses import CpdpAnchor
from .teachercache import read_cache, write_cache
from .toymodel import (
    ROUTE_DIRECT,
    ToyModelParams,
    decode_rows,
    generate,
    load_checkpoint,
    route,
    save_checkpoint,
)
from .training import (
    CorpusConfig,
    SupervisionBundle,
    TrainConfig,
    TrainingDiverged,
    build_pseudo_records,
    build_topk_cache,
    derive_seed,
    evaluate_rouge,
    index_pseudo,
    prepare_supervision,
    synthetic_corpus,
    synthetic_document,
    train,
)

CONFIG_VERSION = 1

# TrainConfig's nested config objects, by field name.
_TRAIN_PARTS = {f.name: f.default_factory for f in fields(TrainConfig)
                if is_dataclass(f.default_factory)}
# Training fields set from outside the "training" section.
_DERIVED_TRAINING = ("seed", "hidden_dim")
# The top-k teachers' config sections, in teacher order: a loss mode reads the
# first ``ModeSpec.teachers`` of them.
_TEACHERS = ("teacher1", "teacher2")


def _field_defaults(cls, skip=()) -> dict:
    """The constructor fields of a dataclass that have plain defaults."""
    return {f.name: f.default for f in fields(cls)
            if f.init and f.default is not MISSING and f.name not in skip}


# Every training default, read from TrainConfig and its parts.
_TRAINING = {k: v for cls in (TrainConfig, *_TRAIN_PARTS.values())
             for k, v in _field_defaults(cls).items()}

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "preset": None,
    "seed": _TRAINING["seed"],
    "corpus": {
        "n_train": 200,
        "n_test": 50,
        "n_val": 0,
        **_field_defaults(CorpusConfig, skip=("seed", "id_prefix")),
    },
    "student": {"hidden_dim": _TRAINING["hidden_dim"]},
    "teacher1": {"checkpoint": "teacher1.json", "cache": "teacher1_topk.jsonl"},
    "teacher2": {"checkpoint": None, "cache": "teacher2_topk.jsonl"},
    "pseudo_teachers": [],
    "pseudo_cache": "pseudo_labels.jsonl",
    "cache_k": 8,
    "beam_width": 4,
    "training": {k: v for k, v in _TRAINING.items() if k not in _DERIVED_TRAINING},
    "mapreduce": {
        **_field_defaults(ChunkConfig),
        "map_checkpoint": None,
        "reduce_checkpoint": None,
    },
    "outputs": {
        "checkpoint": "student.json",
        "metrics": "metrics.jsonl",
        "report": "report.json",
        "summary": "summary.json",
        "gate_trace": "gate_trace.jsonl",
        "mapreduce_trace": "mapreduce_trace.jsonl",
    },
}

# Experiment arms, as the training values that differ from the defaults: the
# five-stage ablation, and dual-teacher arms that pin the gate and/or weights.
PRESETS = {
    "A1": {"loss_mode": "CE"},
    "A2": {"loss_mode": "A2"},
    "A3": {"loss_mode": "A3", "p_pseudo": 0.3},
    "A4": {"loss_mode": "A4", "p_pseudo": 0.3},
    "A5": {"loss_mode": "A5", "alpha_inter": 0.1, "p_pseudo": 0.3},
    "baseline": {"loss_mode": "CE"},
    "fixed_weights": {
        "loss_mode": "EWAD", "fixed_tau": 1.0,
        "lambda_override": 1.0, "equal_teacher_weights": True,
    },
    "confidence_only": {"loss_mode": "EWAD", "fixed_tau": 1.0, "lambda_override": 1.0},
    "agreement_only": {"loss_mode": "EWAD", "fixed_tau": 1.0, "equal_teacher_weights": True},
    "ewad_full": {"loss_mode": "EWAD", "fixed_tau": 1.0},
    "ewad_cpdp": {"loss_mode": "EWAD_CPDP", "fixed_tau": 1.0},
}


class CliError(RuntimeError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# The type of each key whose default is None, and the keys of list entries.
_NULLABLE = {"preset": str, "teacher2.checkpoint": str, "mapreduce.map_checkpoint": str,
             "mapreduce.reduce_checkpoint": str, "training.lambda_override": float}
_LIST_ENTRIES = {"pseudo_teachers": {"id": "", "checkpoint": ""}}
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "an array"}
# The least value of some settings. A beam, a top-k cache or a student of
# width 0 keeps nothing.
_MINIMUM = {"beam_width": 1, "cache_k": 1, "student.hidden_dim": 1,
            "corpus.n_train": 0, "corpus.n_test": 0, "corpus.n_val": 0}


def _fits(value, expected: type) -> bool:
    """Whether a JSON value has the type: an int is a float, a bool is neither,
    and NaN and Infinity are not numbers."""
    if isinstance(value, bool) or expected is bool:
        return type(value) is expected
    if expected is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, expected)


def _config_problems(user: dict, defaults: dict, prefix: str = "") -> list[str]:
    """The keys in ``user`` that ``defaults`` does not have, the values whose
    type is not their default's, the empty strings, and the keys a list entry
    lacks, by dotted path."""
    out = []
    for key, value in user.items():
        path = prefix + key
        if key not in defaults:
            out.append(f"unknown key {path}")
            continue
        default = defaults[key]
        expected = type(default) if default is not None else _NULLABLE[path]
        if not ((default is None and value is None) or _fits(value, expected)):
            null = " or null" if default is None else ""
            out.append(f"{path} must be {_JSON_TYPES[expected]}{null}")
        elif value == "":
            out.append(f"{path} must be a non-empty string")
        elif isinstance(value, dict):
            out.extend(_config_problems(value, default, path + "."))
        elif isinstance(value, list):
            for i, entry in enumerate(value):
                if not isinstance(entry, dict):
                    out.append(f"{path}[{i}] must be an object")
                else:
                    out.extend(_config_problems(entry, _LIST_ENTRIES[path], f"{path}[{i}]."))
                    out.extend(f"{path}[{i}].{key} is missing"
                               for key in _LIST_ENTRIES[path] if key not in entry)
    return out


def load_config(path: str | None, seed_override: int | None) -> dict:
    user: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                user = json.load(f)
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise CliError(f"config {path} must be a JSON object")
        if user.get("version", CONFIG_VERSION) != CONFIG_VERSION:
            raise CliError(f"unsupported config version {user.get('version')!r}")
        problems = _config_problems(user, DEFAULT_CONFIG)
        if problems:
            raise CliError(f"config {path}: {'; '.join(problems)}")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    preset = user.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise CliError(f"unknown preset {preset!r} (known: {', '.join(sorted(PRESETS))})")
        cfg["training"] = _deep_merge(cfg["training"], PRESETS[preset])
    cfg = _deep_merge(cfg, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if cfg["seed"] < 0:
        raise CliError("seed must be non-negative")
    for path, least in _MINIMUM.items():
        if _setting(cfg, path) < least:
            raise CliError(f"{path} must be >= {least}, got {_setting(cfg, path)}")
    # the corpus, training and mapreduce settings' own range checks, before any output exists
    _corpus_cfg(cfg, "train")
    _train_config(cfg)
    _chunk_config(cfg)
    ids = [p["id"] for p in cfg["pseudo_teachers"]]
    if len(set(ids)) < len(ids):
        raise CliError(f"pseudo_teachers[].id must be unique, got {ids}")
    return cfg


def _setting(cfg: dict, key: str):
    """The config value at a dotted key."""
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


# seed stream and example id prefix of each corpus split
_SPLITS = {"train": (0, "tr"), "test": (1, "te"), "val": (2, "va")}


def _build(cls, values: dict, section: str):
    """Construct a dataclass from the entries of ``values`` naming its fields;
    a value it rejects is reported under the config ``section`` it came from."""
    names = {f.name for f in fields(cls) if f.init}
    try:
        return cls(**{k: v for k, v in values.items() if k in names})
    except ValueError as exc:
        raise CliError(f"{section}.{exc}") from exc


def _corpus_cfg(cfg: dict, split: str) -> CorpusConfig:
    stream, prefix = _SPLITS[split]
    c = cfg["corpus"]
    return _build(CorpusConfig, {**c, "n_examples": c[f"n_{split}"],
                                 "seed": derive_seed(cfg["seed"], stream),
                                 "id_prefix": prefix}, "corpus")


def _train_config(cfg: dict) -> TrainConfig:
    """Route each training key to the TrainConfig field, or the field of one
    of its nested config objects, of the same name."""
    values = {**cfg["training"], "seed": cfg["seed"],
              "hidden_dim": cfg["student"]["hidden_dim"]}
    parts = {name: _build(cls, values, "training") for name, cls in _TRAIN_PARTS.items()}
    return _build(TrainConfig, {**values, **parts}, "training")


def _chunk_config(cfg: dict) -> ChunkConfig:
    """The mapreduce section as a ChunkConfig."""
    return _build(ChunkConfig, cfg["mapreduce"], "mapreduce")


def _input(path: str | None, out_dir: str, key: str, reads: dict[str, str]) -> str:
    """An input file: ``path`` under ``out_dir`` (or absolute), which must
    exist and be a file; ``reads`` records it under its config key (or flag)."""
    if path is None:
        raise CliError(f"{key} is not configured")
    path = reads[key] = os.path.join(out_dir, path)
    if not os.path.exists(path):
        raise CliError(f"{key} not found: {path}")
    if not os.path.isfile(path):
        raise CliError(f"{key} is not a file: {path}")
    return path


def _check_outputs(cfg: dict, out_dir: str, outputs: list[str],
                   reads: dict[str, str]) -> dict[str, str]:
    """The path under ``out_dir`` of each output key, checked before any write:
    it must name a file in an existing directory, and no other output, nor a
    file that the run reads."""
    named: dict[str, str] = {}
    for key, path in reads.items():
        named.setdefault(os.path.realpath(path), key)
    paths = {}
    for key in outputs:
        path = paths[key] = os.path.join(out_dir, _setting(cfg, key))
        if os.path.isdir(path) or not os.path.basename(path):
            raise CliError(f"{key} names a directory: {path}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise CliError(f"{key} lies in a directory that does not exist: {path}")
        real = os.path.realpath(path)
        if real in named:
            raise CliError(f"{key} and {named[real]} name the same file {real}")
        named[real] = key
    return paths


def _check_vocab(cfg: dict, params: ToyModelParams, path: str,
                 exact: bool = False) -> ToyModelParams:
    """``params``, once checked to cover every token of the synthetic corpora,
    and with ``exact`` (a top-k teacher, scored against the student) no more."""
    vocab = cfg["corpus"]["vocab_size"]
    if vocab > params.vocab_size or (exact and vocab != params.vocab_size):
        relation = "exceeds" if vocab > params.vocab_size else "differs from"
        raise CliError(f"corpus.vocab_size {vocab} {relation} the vocabulary size "
                       f"{params.vocab_size} of checkpoint {path}")
    return params


def _write_jsonl(path: str, header: dict, rows: list[dict]) -> None:
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj: dict) -> None:
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_bundle(cfg: dict, out_dir: str, tc: TrainConfig, reads: dict) -> SupervisionBundle:
    """Read whatever caches the loss mode consumes, validating first."""
    bundle = SupervisionBundle(topk=tuple(
        read_cache(_input(cfg[t]["cache"], out_dir, f"{t}.cache", reads), "topk")
        for t in _TEACHERS[:tc.spec.teachers]))
    if tc.mixes_pseudo:
        path = _input(cfg["pseudo_cache"], out_dir, "pseudo_cache", reads)
        bundle.pseudo = index_pseudo(read_cache(path, "pseudo"))
    if tc.spec.hidden:
        path = _input(cfg["teacher1"]["checkpoint"], out_dir, "teacher1.checkpoint", reads)
        bundle.teacher_params = _check_vocab(cfg, load_checkpoint(path)[0], path)
    return bundle


# ---------------------------------------------------------------------------
# Subcommands


def cmd_cache_teacher(cfg: dict, out_dir: str, reads: dict[str, str]) -> int:
    # the same teacher named twice writes its cache once
    teachers = {t: _input(cfg[t]["checkpoint"], out_dir, f"{t}.checkpoint", reads)
                for i, t in enumerate(_TEACHERS) if cfg[t]["checkpoint"] is not None
                and cfg[t] not in [cfg[u] for u in _TEACHERS[:i]]}
    pseudo_teachers = [(p["id"], _input(p["checkpoint"], out_dir,
                                        f"pseudo_teachers[{i}].checkpoint", reads))
                       for i, p in enumerate(cfg["pseudo_teachers"])]
    paths = _check_outputs(cfg, out_dir, [f"{t}.cache" for t in teachers]
                           + (["pseudo_cache"] if pseudo_teachers else []), reads)

    corpus = synthetic_corpus(_corpus_cfg(cfg, "train"))
    if not corpus.examples:
        raise CliError("training split is empty; configure corpus.n_train > 0")
    k = cfg["cache_k"]
    topk_params = {t: _check_vocab(cfg, load_checkpoint(path)[0], path, exact=True)
                   for t, path in teachers.items()}

    # build and check every record first so a failure cannot leave partial cache files
    pseudo_records = []
    for tid, path in pseudo_teachers:
        params = _check_vocab(cfg, load_checkpoint(path)[0], path)
        records = build_pseudo_records(params, tid, corpus, beam_width=cfg["beam_width"],
                                       max_len=cfg["training"]["gen_max_len"])
        for rec in records:
            if max(rec.tokens) >= corpus.vocab_size:
                raise CliError(f"pseudo teacher {tid} (checkpoint {path}) emits token "
                               f"{max(rec.tokens)} for example {rec.example_id}, outside "
                               f"corpus.vocab_size {corpus.vocab_size}")
        pseudo_records.extend(records)
    pseudo_idx = index_pseudo(pseudo_records)
    caches = {t: build_topk_cache(params, corpus, k, pseudo_idx)
              for t, params in topk_params.items()}

    if pseudo_records:
        n = write_cache(pseudo_records, paths["pseudo_cache"], vocab_size=corpus.vocab_size)
        print(f"wrote {n} pseudo-label records to {cfg['pseudo_cache']}")
    for teacher, cache in caches.items():
        n = write_cache(cache, paths[f"{teacher}.cache"])
        mass = cache.mass_kept
        kept = ("" if mass is None
                else f" (top-{k} mass kept: mean {mass['mean']:.4f}, min {mass['min']:.4f})")
        print(f"wrote {n} top-k records to {cfg[teacher]['cache']}{kept}")
    return 0


def cmd_distill(cfg: dict, out_dir: str, reads: dict[str, str]) -> int:
    tc = _train_config(cfg)
    bundle = _load_bundle(cfg, out_dir, tc, reads)
    paths = _check_outputs(cfg, out_dir, ["outputs.checkpoint", "outputs.metrics"], reads)
    corpus = synthetic_corpus(_corpus_cfg(cfg, "train"))
    val_corpus = None
    if cfg["corpus"]["n_val"] > 0:
        val_corpus = synthetic_corpus(_corpus_cfg(cfg, "val"))

    result = train(tc, corpus, bundle, val_corpus=val_corpus)

    save_checkpoint(
        paths["outputs.checkpoint"], result.params,
        meta={"loss_mode": tc.loss_mode, "seed": cfg["seed"],
              "preset": cfg.get("preset"),
              "delta_star": None if result.anchor is None else result.anchor.delta_star},
    )
    _write_jsonl(
        paths["outputs.metrics"],
        {"version": 1, "kind": "metrics", "loss_mode": tc.loss_mode, "seed": cfg["seed"]},
        result.metrics,
    )
    print(f"trained {tc.loss_mode} for {tc.epochs} epochs; "
          f"checkpoint {cfg['outputs']['checkpoint']}, metrics {cfg['outputs']['metrics']}")
    return 0


def cmd_evaluate(cfg: dict, out_dir: str, reads: dict[str, str], checkpoint: str | None,
                 teacher_checkpoint: str | None) -> int:
    path = _input(checkpoint or cfg["outputs"]["checkpoint"], out_dir,
                  "--checkpoint" if checkpoint else "outputs.checkpoint", reads)
    params = _check_vocab(cfg, load_checkpoint(path)[0], path)
    if teacher_checkpoint is not None:
        path = _input(teacher_checkpoint, out_dir, "--teacher-checkpoint", reads)
        t_params = _check_vocab(cfg, load_checkpoint(path)[0], path)
    paths = _check_outputs(cfg, out_dir, ["outputs.report"], reads)
    corpus = synthetic_corpus(_corpus_cfg(cfg, "test"))
    if not corpus.examples:
        raise CliError("test split is empty; configure corpus.n_test > 0")
    scores = evaluate_rouge(params, corpus, max_len=cfg["training"]["gen_max_len"])
    report = {
        "version": 1,
        "kind": "evaluation",
        "config": {"preset": cfg.get("preset"), "seed": cfg["seed"],
                   "n_test": cfg["corpus"]["n_test"]},
        "rouge1": scores.rouge1,
        "rouge2": scores.rouge2,
        "rougeL": scores.rougeL,
    }
    if teacher_checkpoint is not None:
        t_scores = evaluate_rouge(t_params, corpus, max_len=cfg["training"]["gen_max_len"])
        rep = retention(scores, t_scores)
        report["teacher_rougeL"] = rep.teacher
        report["retention_pct"] = rep.retention_pct
    _write_json(paths["outputs.report"], report)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_mapreduce(cfg: dict, out_dir: str, reads: dict[str, str], trace: bool,
                  document: str | None) -> int:
    mr = cfg["mapreduce"]
    map_key = "mapreduce.map_checkpoint" if mr["map_checkpoint"] else "outputs.checkpoint"
    map_ckpt = _input(_setting(cfg, map_key), out_dir, map_key, reads)
    reduce_ckpt = map_ckpt
    if mr["reduce_checkpoint"] is not None:
        reduce_ckpt = _input(mr["reduce_checkpoint"], out_dir, "mapreduce.reduce_checkpoint", reads)
    map_params, _ = load_checkpoint(map_ckpt)
    reduce_params = map_params if reduce_ckpt == map_ckpt else load_checkpoint(reduce_ckpt)[0]

    if document is not None:
        with open(_input(document, "", "--document", reads), "r", encoding="utf-8") as f:
            try:
                obj = json.load(f)
            except json.JSONDecodeError as exc:
                raise CliError(f"document {document} is not valid JSON: {exc}") from exc
        tokens = obj.get("tokens") if isinstance(obj, dict) else obj
        if not isinstance(tokens, list) or not tokens or set(map(type, tokens)) != {int}:
            raise CliError(f"document {document} must be a non-empty list of integer tokens, "
                           'bare or as {"tokens": [...]}')
        vocab = map_params.vocab_size
        if min(tokens) < 0 or max(tokens) >= vocab:
            bad = next(t for t in tokens if not 0 <= t < vocab)
            raise CliError(f"document {document} has token {bad}, outside the checkpoints' "
                           f"vocabulary [0, {vocab})")
    else:
        _check_vocab(cfg, map_params, map_ckpt)
        _check_vocab(cfg, reduce_params, reduce_ckpt)
        tokens = synthetic_document(
            3000, vocab_size=cfg["corpus"]["vocab_size"], seed=cfg["seed"]
        )
    if reduce_params.vocab_size < map_params.vocab_size:  # REDUCE reads MAP's summaries
        raise CliError(f"mapreduce.reduce_checkpoint {reduce_ckpt} has vocabulary size "
                       f"{reduce_params.vocab_size}, smaller than the vocabulary size "
                       f"{map_params.vocab_size} of {map_key} {map_ckpt}")

    paths = _check_outputs(cfg, out_dir,
                           ["outputs.summary"] + ["outputs.mapreduce_trace"] * trace, reads)
    ccfg = _chunk_config(cfg)
    gen_len = cfg["training"]["gen_max_len"]
    decided = route(tokens, ccfg.context_limit)
    trace_rows: list[dict] = []
    if decided == ROUTE_DIRECT:
        summary = generate(map_params, tokens, mode="greedy", max_len=gen_len)
    else:
        summary = summarize_long(
            tokens,
            partial(decode_rows, map_params, mode="greedy", max_len=gen_len),
            partial(decode_rows, reduce_params, mode="greedy", max_len=gen_len),
            ccfg,
            trace=trace_rows if trace else None,
        )
    _write_json(
        paths["outputs.summary"],
        {"version": 1, "kind": "summary", "route": decided,
         "n_input_tokens": len(tokens), "summary": [int(t) for t in summary]},
    )
    if trace:
        _write_jsonl(
            paths["outputs.mapreduce_trace"],
            {"version": 1, "kind": "mapreduce_trace", "route": decided},
            trace_rows,
        )
    print(f"route={decided} summary_tokens={len(summary)}")
    return 0


def cmd_gate_trace(cfg: dict, out_dir: str, reads: dict[str, str], samples: list[str]) -> int:
    if not samples:
        raise CliError("gate-trace requires at least one sample id")
    # tracing always needs both teachers and the CPDP anchor
    tc = replace(_train_config(cfg), loss_mode="EWAD_CPDP")
    bundle = _load_bundle(cfg, out_dir, tc, reads)
    path = _input(cfg["outputs"]["checkpoint"], out_dir, "outputs.checkpoint", reads)
    paths = _check_outputs(cfg, out_dir, ["outputs.gate_trace"], reads)
    params, meta = load_checkpoint(path)
    _check_vocab(cfg, params, path, exact=True)  # scored against the caches
    delta_star = meta.get("delta_star")
    if delta_star is not None and not _fits(delta_star, float):
        raise ValueError(f"{path}: meta.delta_star must be a finite number or null, "
                         f"got {delta_star!r}")
    corpus = synthetic_corpus(_corpus_cfg(cfg, "train"))
    by_id = {ex.example_id: i for i, ex in enumerate(corpus.examples)}
    for sid in samples:
        if sid not in by_id:
            raise CliError(f"unknown sample id {sid!r}")

    sup = prepare_supervision(tc, corpus, bundle)
    # report against the anchor the student was trained with, when it had one
    anchor = sup.anchor if delta_star is None else CpdpAnchor(delta_star)

    rows = []
    for sid in samples:
        # a batch of one: no padding, so the logits of the example alone
        *_, tb = sup.batch(params, [by_id[sid]])
        _, _, etr, ctr = tc.spec.step(tc, tb, tc.fixed_tau, None, anchor)
        columns = {"c1": etr.c1, "c2": etr.c2, "w1": etr.w1, "w2": etr.w2,
                   "agreement": etr.agreement, "lambda": etr.gate, "kd_term": etr.kd_term,
                   "ce_term": etr.ce_term, "cpdp_term": ctr.value}
        rows += ({"id": sid, "position": int(pos),
                  **{name: float(column[i]) for name, column in columns.items()}}
                 for i, pos in enumerate(tb.positions))
    _write_jsonl(
        paths["outputs.gate_trace"],
        {"version": 1, "kind": "gate_trace", "delta_star": anchor.delta_star},
        rows,
    )
    print(f"wrote {len(rows)} gate-trace records for {len(samples)} samples")
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process, which every call of main shares and none changes
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relkd",
        description="Reliability-aware multi-teacher distillation laboratory",
    )
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cache-teacher", help="score teachers offline into JSONL caches")
    sub.add_parser("distill", help="train a student under the configured arm")

    p_eval = sub.add_parser("evaluate", help="greedy-decode a test split and score it")
    p_eval.add_argument("--checkpoint", default=None)
    p_eval.add_argument("--teacher-checkpoint", default=None)

    p_mr = sub.add_parser("mapreduce", help="length-routed long-document summarization")
    p_mr.add_argument("--document", default=None, help="JSON token file (default: synthetic)")
    p_mr.add_argument("--trace", action="store_true",
                      help="also write the chunk-level trace (outputs.mapreduce_trace)")

    p_gt = sub.add_parser("gate-trace", help="per-token reliability records for samples")
    p_gt.add_argument("--samples", required=True, help="comma-separated sample ids")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        os.makedirs(args.out, exist_ok=True)
        # the config is read too: no output may name it
        out, reads = args.out, {} if args.config is None else {"--config": args.config}
        if args.command == "cache-teacher":
            return cmd_cache_teacher(cfg, out, reads)
        if args.command == "distill":
            return cmd_distill(cfg, out, reads)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out, reads, args.checkpoint, args.teacher_checkpoint)
        if args.command == "mapreduce":
            return cmd_mapreduce(cfg, out, reads, args.trace, args.document)
        if args.command == "gate-trace":
            return cmd_gate_trace(cfg, out, reads, [s for s in args.samples.split(",") if s])
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ValueError, OSError, KeyError, TrainingDiverged, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
