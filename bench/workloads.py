"""The workloads of the relkd benchmark and the checks on their outputs.

Each workload drives ``relkd.cli.main`` in-process. A run builds
``Workload.replicas`` independent input sets, each from its own seed derived from the workload
seed, and times each set-up; ``setup_s`` is their median. It then repeats a
cycle -- every operation of the workload once on every replica -- until the
measuring time is over.

Every workload reports the same end-to-end metrics: ``setup_s``, ``cycle_s``
(the median cycle) and ``op_latency_ms`` (the geometric mean, over every
operation and replica, of the median time of one call), all three scaled
to a reference host speed (see HostClock). Each workload also
has figures of its own -- per-operation throughputs (medians over the timed
operations) and deterministic quality figures (means over the replicas,
because one toy model's quality varies a lot from seed to seed) -- which are
reported with the per-layer metrics.

Every subcommand call and every check counts as one operation; a failure is
counted against the operations attempted and the run goes on.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import relkd.cli
from relkd.cli import DEFAULT_CONFIG, derive_seed
from relkd.evalmetrics import rouge_l
from relkd.teachercache import read_cache
from relkd.training import CorpusConfig, synthetic_corpus, synthetic_document

from tracer import DOCUMENTS, Tracer, baseline_comparison, layer_metrics
from tracer import per_layer_specs as tracer_layer_specs

# Cycles measured under the tracer. Counts are exact per cycle; more cycles
# would only add spans to hold in memory (about 100k per distill cycle).
TRACED_CYCLES = 2
# Steps of the reference loop, and the time it takes at the reference host
# speed: about what the 2-core host this was sized on needs when not slowed.
REFERENCE_STEPS = 10000
REFERENCE_NOMINAL_S = 0.05


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; tests shrink them."""

    distill_n_train: int = 160
    distill_epochs: int = 4
    teacher_epochs: int = 10
    cache_n_train: int = 100
    # The models that decode (the pseudo teacher of cache_teacher, the
    # summarizer of summarize) get a larger model and corpus, so that few
    # seeds give a degenerate decoder, whose output length would swing the
    # decoding cost and the ROUGE scores from seed to seed.
    scored_hidden: int = 32
    scored_n_train: int = 800
    scored_epochs: int = 15
    scored_lr: float = 0.3
    n_test: int = 2000
    doc_tokens: int = 30000
    doc_pool: int = 40
    # Decoding stops here if no EOS came first. relkd's default, 16, lets
    # the one toy model in a few that rarely emits EOS cost twice as much
    # as the others, which swings a run's times from seed to seed.
    gen_max_len: int = 6


@dataclass
class Replica:
    index: int
    seed: int
    dir: str

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def unknown_keys(cfg: dict, defaults: dict, prefix: str = "") -> list[str]:
    """Dotted paths of keys in ``cfg`` that ``defaults`` does not have."""
    out = []
    for key, value in cfg.items():
        if key not in defaults:
            out.append(prefix + key)
        elif isinstance(value, dict) and isinstance(defaults[key], dict):
            out.extend(unknown_keys(value, defaults[key], f"{prefix}{key}."))
    return out


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _snapshot(directory: str) -> dict[str, tuple[int, int]]:
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir(directory) if e.is_file()}


class Run:
    """The operations of one run: subcommand calls and checks, counted."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # (operation label, replica index, wall time) of each successful call
        self.calls: list[tuple[str, int, float]] = []
        self._digests: dict[tuple[str, str], str] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def cli(self, rep: Replica, label: str, config: str, args: list[str],
            outputs: list[str]) -> float | None:
        """Run one subcommand on a replica; returns its wall time, or None if
        it failed. The files in ``outputs`` must come out the same every time
        the operation runs, traced or not."""
        argv = ["--config", rep.path(f"{config}.config.json"), "--out", rep.dir, *args]
        for o in outputs:  # so that a file the call did not write cannot pass
            if os.path.exists(rep.path(o)):
                os.remove(rep.path(o))
        tracer = self.tracer
        before = _snapshot(rep.dir) if tracer else None
        with (tracer.active() if tracer else nullcontext()), \
                (tracer.span(f"bench:{label}") if tracer else nullcontext({})) as extra, \
                redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                rc = relkd.cli.main(argv)
            except Exception:  # a crashing subcommand is a failed operation
                rc = traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            if tracer:
                after = _snapshot(rep.dir)
                extra["bytes_written"] = sum(
                    size for name, (mtime, size) in after.items()
                    if before.get(name, (None,))[0] != mtime)
        if not self.check(rc == 0, f"replica {rep.index} {label}: returned {rc!r}"):
            return None
        self.calls.append((label, rep.index, dt))
        try:
            digest = _digest([rep.path(o) for o in outputs])
        except OSError as exc:
            self.check(False, f"replica {rep.index} {label}: missing output ({exc})")
            return None
        key = (rep.dir, label)
        if key in self._digests:
            self.check(self._digests[key] == digest,
                       f"replica {rep.index} {label}: outputs changed on rerun")
        else:
            self._digests[key] = digest
        return dt

    def train(self, rep: Replica, name: str, loss_mode: str, epochs: int) -> float | None:
        """A distill call whose metrics file is checked; returns the final loss."""
        if self.cli(rep, f"distill.{name}", name, ["distill"],
                    [f"{name}.json", f"{name}_metrics.jsonl"]) is None:
            return None
        return self.check_metrics(rep.path(f"{name}_metrics.jsonl"), loss_mode, epochs)

    def check_metrics(self, path: str, loss_mode: str, epochs: int) -> float | None:
        try:
            with open(path, encoding="utf-8") as f:
                header, *rows = [json.loads(line) for line in f]
        except (OSError, ValueError) as exc:
            self.check(False, f"{path}: unreadable ({exc})")
            return None
        losses = [r.get("loss") for r in rows]
        ok = (header.get("loss_mode") == loss_mode and len(rows) == epochs
              and all(isinstance(v, float) and math.isfinite(v) for v in losses))
        self.check(ok, f"{path}: expected {epochs} epochs of {loss_mode} with finite losses")
        return losses[-1] if ok else None

    def check_cache(self, path: str, n_records: int) -> list | None:
        try:
            records = read_cache(path)
        except (OSError, ValueError) as exc:
            self.check(False, f"{path}: {exc}")
            return None
        ok = self.check(len(records) == n_records,
                        f"{path}: {len(records)} records, expected {n_records}")
        return records if ok else None

    def check_rouge(self, what: str, value) -> float | None:
        ok = isinstance(value, float) and 0.0 <= value <= 1.0
        self.check(ok, f"{what}: ROUGE {value!r} outside [0, 1]")
        return value if ok else None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _mean(values: list) -> float:
    return statistics.fmean(values) if values and None not in values else float("nan")


def _base(seed: int, gen_max_len: int, **corpus) -> dict:
    return {"version": 1, "seed": seed, "corpus": {"n_val": 0, **corpus},
            "training": {"gen_max_len": gen_max_len}}


def _model_config(base: dict, name: str, hidden: int, epochs: int, **training) -> dict:
    return {**base, "preset": "A1", "student": {"hidden_dim": hidden},
            "training": {**base["training"], "epochs": epochs, **training},
            "outputs": {"checkpoint": f"{name}.json", "metrics": f"{name}_metrics.jsonl"}}


def _teacher_configs(base: dict, epochs: int) -> dict[str, dict]:
    return {name: _model_config(base, name, hidden, epochs)
            for name, hidden in (("teacher1", 24), ("teacher2", 20))}


def _cache_config(base: dict, pseudo_checkpoint: str) -> dict:
    return {**base, "beam_width": 4,
            "teacher1": {"checkpoint": "teacher1.json"},
            "teacher2": {"checkpoint": "teacher2.json"},
            "pseudo_teachers": [{"id": "p1", "checkpoint": pseudo_checkpoint}]}


CACHES = ("pseudo_labels.jsonl", "teacher1_topk.jsonl", "teacher2_topk.jsonl")


class Workload:
    """One workload: its configs, its set-up and its measured cycle."""

    name = ""
    replicas = 4
    # (name, unit, better) of each figure of its own, a per-layer metric
    figures: tuple = ()
    # traced call-name prefixes that must not occur (layers the workload bypasses)
    bypassed: tuple = ()

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes
        # throughput figure -> one sample per timed operation
        self.samples: dict[str, list[float]] = defaultdict(list)
        # quality figure -> its deterministic value on each replica
        self.quality: dict[str, list] = {}

    def configs(self, seed: int) -> dict[str, dict]:
        raise NotImplementedError

    def setup(self, run: Run, rep: Replica) -> None:
        raise NotImplementedError

    def cycle(self, run: Run, rep: Replica) -> None:
        raise NotImplementedError

    def results(self) -> dict[str, float]:
        """Median of each throughput, mean over the replicas of each quality."""
        return {**{k: _median(v) for k, v in self.samples.items()},
                **{k: _mean(v) for k, v in self.quality.items()}}

    def _quality(self, key: str, rep: Replica, value) -> None:
        self.quality.setdefault(key, [None] * self.replicas)[rep.index] = value


class Distill(Workload):
    """Four distill arms on caches of two teachers; nothing is decoded."""

    name = "distill"
    # (preset, metric suffix, loss mode)
    ARMS = (("A1", "A1", "CE"), ("A2", "A2", "A2"), ("A5", "A5", "A5"),
            ("ewad_cpdp", "EWAD_CPDP", "EWAD_CPDP"))
    figures = (
        *((f"train_ex_per_s.{s}", "ex/s", "higher") for _, s, _ in ARMS),
        *((f"final_loss.{s}", "nats", "lower") for _, s, _ in ARMS),
    )
    bypassed = ("toymodel.generate", "teachercache.write_cache")

    def configs(self, seed):
        s = self.sizes
        base = _base(seed, s.gen_max_len, n_train=s.distill_n_train)
        cfgs = {**_teacher_configs(base, s.teacher_epochs),
                "cache": _cache_config(base, "teacher1.json")}
        for preset, suffix, _ in self.ARMS:
            cfgs[f"arm_{suffix}"] = {
                **base, "preset": preset,
                "training": {**base["training"], "epochs": s.distill_epochs},
                "outputs": {"checkpoint": f"arm_{suffix}.json",
                            "metrics": f"arm_{suffix}_metrics.jsonl"}}
        return cfgs

    def setup(self, run, rep):
        n = self.sizes.distill_n_train
        run.train(rep, "teacher1", "CE", self.sizes.teacher_epochs)
        run.train(rep, "teacher2", "CE", self.sizes.teacher_epochs)
        if run.cli(rep, "cache-teacher", "cache", ["cache-teacher"], list(CACHES)) is not None:
            for name, count in zip(CACHES, (n, 2 * n, 2 * n)):
                run.check_cache(rep.path(name), count)

    def cycle(self, run, rep):
        s = self.sizes
        for _, suffix, mode in self.ARMS:
            dt = run.cli(rep, f"distill.{suffix}", f"arm_{suffix}", ["distill"],
                         [f"arm_{suffix}.json", f"arm_{suffix}_metrics.jsonl"])
            if dt is None:
                continue
            self.samples[f"train_ex_per_s.{suffix}"].append(
                s.distill_n_train * s.distill_epochs / dt)
            loss = run.check_metrics(rep.path(f"arm_{suffix}_metrics.jsonl"), mode,
                                     s.distill_epochs)
            self._quality(f"final_loss.{suffix}", rep, loss)


class CacheTeacher(Workload):
    """Beam pseudo-labels plus top-k scoring of two teachers, written to caches."""

    name = "cache_teacher"
    # Its cost depends most on the seed, through the pseudo teacher's
    # decoding, so a cycle spreads it over more, smaller replicas.
    replicas = 8
    figures = (
        ("cache_examples_per_s", "ex/s", "higher"),
        ("pseudo_rougeL", "F1", "higher"),
    )
    bypassed = ("losses.", "reliability.")

    def __init__(self, sizes: Sizes) -> None:
        super().__init__(sizes)
        self.gold: dict[int, dict[str, list[int]]] = {}

    def configs(self, seed):
        s = self.sizes
        base = _base(seed, s.gen_max_len, n_train=s.cache_n_train)
        return {
            **_teacher_configs(base, s.teacher_epochs),
            "pseudo": _model_config(_base(seed, s.gen_max_len, n_train=s.scored_n_train),
                                    "pseudo", s.scored_hidden, s.scored_epochs,
                                    learning_rate=s.scored_lr),
            "cache": _cache_config(base, "pseudo.json"),
        }

    def setup(self, run, rep):
        for name in ("teacher1", "teacher2", "pseudo"):
            run.train(rep, name, "CE", self.sizes.scored_epochs if name == "pseudo"
                      else self.sizes.teacher_epochs)
        # the train split exactly as the CLI derives it from the config seed
        corpus = synthetic_corpus(CorpusConfig(
            n_examples=self.sizes.cache_n_train, seed=derive_seed(rep.seed, 0),
            id_prefix="tr"))
        self.gold[rep.index] = {ex.example_id: ex.summary for ex in corpus.examples}

    def cycle(self, run, rep):
        n = self.sizes.cache_n_train
        dt = run.cli(rep, "cache-teacher", "cache", ["cache-teacher"], list(CACHES))
        if dt is None:
            return
        self.samples["cache_examples_per_s"].append(n / dt)
        pseudo, *_ = [run.check_cache(rep.path(name), count)
                      for name, count in zip(CACHES, (n, 2 * n, 2 * n))]
        if pseudo is None:
            return
        gold = self.gold[rep.index]
        if run.check(all(r.example_id in gold for r in pseudo),
                     f"replica {rep.index}: pseudo-label ids not in the train split"):
            score = statistics.fmean(rouge_l(r.tokens, gold[r.example_id]) for r in pseudo)
            self._quality("pseudo_rougeL", rep,
                          run.check_rouge(f"replica {rep.index} pseudo-labels", score))


class Summarize(Workload):
    """evaluate on a large test split, then mapreduce on two long documents."""

    name = "summarize"
    figures = (
        ("eval_examples_per_s", "ex/s", "higher"),
        ("eval_rougeL", "F1", "higher"),
        ("mapreduce_tok_per_s", "tok/s", "higher"),
    )
    bypassed = ("losses.", "reliability.")

    def configs(self, seed):
        s = self.sizes
        base = _base(seed, s.gen_max_len, n_train=s.scored_n_train, n_test=s.n_test)
        cfgs = {
            "model": _model_config(base, "model", s.scored_hidden, s.scored_epochs,
                                   learning_rate=s.scored_lr),
            "evaluate": {**base, "outputs": {"checkpoint": "model.json",
                                             "report": "report.json"}},
        }
        for doc in DOCUMENTS:
            cfgs[f"mapreduce_{doc}"] = {
                **base, "outputs": {"checkpoint": "model.json", "summary": f"summary_{doc}.json"}}
        return cfgs

    def documents(self, seed: int) -> dict[str, list[int]]:
        n = self.sizes.doc_tokens
        return {"fresh": synthetic_document(n, seed=seed),
                "repeated": synthetic_document(n, seed=seed,
                                               distinct_sentences=self.sizes.doc_pool)}

    def setup(self, run, rep):
        run.train(rep, "model", "CE", self.sizes.scored_epochs)
        for doc, tokens in self.documents(rep.seed).items():
            with open(rep.path(f"doc_{doc}.json"), "w", encoding="utf-8") as f:
                json.dump({"tokens": tokens}, f)

    def cycle(self, run, rep):
        dt = run.cli(rep, "evaluate", "evaluate", ["evaluate"], ["report.json"])
        if dt is not None:
            self.samples["eval_examples_per_s"].append(self.sizes.n_test / dt)
            with open(rep.path("report.json"), encoding="utf-8") as f:
                report = json.load(f)
            for key in ("rouge1", "rouge2", "rougeL"):
                run.check_rouge(f"replica {rep.index} report {key}", report.get(key))
            self._quality("eval_rougeL", rep, report.get("rougeL"))
        total_dt, total_tokens = 0.0, 0
        for doc in DOCUMENTS:
            dt = run.cli(rep, f"mapreduce.{doc}", f"mapreduce_{doc}",
                         ["mapreduce", "--document", rep.path(f"doc_{doc}.json")],
                         [f"summary_{doc}.json"])
            if dt is None:
                return
            with open(rep.path(f"summary_{doc}.json"), encoding="utf-8") as f:
                summary = json.load(f)
            run.check(summary.get("route") == "mapreduce"
                      and summary.get("n_input_tokens") == self.sizes.doc_tokens,
                      f"replica {rep.index} {doc}: not routed to mapreduce")
            total_dt += dt
            total_tokens += self.sizes.doc_tokens
        self.samples["mapreduce_tok_per_s"].append(total_tokens / total_dt)


WORKLOADS = {w.name: w for w in (Distill, CacheTeacher, Summarize)}
# (name, unit, better, bound) of each end-to-end metric, reported by every
# workload
END_TO_END = (("setup_s", "s", "lower", 0.25),
              ("cycle_s", "s", "lower", 0.2),
              ("op_latency_ms", "ms", "lower", 0.2))


def end_to_end_specs() -> list[tuple]:
    """Every end-to-end metric as (name, unit, better, bound)."""
    return list(END_TO_END)


def per_layer_specs() -> list[tuple]:
    """Every per-layer metric as (name, unit, better): the traced layers, then
    every workload's own figures, which read 0 on the other workloads."""
    return [*tracer_layer_specs(), *(f for w in WORKLOADS.values() for f in w.figures)]


@dataclass
class Outcome:
    metrics: dict[str, float]
    figures: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def reference_s() -> float:
    """Wall time of a fixed loop shaped like toy-model decoding: small numpy
    products and a Python loop, none of it relkd code."""
    rng = np.random.default_rng(0)
    recur, embed = 0.1 * rng.standard_normal((32, 32)), 0.1 * rng.standard_normal((64, 32))
    out = rng.standard_normal((32, 64))
    h, tok = np.zeros(32), 0
    t0 = perf_counter()
    for _ in range(REFERENCE_STEPS):
        h = np.tanh(recur @ h + embed[tok])
        tok = int(np.argmax(h @ out))
    return perf_counter() - t0


class HostClock:
    """Times work in seconds at the reference host speed.

    The shared host runs the same code up to 1.5 times slower for stretches
    of seconds to minutes. The reference loop slows with it, so a wall time
    scaled by REFERENCE_NOMINAL_S over the mean of the loop's time just
    before and just after the work keeps the work's own cost and drops most
    of the host's. Each reading is kept raw too.
    """

    def __init__(self) -> None:
        self._ref = reference_s()
        self.refs = [self._ref]

    def scale(self) -> float:
        """Scale for the work done since the last call (or since creation)."""
        ref = reference_s()
        self.refs.append(ref)
        mean, self._ref = (self._ref + ref) / 2, ref
        return REFERENCE_NOMINAL_S / mean


@dataclass
class Measured:
    """What one measuring pass timed; every time is scaled except ``walls``."""

    cycles: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    # (operation label, replica index) -> time of each call
    op_times: dict[tuple[str, int], list[float]] = field(
        default_factory=lambda: defaultdict(list))
    refs: list[float] = field(default_factory=list)


def _measure(workload: Workload, run: Run, replicas: list[Replica],
             seconds: float, min_cycles: int = 1) -> Measured:
    """Repeat whole cycles until ``seconds`` have passed and at least
    ``min_cycles`` ran. A cycle's time is that of its subcommand calls, not
    of the checks between them; each replica's part is scaled to the
    reference host speed on its own."""
    m = Measured()
    clock = HostClock()
    deadline = perf_counter() + seconds
    while len(m.cycles) < min_cycles or perf_counter() < deadline:
        cycle = wall = 0.0
        for rep in replicas:
            run.calls.clear()
            t0 = perf_counter()
            workload.cycle(run, rep)
            dt = perf_counter() - t0
            scale = clock.scale()
            wall += dt
            for label, index, op_dt in run.calls:
                cycle += op_dt * scale
                m.op_times[(label, index)].append(op_dt * scale)
        m.cycles.append(cycle)
        m.walls.append(wall)
    m.refs = clock.refs
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 sizes: Sizes = Sizes()) -> Outcome:
    """Set up, measure, and (with ``trace``) measure again under the tracer."""
    workload = WORKLOADS[name](sizes)
    run = Run()
    n = workload.replicas
    replicas = [Replica(r, seed * n + r, os.path.join(work_dir, f"replica{r}"))
                for r in range(n)]
    configs = {rep.index: workload.configs(rep.seed) for rep in replicas}
    for rep in replicas:
        for cname, cfg in configs[rep.index].items():
            bad = unknown_keys(cfg, DEFAULT_CONFIG)
            run.check(not bad, f"config {cname} sets keys relkd does not know: {bad}")

    setup_times, setup_walls = [], []
    clock = HostClock()
    for rep in replicas:
        t0 = perf_counter()
        os.makedirs(rep.dir)
        for cname, cfg in configs[rep.index].items():
            with open(rep.path(f"{cname}.config.json"), "w", encoding="utf-8") as f:
                json.dump(cfg, f)
        workload.setup(run, rep)
        dt = perf_counter() - t0
        setup_walls.append(dt)
        setup_times.append(dt * clock.scale())

    # one cycle to warm up; its outputs are checked, its times dropped
    for rep in replicas:
        workload.cycle(run, rep)
    workload.samples.clear()
    m = _measure(workload, run, replicas, seconds)
    op_medians = [_median(v) for v in m.op_times.values()]
    outcome = Outcome(
        metrics={"setup_s": _median(setup_times), "cycle_s": _median(m.cycles),
                 "op_latency_ms": 1e3 * statistics.geometric_mean(op_medians)
                 if op_medians else float("nan")},
        figures=workload.results())
    outcome.detail = {"setup_times_s": setup_times, "setup_walls_s": setup_walls,
                      "cycle_times_s": m.cycles, "cycle_walls_s": m.walls,
                      "setup_reference_s": clock.refs, "reference_s": m.refs,
                      "op_times_s": {f"{label} replica{r}": v
                                     for (label, r), v in m.op_times.items()},
                      "samples": {k: list(v) for k, v in workload.samples.items()},
                      "quality": {k: list(v) for k, v in workload.quality.items()}}
    if trace:
        run.tracer = outcome.tracer = Tracer()
        traced = _measure(workload, run, replicas, 0.0, TRACED_CYCLES)
        spans = outcome.tracer.spans
        outcome.per_layer = layer_metrics(spans, len(traced.cycles),
                                          _median(traced.cycles) - _median(m.cycles))
        outcome.per_layer.update({f: outcome.figures.get(f, 0.0)
                                  for w in WORKLOADS.values() for f, _, _ in w.figures})
        outcome.detail["traced_cycle_times_s"] = traced.cycles
        outcome.detail["baseline_ms"] = baseline_comparison(spans)
        names = {sp[2] for sp in spans}
        for prefix in workload.bypassed:
            hit = sorted(n for n in names if n.startswith(prefix))
            run.check(not hit, f"{name} was predicted to bypass {prefix}* but called {hit}")
    outcome.attempted, outcome.failed, outcome.failures = run.attempted, run.failed, run.failures
    return outcome
