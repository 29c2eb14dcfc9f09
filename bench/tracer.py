"""Span tracer for the relkd benchmark.

Inside ``with tracer.active():`` every public function of every relkd module,
and the ``TokenBatch`` constructor, runs through a wrapper that records one
span per call. The modules bind each other's functions with
``from .x import f``, so every module attribute that refers to a traced
function is replaced by its wrapper and put back on exit.

A span is the tuple ``(span_id, parent_id, name, start, end, extra)``; the
benchmark opens root spans of its own (one per subcommand call) whose names
start with ``bench:``. ``extra`` holds the counts a few wrappers take at the
boundary (tokens decoded, bytes read, ...). Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "distmath", "evalmetrics", "longdoc", "losses", "reliability",
           "teachercache", "toymodel", "training")

# Traced functions that are reported as per-layer metrics, with the
# end-to-end metric each should move (see bench/README.md).
REPORTED = {
    "toymodel": ("forward_batch", "backward_batch", "forward", "generate.greedy",
                 "generate.beam", "save_checkpoint", "load_checkpoint"),
    "losses": ("TokenBatch", "ce_loss", "kd_loss", "standard_total", "inter_match_loss",
               "adaptive_tau", "ewad_loss", "cpdp_loss", "combined_total"),
    "reliability": ("confidence_array", "weights_array", "agreement_array", "gate_array"),
    "distmath": ("softmax_t", "log_softmax_t", "kl", "entropy", "jsd"),
    "teachercache": ("read_cache", "write_cache", "densify", "validate_topk_record",
                     "sample_target"),
    "training": ("train", "cached_teacher_logits", "build_topk_records",
                 "build_pseudo_records", "build_pseudo_variant_topk", "topk_from_logits",
                 "evaluate_rouge", "synthetic_corpus"),
    "longdoc": ("summarize_long", "split_sentences", "chunk", "dedup"),
    "evalmetrics": ("rouge_n", "rouge_l"),
    "cli": ("cmd_distill", "cmd_cache_teacher", "cmd_evaluate", "cmd_mapreduce",
            "load_config"),
}

# The two long documents of the summarize workload; their root spans are
# named bench:mapreduce.<doc>.
DOCUMENTS = ("fresh", "repeated")

# Counts taken at the boundary (name, unit, better), then trace.overhead_s.
EXTRA_METRICS = (
    ("toymodel.generate.greedy.tokens_out", "count", "lower"),
    ("toymodel.generate.beam.tokens_out", "count", "lower"),
    ("losses.positions", "count", "lower"),
    ("teachercache.read_cache.bytes", "bytes", "lower"),
    ("teachercache.write_cache.bytes", "bytes", "lower"),
    ("teachercache.pseudo_share", "ratio", "higher"),
    ("longdoc.chunks", "count", "lower"),
    ("longdoc.max_depth", "count", "lower"),
    ("longdoc.dedup_kept_ratio", "ratio", "lower"),
    *((f"longdoc.{m}.{doc}", unit, "lower")
      for doc in DOCUMENTS
      for m, unit in (("chunks", "count"), ("max_depth", "count"), ("dedup_kept_ratio", "ratio"))),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, functions in REPORTED.items():
        for fn in functions:
            specs.append((f"{module}.{fn}.calls", "count", "lower"))
            specs.append((f"{module}.{fn}.self_s", "s", "lower"))
    specs.extend(EXTRA_METRICS)
    return specs


def _arg(sig: inspect.Signature, args: tuple, kwargs: dict, name: str):
    """The value a call passes for parameter ``name`` (or its default)."""
    if name in kwargs:
        return kwargs[name]
    pos = list(sig.parameters).index(name)
    if pos < len(args):
        return args[pos]
    return sig.parameters[name].default


def traced_functions() -> dict:
    """Map each public relkd function to its label ``<module>.<name>``."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"relkd.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[obj] = f"{short}.{name}"
    return out


class Tracer:
    """Records spans for relkd calls while ``active()``; see module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields a dict for counts."""
        sid, parent = self._open()
        extra: dict = {}
        t0 = perf_counter()
        try:
            yield extra
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, extra or None))

    def _wrap(self, fn, label: str):
        sig = inspect.signature(fn)
        hook = _HOOKS.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if label == "toymodel.generate":
                name = f"{label}.{_arg(sig, args, kwargs, 'mode')}"
            sid, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
            # a call that raised records no span: its time stays in the parent
            extra = hook(sig, args, kwargs, result) if hook else None
            tracer.spans.append((sid, parent, name, t0, t1, extra))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    @contextmanager
    def active(self):
        """Swap every binding of a traced function for its wrapper."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self._wrap(fn, label) for fn, label in traced_functions().items()}
        for mod in relkd_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        tb = importlib.import_module("relkd.losses").TokenBatch
        self._patched.append((tb, "__init__", tb.__init__))
        tb.__init__ = self._wrap(tb.__init__, "losses.TokenBatch")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as f:
            for sp in self.spans:
                f.write(json.dumps(sp, separators=(",", ":")) + "\n")


def relkd_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "relkd" or name.startswith("relkd."))]


def _path_size(param: str):
    def hook(sig, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(sig, args, kwargs, param))}
    return hook


_HOOKS = {
    "losses.TokenBatch": lambda sig, a, kw, r: {"positions": int(a[0].mask.sum())},
    "toymodel.generate": lambda sig, a, kw, r: {"tokens_out": len(r)},
    "teachercache.read_cache": _path_size("path"),
    "teachercache.write_cache": _path_size("path"),
    "teachercache.sample_target": lambda sig, a, kw, r: {"pseudo": int(r[1] != "gold")},
    "longdoc.chunk": lambda sig, a, kw, r: {"chunks": len(r)},
    "longdoc.dedup": lambda sig, a, kw, r: {
        "candidates": len(_arg(sig, a, kw, "sentences")), "kept": len(r)},
}


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, t0, t1, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, *_ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, t0), min(b, t1)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (t1 - t0) - covered
    return out


def root_names(spans) -> dict[int, str]:
    """Map each span id to the name of the root span it descends from."""
    parent_of = {sp[0]: sp[1] for sp in spans}
    name_of = {sp[0]: sp[2] for sp in spans}
    roots: dict[int, str] = {}
    for sid in parent_of:
        path = []
        cur = sid
        while cur not in roots and parent_of.get(cur) is not None:
            path.append(cur)
            cur = parent_of[cur]
        root = roots.get(cur, name_of.get(cur, ""))
        roots[cur] = root
        for p in path:
            roots[p] = root
    return roots


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, n_cycles: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per measured cycle, named as in per_layer_specs()."""
    st = self_times(spans)
    roots = root_names(spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)  # (root, key)
    chunk_calls: Counter = Counter()  # chunk calls per summarize_long span
    long_root: dict[int, str] = {}
    names = {sp[0]: sp[2] for sp in spans}
    for sid, parent, name, _t0, _t1, extra in spans:
        calls[name] += 1
        self_s[name] += st[sid]
        if extra:
            for key, value in extra.items():
                counts[(roots[sid], f"{name}.{key}")] += value
        if name == "longdoc.summarize_long":
            long_root[sid] = roots[sid]
        if name == "longdoc.chunk" and names.get(parent) == "longdoc.summarize_long":
            chunk_calls[parent] += 1

    def count(key: str, root: str | None = None) -> float:
        return sum(v for (r, k), v in counts.items() if k == key and (root is None or r == root))

    def depth(root: str | None = None) -> float:
        return max((chunk_calls[s] for s, r in long_root.items() if root is None or r == root),
                   default=0)

    n = max(n_cycles, 1)
    out: dict[str, float] = {}
    for module, functions in REPORTED.items():
        for fn in functions:
            label = f"{module}.{fn}"
            c = calls[label]
            out[f"{label}.calls"] = c // n if c % n == 0 else c / n
            out[f"{label}.self_s"] = self_s[label] / n
    for mode in ("greedy", "beam"):
        out[f"toymodel.generate.{mode}.tokens_out"] = count(
            f"toymodel.generate.{mode}.tokens_out") / n
    out["losses.positions"] = count("losses.TokenBatch.positions") / n
    out["teachercache.read_cache.bytes"] = count("teachercache.read_cache.bytes") / n
    out["teachercache.write_cache.bytes"] = count("teachercache.write_cache.bytes") / n
    out["teachercache.pseudo_share"] = _ratio(count("teachercache.sample_target.pseudo"),
                                              calls["teachercache.sample_target"])
    for suffix, root in (("", None), *((f".{d}", f"bench:mapreduce.{d}") for d in DOCUMENTS)):
        out[f"longdoc.chunks{suffix}"] = count("longdoc.chunk.chunks", root) / n
        out[f"longdoc.max_depth{suffix}"] = depth(root)
        out[f"longdoc.dedup_kept_ratio{suffix}"] = _ratio(
            count("longdoc.dedup.kept", root), count("longdoc.dedup.candidates", root))
    out["cli.bytes_written"] = sum(
        v for (_r, k), v in counts.items() if k.endswith(".bytes_written")) / n
    out["trace.overhead_s"] = overhead_s
    return out


def baseline_comparison(spans) -> dict[str, float]:
    """Traced per-call means (ms) to set beside the ROADMAP baseline table:
    forward_batch and backward_batch as called by train() at B=32, and the
    per-batch loss loop (the losses.* calls train() makes) of the A2 arm."""
    by_id = {sp[0]: sp for sp in spans}
    roots = root_names(spans)
    durs: dict[str, list[float]] = defaultdict(list)
    loop = 0.0
    batches = 0
    for sid, parent, name, t0, t1, _extra in spans:
        if parent is None or by_id[parent][2] != "training.train":
            continue
        if name in ("toymodel.forward_batch", "toymodel.backward_batch"):
            durs[name].append(t1 - t0)
        if roots[sid] == "bench:distill.A2":
            if name.startswith("losses."):
                loop += t1 - t0
            elif name == "toymodel.backward_batch":
                batches += 1
    def mean(v: list[float]) -> float:
        return 1e3 * sum(v) / len(v) if v else 0.0

    return {
        "forward_batch_ms": mean(durs["toymodel.forward_batch"]),
        "backward_batch_ms": mean(durs["toymodel.backward_batch"]),
        "a2_loss_loop_per_batch_ms": 1e3 * loop / batches if batches else 0.0,
    }
