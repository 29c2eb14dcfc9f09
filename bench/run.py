"""Benchmark of the relkd lab: one workload per run, one JSON result line.

    python3 bench/run.py --workload distill --seed 0 --seconds 20 --trace 0

Runs from the root of a relkd checkout and imports relkd from its ``src``.
With ``--trace 0`` it reports the end-to-end metrics, which every workload
has; with ``--trace 1`` it measures the same way, then measures again with
every relkd function traced, and reports the per-layer metrics, among them
the workload's own figures (per-operation throughputs, losses, ROUGE). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
provenance and samples, goes to ``.bench_run/<workload>-s<seed>-t<trace>/``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import struct
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("distill", "cache_teacher", "summarize")
DEFAULT_SEED = 0

# ROADMAP baseline (2 cores, Python 3.11.7, numpy 2.4.6), B=32, Ls=12, Lt=6, d=16.
ROADMAP_BASELINE_MS = {"forward_batch_ms": 0.32, "backward_batch_ms": 0.68,
                       "a2_loss_loop_per_batch_ms": 4.9}


def pin_environment() -> None:
    """One BLAS thread, and the default serial MAP phase of mapreduce."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REL_KD_THREADS", None)


def _git_blob_sha1(path: str) -> str | None:
    try:
        data = os.readlink(path).encode() if os.path.islink(path) else open(path, "rb").read()
    except OSError:
        return None
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def _index_dirty(root: str) -> bool | None:
    """Whether a tracked file differs from the git index (None if unknown).

    Reads the index file directly, so no git process is started. Changes
    that are staged but not committed are not seen.
    """
    try:
        with open(os.path.join(root, ".git", "index"), "rb") as f:
            data = f.read()
    except OSError:
        return None
    try:
        sig, version, count = struct.unpack(">4sII", data[:12])
        if sig != b"DIRC" or version not in (2, 3):
            return None
        pos = 12
        for _ in range(count):
            mode = struct.unpack(">I", data[pos + 24:pos + 28])[0]
            sha = data[pos + 40:pos + 60].hex()
            flags = struct.unpack(">H", data[pos + 60:pos + 62])[0]
            start = pos + 62 + (2 if version == 3 and flags & 0x4000 else 0)
            end = data.index(b"\0", start)
            path = data[start:end].decode("utf-8", "surrogateescape")
            pos += (end - pos + 8) // 8 * 8
            if mode >> 12 == 0o16:  # submodule
                continue
            if _git_blob_sha1(os.path.join(root, path)) != sha:
                return True
    except (struct.error, ValueError):  # an index this reader does not understand
        return None
    return False


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance(root: str) -> dict:
    import numpy

    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "relkd", "*.py"))
                       + glob.glob(os.path.join(root, "bench", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, root).encode() + b"\0" + f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "dirty": _index_dirty(root),
        "source_sha256": h.hexdigest(),
    }


def _number(value: float) -> float | None:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import relkd
    except ImportError as exc:
        print(f"error: cannot import relkd from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(relkd.__file__))) != src:
        print(f"error: relkd was imported from {relkd.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    out_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), out_dir)
    finally:
        for rep_dir in glob.glob(os.path.join(out_dir, "replica*")):
            shutil.rmtree(rep_dir, ignore_errors=True)

    if args.trace:
        specs = [(name, unit) for name, unit, _ in workloads.per_layer_specs()]
        values = outcome.per_layer
        outcome.tracer.write(os.path.join(out_dir, "spans.jsonl"))
    else:
        specs = [(name, unit) for name, unit, _, _ in workloads.end_to_end_specs()]
        values = outcome.metrics
    metrics = {name: {"value": _number(values[name]), "unit": unit}
               for name, unit in specs if name in values}
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(ROOT), **result,
              "figures": outcome.figures, "failures": outcome.failures, **outcome.detail}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!s:>24} {m['unit']}")
    if not args.trace:
        for name, value in outcome.figures.items():
            print(f"{name:48s} {value!s:>24} (figure of this workload)")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    if "baseline_ms" in outcome.detail and args.workload == "distill":
        print("traced per-call means vs ROADMAP baseline (not a gate; traced figures "
              "include wrapper cost and this corpus's batch shapes):")
        for key, ref in ROADMAP_BASELINE_MS.items():
            print(f"  {key:28s} traced {outcome.detail['baseline_ms'][key]:8.3f}   "
                  f"ROADMAP {ref:6.2f}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
