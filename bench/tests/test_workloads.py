import json
import os

import pytest

from relkd.cli import DEFAULT_CONFIG
from workloads import WORKLOADS, Sizes, end_to_end_specs, per_layer_specs, run_workload, unknown_keys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = Sizes(distill_n_train=16, distill_epochs=2, teacher_epochs=2, cache_n_train=12,
             scored_hidden=8, scored_n_train=24, scored_epochs=3, n_test=12,
             doc_tokens=400, doc_pool=6)


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == end_to_end_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()


def test_run_offers_every_workload():
    import run

    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_unknown_config_keys_are_named_by_dotted_path():
    bad = {"trainig": {}, "training": {"epoch": 3, "epochs": 2}, "pseudo_teachers": [{"id": 1}]}
    assert unknown_keys(bad, DEFAULT_CONFIG) == ["trainig", "training.epoch"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_benchmark_configs_only_set_known_keys(name):
    for cfg in WORKLOADS[name](Sizes()).configs(7).values():
        assert unknown_keys(cfg, DEFAULT_CONFIG) == []


def _files(directory):
    out = {}
    for base, _, names in os.walk(directory):
        for n in names:
            p = os.path.join(base, n)
            with open(p, "rb") as f:
                out[os.path.relpath(p, directory)] = f.read()
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_writes_the_same_files_as_an_untraced_run(name, tmp_path):
    plain = run_workload(name, 3, 0.0, False, str(tmp_path / "plain"), TINY)
    traced = run_workload(name, 3, 0.0, True, str(tmp_path / "traced"), TINY)
    assert plain.failed == 0 and traced.failed == 0, plain.failures + traced.failures
    a, b = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert a.keys() == b.keys() and len(a) > 10
    assert [p for p in a if a[p] != b[p]] == []
    assert set(traced.per_layer) == {n for n, _, _ in per_layer_specs()}
    assert set(plain.metrics) == {m[0] for m in end_to_end_specs()}
    assert all(v > 0 for v in plain.metrics.values()), plain.metrics
    assert set(plain.figures) == {f[0] for f in WORKLOADS[name].figures}


def test_host_clock_scales_by_the_reference_loop_around_the_work(monkeypatch):
    import workloads

    times = iter([0.04, 0.06, 0.10, 0.10])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(times))
    clock = workloads.HostClock()
    nominal = workloads.REFERENCE_NOMINAL_S
    assert clock.scale() == pytest.approx(nominal / 0.05)
    assert clock.scale() == pytest.approx(nominal / 0.08)
    assert clock.scale() == pytest.approx(nominal / 0.10)
    assert clock.refs == [0.04, 0.06, 0.10, 0.10]
