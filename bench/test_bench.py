"""Tests of the benchmark itself: the output checks, the traced mode and
its self-time arithmetic.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json

import pytest

import layers
import workloads
from tracer import Target, TraceTargetMissing, Tracer, self_times


@pytest.fixture(scope="module")
def reference():
    data = json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))
    assert data["bench_seed"] == workloads.DEFAULT_SEED
    return data


@pytest.mark.parametrize("name", ["mc-centralized", "mc-decentralized"])
def test_reference_passes_its_own_checks(reference, name):
    algorithm = "centralized-ucb" if name == "mc-centralized" else "decentralized-etc"
    for summary in reference[name]:
        assert workloads.compare_summary(summary, copy.deepcopy(summary)) == []
        assert workloads.check_mc_summary(summary, algorithm, tuple(summary["seeds"]), 5) == []


@pytest.mark.parametrize("name", ["mc-centralized", "mc-decentralized"])
@pytest.mark.parametrize("key", ["mean_regret", "stderr"])
def test_perturbed_regret_fails_the_check(reference, name, key):
    ref = reference[name][0]
    row = ref[key][-1]
    player = row.index(max(row, key=abs))
    got = copy.deepcopy(ref)
    got[key][-1][player] *= 1 + 1e-6
    assert any(key in p for p in workloads.compare_summary(got, ref))
    # a fast path may move the last digits, within the 1e-9 gate
    got[key][-1][player] = row[player] * (1 + 1e-11)
    assert workloads.compare_summary(got, ref) == []


def test_perturbed_telemetry_fails_the_check(reference):
    ref = reference["mc-decentralized"][0]
    for key in ("mean_entry_round", "post_commit_rounds", "player_commitments_to_core"):
        got = copy.deepcopy(ref)
        got["telemetry"][key] += 1
        assert any(key in p for p in workloads.compare_summary(got, ref))


def test_decentralized_check_requires_phase2_and_core_commits(reference):
    summary = copy.deepcopy(reference["mc-decentralized"][0])
    seeds = tuple(summary["seeds"])
    summary["telemetry"]["player_commitments_to_core"] -= 1
    assert workloads.check_mc_summary(summary, "decentralized-etc", seeds, 5)
    summary = copy.deepcopy(reference["mc-decentralized"][0])
    summary["telemetry"]["episodes_entering_phase2"] -= 1
    assert workloads.check_mc_summary(summary, "decentralized-etc", seeds, 5)


def test_blocking_coalition_check_rejects_a_non_improving_trade():
    inst = workloads.instances.random_instance(4, 0.02, workloads.np.random.default_rng(2))
    identity = workloads.market.Matching(tuple(range(4)))
    assert inst.core != identity
    found = workloads.market.find_blocking_coalition(inst.utilities, identity)
    assert workloads.check_coalition(inst.utilities, identity, found) == []
    # the same trade does not block the core, which every member prefers
    assert workloads.check_coalition(inst.utilities, inst.core, found)


def _owners_and_originals():
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in layers.targets()]


def test_traced_mode_restores_every_wrapped_name():
    before = _owners_and_originals()
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        inst = workloads.readme_market()
        config = workloads.harness.ExperimentConfig(
            instance=inst, algorithm="decentralized-etc", horizon=300, seeds=(0, 1))
        workloads.harness.monte_carlo(config)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert tracer.calls("harness.run_episode") == 2
    assert tracer.calls("env.step") == 600
    assert tracer.calls("decentralized.action") == 600 * inst.n


def test_missing_name_fails_before_wrapping_anything():
    module = workloads.market
    original = module.ttc
    tracer = Tracer()
    with pytest.raises(TraceTargetMissing, match="no_such_function"):
        tracer.install([Target(module, "ttc", "market.ttc"),
                        Target(module, "no_such_function", "market.gone")])
    assert module.ttc is original


def test_unexercised_layer_fails_the_traced_run():
    metrics = dict.fromkeys(layers.REQUIRED["mc-centralized"], 1.0)
    layers.check_required("mc-centralized", metrics)
    metrics["market.ttc.calls"] = 0
    with pytest.raises(layers.LayerNotExercised, match="market.ttc.calls"):
        layers.check_required("mc-centralized", metrics)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0, "folded_s": 0.5},
        {"id": 1, "name": "harness.run_episode", "parent": 0, "start": 1.0, "end": 7.0,
         "folded_s": 4.0},
        {"id": 2, "name": "harness.export", "parent": 0, "start": 7.5, "end": 9.0,
         "folded_s": 0.0},
        {"id": 3, "name": "inner", "parent": 1, "start": 2.0, "end": 3.0, "folded_s": 0.25},
    ]
    assert self_times(spans) == pytest.approx({0: 2.0, 1: 1.0, 2: 1.5, 3: 0.75})


def test_live_self_time_matches_the_span_arithmetic():
    tracer = Tracer()
    calls = []

    class Layer:
        @staticmethod
        def leaf():
            calls.append(1)

    tracer.install([Target(Layer, "leaf", "leaf")])
    try:
        with tracer.span("outer"):
            with tracer.span("inner"):
                Layer.leaf()
                Layer.leaf()
    finally:
        tracer.uninstall()
    outer, inner = sorted(tracer.spans, key=lambda s: s["id"])
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    calls_, total, own = tracer.aggregates["leaf"]
    assert calls_ == 2 and own == pytest.approx(total)
    assert inner["folded_s"] == pytest.approx(total)
    selfs = self_times(tracer.spans)
    assert selfs[outer["id"]] == pytest.approx(outer["end"] - inner["end"] + inner["start"]
                                               - outer["start"], abs=1e-12)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    import run

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.LAYER_METRICS
    ]
