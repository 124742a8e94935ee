"""Tests of the span tracer and the per-layer metrics built from it.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import dataclasses
import json

import checkout

checkout.use_checkout_source()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import stream  # noqa: E402
from tracer import END, NAME, PARENT, START, Tracer, traced_attributes  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

# Each workload scaled down so a traced run takes well under a second.
SMALL = {
    "svm_trickle": dataclasses.replace(WORKLOADS["svm_trickle"], n=300, batch=4,
                                       checkpoint_every=3),
    # Overlapping classes, so every round runs the SVM solve and repair.
    "svm_overlap": dataclasses.replace(WORKLOADS["svm_trickle"], n=240, batch=12,
                                       center=1.0, checkpoint_every=3),
    "svr_dense": dataclasses.replace(WORKLOADS["svr_dense"], n=160, batch=8,
                                     checkpoint_every=3),
}
COUNTS = ("entries", "flops_computed", "gram_bytes_computed", "calls", "events",
          "fallbacks", "fallback_retrains", "segments", "refreshes")


def _run(workload, tracer=None, seed=3, cycles=2):
    src = Stream(workload, seed)
    base, _ = stream.setup(workload, src)
    if tracer is None:
        return stream.run(workload, src, base, src.queries(), cycles=cycles)
    with tracer.installed():
        return stream.run(workload, src, base, src.queries(), cycles=cycles, tracer=tracer)


def _metrics(tracer):
    return layers.layer_metrics(layers.aggregate(tracer.spans, tracer.self_times()))


def _attributes():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _ in traced_attributes()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name):
    first, second = Tracer(), Tracer()
    rec = _run(SMALL[name], first)
    _run(SMALL[name], second)
    assert rec.failed == 0, rec.failures
    assert [s[NAME] for s in first.spans] == [s[NAME] for s in second.spans]
    m1, m2 = _metrics(first), _metrics(second)
    counts = [k for k in m1 if k.split(".")[1].endswith(COUNTS)]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["kernels.entries.update"] > 0
    assert m1["linalg.flops_computed.path"] > 0
    assert m1["batch.gram_bytes_computed.retrain"] > 0


def test_every_attribute_restored_and_untraced_run_uses_originals():
    before = _attributes()
    tracer = Tracer()
    traced = _run(SMALL["svm_overlap"], tracer, cycles=1)
    assert tracer.spans
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())

    recorded = len(tracer.spans)
    plain = _run(SMALL["svm_overlap"], cycles=1)
    assert len(tracer.spans) == recorded
    assert np.array_equal(plain.final_predictions, traced.final_predictions)


def test_attributes_restored_when_the_traced_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert _attributes() != before
            raise RuntimeError("boom")
    assert all(_attributes()[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_fit_inside_the_enclosing_span(name):
    tracer = Tracer()
    _run(SMALL[name], tracer)
    spans = tracer.spans
    assert (tracer.self_times() >= 0).all()
    for s in spans:
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert parent[START] <= s[START] <= s[END] <= parent[END]
    m = _metrics(tracer)
    for arm, layer_names in layers.ARM_LAYERS.items():
        inside = sum(m[f"{layer}.self_ms.{arm}"] for layer in layer_names)
        assert inside <= m[f"trace.{arm}_ms"]


def test_per_layer_names_match_benchmark_json():
    tracer = Tracer()
    _run(SMALL["svm_overlap"], tracer, cycles=1)
    names = set(_metrics(tracer)) | {"trace.overhead"}
    declared = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert names == {m["name"] for m in declared}
