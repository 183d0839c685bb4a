"""Tests of the benchmark itself: inputs, tracer arithmetic and hygiene,
and agreement with BENCHMARK.json.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gmrec  # noqa: E402
import gmrec.model  # noqa: E402
import gmrec.selfcheck  # noqa: E402
import gmrec.training  # noqa: E402
from gmrec.data import sample_user_key  # noqa: E402
from gmrec.dataio import parse_dataset_lines  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("make", [inputs.train_small_text, inputs.train_wide_text])
def test_generators_are_byte_deterministic(make):
    assert make(3).encode() == make(3).encode()
    assert make(3) != make(4)


def test_streams_are_seeded():
    assert list(inputs.stream(5, 1, 50, 300)) == list(inputs.stream(5, 1, 50, 300))
    assert list(inputs.stream(5, 1, 50, 300)) != list(inputs.stream(6, 1, 50, 300))
    order = inputs.gradcheck_seeds(7)
    assert order == inputs.gradcheck_seeds(7) and sorted(order) == list(range(20))


def test_train_small_attribute_counts():
    ds = parse_dataset_lines(inputs.train_small_text(1).splitlines())
    assert len(ds.samples) == inputs.SMALL_USERS * inputs.SMALL_PER_USER
    assert {len(s.user_chars) for s in ds.samples} == {3}
    assert {len(s.item_chars) for s in ds.samples} == {2}


def test_train_wide_attribute_counts_and_stable_users():
    ds = parse_dataset_lines(inputs.train_wide_text(1).splitlines())
    for side, numeric in (("user_chars", "uage"), ("item_chars", "iprice")):
        counts = {len(getattr(s, side)) for s in ds.samples}
        assert counts <= {6, 7, 8} and len(counts) > 1
        names = [[ds.vocab.name_of(p.att) for p in getattr(s, side)] for s in ds.samples]
        assert all(n.count(numeric) == 1 for n in names)
    # The whole characteristic, numeric attribute included, is the user's
    # identity: every line of a user must repeat it.
    assert len({sample_user_key(s) for s in ds.samples}) == inputs.WIDE_USERS


@pytest.mark.parametrize("make", [inputs.train_small_text, inputs.train_wide_text])
def test_validation_split_nonempty_and_val_auc_finite(make):
    ds = parse_dataset_lines(make(2).splitlines())
    split = gmrec.training.split_per_user(ds.samples, 2)
    assert split.valid and {s.label for s in split.valid} == {0.0, 1.0}
    config = gmrec.training.TrainConfig(dim=4, epochs=1, batch_size=256, seed=2, patience=1)
    result = gmrec.training.train(split, config)
    assert math.isfinite(result.logs[-1].val_auc)


def test_wide_train_split_is_whole_batches():
    ds = parse_dataset_lines(inputs.train_wide_text(0).splitlines())
    split = gmrec.training.split_per_user(ds.samples, 0)
    assert len(split.train) % 64 == 0


def test_covered_handles_overlap_clipping_and_gaps():
    assert tr.covered_ns(0, 100, []) == 0
    assert tr.covered_ns(0, 100, [(10, 40), (30, 60)]) == 50  # overlapping children
    assert tr.covered_ns(0, 100, [(10, 20), (50, 60)]) == 20  # disjoint children
    assert tr.covered_ns(0, 100, [(90, 120), (-5, 5)]) == 15  # clipped to the parent
    assert tr.covered_ns(0, 100, [(20, 30), (20, 30)]) == 10  # duplicates
    assert tr.covered_ns(0, 100, [(10, 90), (20, 30)]) == 80  # nested


def test_self_times_subtract_only_direct_children():
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["b", 30, 60, 0, None],  # overlaps a
        ["a.child", 15, 35, 1, None],
    ]
    assert tr.self_times(spans) == [50, 10, 30, 20]


def test_tracer_records_parents_and_requests():
    tracer = tr.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request = 7
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert all(s[4] == 7 for s in tracer.spans)


def test_wrappers_cover_every_import_site_and_are_removed():
    sites = tr.snapshot(layers.TARGETS)
    assert tr.untraced_violations(sites) == []
    original = gmrec.model.build_plan
    tracer, patches = tr.Tracer(), tr.Patches()
    tr.install(tracer, sites, patches)
    try:
        wrapped = gmrec.model.build_plan
        assert wrapped is not original
        assert gmrec.training.build_plan is wrapped and gmrec.selfcheck.build_plan is wrapped
        assert tr.untraced_violations(sites)
        assert gmrec.selfcheck.run_gradcheck(instances=1, d=2, seed=0) < 1e-4
    finally:
        patches.restore()
    assert tr.untraced_violations(sites) == []
    assert gmrec.training.build_plan is original
    names = {s[0] for s in tracer.spans}
    assert {"selfcheck.run_gradcheck", "model.build_plan", "autodiff.gradient_check",
            "autodiff.fd_eval", "autodiff.backward", "autodiff.matmul"} <= names
    metrics = layers.layer_metrics(tracer, 1, 0, 0.0, 0.0, lambda s: (1, 2))
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["autodiff.fd_evals"] > 0 and metrics["selfcheck.instances"] == 1


def fixed_reference(samples):
    """A Reference whose samples are (start, end, burst seconds) as given."""
    ref = reference.Reference()
    for start, end, seconds in samples:
        ref.starts.append(start)
        ref.ends.append(end)
        ref.seconds.append(seconds)
    return ref


def test_reference_scales_each_gap_by_its_neighbouring_samples():
    base = reference.REFERENCE_S
    ref = fixed_reference([(0.0, 1.0, base), (3.0, 4.0, 2 * base), (6.0, 7.0, 2 * base)])
    assert ref.split(1.0, 3.0) == pytest.approx((2.0, 2.0 / 1.5))  # mean of base and 2 base
    assert ref.split(4.5, 5.5) == pytest.approx((1.0, 0.5))
    # An interval across a sample leaves the sample out.
    assert ref.split(2.0, 5.0) == pytest.approx((2.0, 1.0 / 1.5 + 0.5))
    # Before the first and after the last sample, that sample alone counts.
    assert ref.split(-1.0, 0.0) == pytest.approx((1.0, 1.0))
    assert ref.split(7.0, 9.0) == pytest.approx((2.0, 1.0))
    assert ref.split(0.5, 9.0)[0] == pytest.approx(2.0 + 2.0 + 2.0)
    assert ref.factor(0) == pytest.approx(1 / 1.5)


def test_reference_paces_its_samples():
    now = [0.0]
    ref = reference.Reference(clock=lambda: now[0], measure=lambda: 1e-3)
    ref.pace()
    now[0] = reference.INTERVAL / 2
    ref.pace()
    assert len(ref.seconds) == 1
    now[0] = 2 * reference.INTERVAL
    ref.pace()
    assert len(ref.seconds) == 2


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WORKLOADS[n].why for n in run.WORKLOAD_NAMES]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gradcheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout.strip() == ""
