"""Smoke test: every workload at tiny sizes, untraced and traced.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from framecmd import layers, model, pipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

NAMED = {
    "train-3l-att": {"train_tok_per_s", "train_loss"},
    "parse-3l-att": {"parse_ms_p50", "parse_ms_p99", "parse_chain_acc"},
    "cv-2l-noatt": {"cv_s", "cv_chain_acc"},
    "gradcheck": {"gradcheck_fwd_per_s"},
}
COMMON_NAMED = {"setup_s", "peak_rss_mb", "ops_failed_share"}

# Spans each workload must reach; the CV folds run in forked workers.
USED = {
    "train-3l-att": ["pipeline.train", "model.forward", "model.joint_loss",
                     "autodiff.backward", "optim.step",
                     "embeddings.embed_sentence", "layers.bilstm_forward",
                     "layers.lstm_cell_forward.layer1",
                     "layers.lstm_cell_forward.layer2",
                     "layers.lstm_cell_forward.layer3",
                     "layers.attention.att1", "layers.attention.att3",
                     "layers.highway"],
    "parse-3l-att": ["model.predict", "model.forward", "model.decode_output",
                     "embeddings.embed_sentence", "grounding.ground_command",
                     "layers.bilstm_forward",
                     "layers.lstm_cell_forward.layer1",
                     "layers.lstm_cell_forward.layer2",
                     "layers.lstm_cell_forward.layer3",
                     "layers.attention.att1", "layers.attention.att3",
                     "layers.highway", "model.save_checkpoint",
                     "model.load_checkpoint"],
    "cv-2l-noatt": ["pipeline.cross_validate", "pipeline.fold",
                    "pipeline.train", "model.predict", "model.forward",
                    "model.joint_loss", "autodiff.backward", "optim.step",
                    "grounding.ground_command", "layers.bilstm_forward",
                    "layers.lstm_cell_forward.layer1",
                    "layers.lstm_cell_forward.layer2"],
    "gradcheck": ["gradcheck.grad_check", "model.forward", "model.joint_loss",
                  "autodiff.backward", "layers.bilstm_forward",
                  "layers.lstm_cell_forward.layer1",
                  "layers.lstm_cell_forward.layer2",
                  "layers.lstm_cell_forward.layer3",
                  "layers.attention.att1", "layers.attention.att3",
                  "layers.highway"],
}
UNUSED_ON_CV = ["layers.attention.att3", "layers.lstm_cell_forward.layer3",
                "layers.highway", "layers.attention.att1"]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            workdir = tmp_path_factory.mktemp(f"{name}-{trace}")
            out[name, trace] = run.run_workload(name, seed=3, seconds=0.01,
                                                trace=trace, workdir=workdir,
                                                tiny=True)
    return out


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_metrics_present_with_units(results, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        r = results[name, trace]
        assert r["correct"], r["diagnostics"]
        assert r["attempted"] >= 1 and r["failed"] == 0
        got = {k: m["unit"] for k, m in r["metrics"].items()}
        assert got == _units(section)
        named = r["diagnostics"]["named"]
        assert NAMED[name] | COMMON_NAMED <= set(named)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_spans_reached(results, name):
    metrics = results[name, 1]["metrics"]
    for span in USED[name]:
        assert metrics[f"{span}.calls"]["value"] >= 1, span
    if name == "cv-2l-noatt":
        for span in UNUSED_ON_CV:
            assert metrics[f"{span}.calls"]["value"] == 0
            assert metrics[f"{span}.nodes"]["value"] == 0
    assert metrics["autodiff.nodes_per_token"]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_time_within_wall(results, name):
    checks = results[name, 1]["diagnostics"]["trace_checks"]
    # One sum per process: the benchmark's own, then each CV fold's.
    for total in checks["self_s_sum"]:
        assert 0.0 < total <= checks["traced_wall_s"]


def test_gradcheck_counts_exact(results):
    m = results["gradcheck", 1]["metrics"]
    assert m["gradcheck.forwards"]["value"] >= 2
    assert m["gradcheck.forwards"]["value"] == int(m["gradcheck.forwards"]
                                                   ["value"])


def test_untraced_run_sees_originals(results):
    for r in results.values():
        checks = r["diagnostics"]["trace_checks"]
        assert checks["untraced_wrappers"] == []
        assert checks["wrappers_left"] == []
    assert tracing.find_wrappers() == []
    assert pipeline.forward is model.forward
    assert not hasattr(layers.lstm_cell_forward, "__wrapped__")


def test_tracer_patches_every_lookup_point(tmp_path):
    original = layers.lstm_cell_forward
    with tracing.Tracer(spool_root=tmp_path):
        found = set(tracing.find_wrappers())
        assert {"framecmd.pipeline.forward", "framecmd.model.forward",
                "framecmd.pipeline.predict", "framecmd.pipeline.joint_loss",
                "framecmd.layers.lstm_cell_forward",
                "framecmd.pipeline._run_fold", "Tensor.__init__",
                "Adam.step"} <= found
    assert tracing.find_wrappers() == []
    assert layers.lstm_cell_forward is original
    assert list(tmp_path.iterdir()) == []
