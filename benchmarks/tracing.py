"""Per-layer spans recorded from outside the framecmd package.

A Tracer wraps the package's public functions where callers look them
up: `pipeline` imports `forward`, `joint_loss`, `predict` and
`embed_sentence` by name, the BiLSTM reaches `lstm_cell_forward` as a
module global, and the package `__init__` re-exports most names. So a
function is replaced in every framecmd module whose attribute is that
function object, and every replaced attribute is put back by
`uninstall()`. Nothing inside `src/framecmd` changes.

Each wrapped call records a span (id, name, start, end, parent span,
autodiff nodes created while it was open). Nodes are counted by
wrapping `autodiff.Tensor.__init__`. `lstm_cell_forward` and
`attention` calls are attributed to layer1/2/3 and att1/att3 by the
parameter object they receive, whose parameter names carry the layer.

Cross-validation folds run in worker processes forked by
`pipeline.cross_validate`. The `_run_fold` wrapper is a module-level
function, so the pool can pickle it; in a worker it traces the fold
and writes a summary into a spool directory, which the parent merges.
This relies on the pool forking its workers (the default on Linux).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

# (module, attribute, span name, labeller) for every traced function.
# The labeller maps the call's arguments to a span-name suffix.
def _cell_layer(args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["params"]
    return params.W["i"].name.partition(".")[0]


def _attention_layer(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return params.W1.name.partition(".")[0]


TRACED = (
    ("autodiff", "backward", "autodiff.backward", None),
    ("layers", "bilstm_forward", "layers.bilstm_forward", None),
    ("layers", "lstm_cell_forward", "layers.lstm_cell_forward", _cell_layer),
    ("layers", "attention", "layers.attention", _attention_layer),
    ("layers", "highway", "layers.highway", None),
    ("model", "forward", "model.forward", None),
    ("model", "joint_loss", "model.joint_loss", None),
    ("model", "predict", "model.predict", None),
    ("model", "decode_output", "model.decode_output", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("embeddings", "embed_sentence", "embeddings.embed_sentence", None),
    ("grounding", "ground_command", "grounding.ground_command", None),
    ("pipeline", "train", "pipeline.train", None),
    ("pipeline", "cross_validate", "pipeline.cross_validate", None),
    ("gradcheck", "grad_check", "gradcheck.grad_check", None),
)

# Span names the summary always reports, used or not, so every workload
# prints the same per-layer metrics.
SPAN_NAMES = (
    "autodiff.backward",
    "model.forward",
    "model.joint_loss",
    "layers.bilstm_forward",
    "layers.lstm_cell_forward.layer1",
    "layers.lstm_cell_forward.layer2",
    "layers.lstm_cell_forward.layer3",
    "layers.attention.att1",
    "layers.attention.att3",
    "layers.highway",
    "optim.step",
    "embeddings.embed_sentence",
    "model.predict",
    "model.decode_output",
    "grounding.ground_command",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "pipeline.train",
    "pipeline.cross_validate",
    "pipeline.fold",
    "gradcheck.grad_check",
)

EMPTY_SPAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "nodes": 0}

# The tracer whose `_run_fold` wrapper is installed; a forked worker
# finds it here after unpickling `traced_run_fold` by name.
_active = None


def _framecmd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "framecmd" or name.startswith("framecmd."))
            and m is not None]


def lookup_points(fn):
    """Every (module, attribute) of the loaded framecmd modules bound to fn."""
    return [(m, attr) for m in _framecmd_modules()
            for attr, value in vars(m).items() if value is fn]


def find_wrappers():
    """Names of framecmd attributes that still hold a tracer wrapper."""
    from framecmd import autodiff, optim
    found = [f"{m.__name__}.{attr}" for m in _framecmd_modules()
             for attr, value in vars(m).items()
             if getattr(value, "_bench_wrapper", False)]
    for cls in (autodiff.Tensor, optim.Adam, optim.Sgd):
        for attr, value in vars(cls).items():
            if getattr(value, "_bench_wrapper", False):
                found.append(f"{cls.__qualname__}.{attr}")
    return found


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, spool_root="."):
        self.spool_root = spool_root
        self.spool = None
        self.pid = os.getpid()
        self._patches = []          # (owner, attribute, original)
        self._originals = {}        # original functions by attribute name
        self.worker_docs = []       # fold summaries spooled by workers
        self.reset()

    def reset(self):
        """Drop recorded spans; keep the installed wrappers."""
        self.records = []           # (id, name, start, end, parent, nodes)
        self.stack = []             # ids of open spans
        self.next_id = 0
        self.nodes = 0
        self.tokens = 0             # tokens seen by model.forward
        self.cv_jobs = []           # `jobs` of each cross_validate call

    # -- installation -------------------------------------------------
    def install(self):
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        from framecmd import (autodiff, embeddings, gradcheck, grounding,
                              layers, model, optim, pipeline)
        modules = {"autodiff": autodiff, "embeddings": embeddings,
                   "gradcheck": gradcheck, "grounding": grounding,
                   "layers": layers, "model": model, "pipeline": pipeline}
        for mod_name, attr, span, labeller in TRACED:
            original = getattr(modules[mod_name], attr)
            before = None
            if span == "model.forward":
                before = self._count_tokens
            elif span == "pipeline.cross_validate":
                before = self._note_jobs
            self._replace(original, self._wrap(span, original, labeller,
                                               before))
        original_fold = pipeline._run_fold
        self._originals["_run_fold"] = original_fold
        self._replace(original_fold, traced_run_fold)

        for cls in (optim.Adam, optim.Sgd):
            self._patch(cls, "step",
                        self._wrap("optim.step", cls.step, None, None))
        tensor_init = autodiff.Tensor.__init__

        def counting_init(t, data, parents=()):
            self.nodes += 1
            tensor_init(t, data, parents)

        counting_init._bench_wrapper = True
        self._patch(autodiff.Tensor, "__init__", counting_init)
        self.spool = tempfile.mkdtemp(prefix=".bench-spool-",
                                      dir=self.spool_root)
        _active = self

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def uninstall(self):
        global _active
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._originals = {}
        if self.spool is not None:
            self.worker_docs = [
                json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(Path(self.spool).glob("*.json"))]
            shutil.rmtree(self.spool, ignore_errors=True)
            self.spool = None
        if _active is self:
            _active = None

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, wrapper):
        points = lookup_points(original)
        if not points:
            raise RuntimeError(f"no lookup point for {original!r}")
        for owner, attr in points:
            self._patch(owner, attr, wrapper)

    def _count_tokens(self, args, kwargs):
        embedded = args[1] if len(args) > 1 else kwargs["embedded"]
        self.tokens += embedded.shape[0]

    def _note_jobs(self, args, kwargs):
        self.cv_jobs.append(kwargs.get("jobs", args[5] if len(args) > 5
                                       else 1))

    def _wrap(self, name, fn, labeller, before):
        def wrapper(*args, **kwargs):
            span = name if labeller is None else (
                f"{name}.{labeller(args, kwargs)}")
            if before is not None:
                before(args, kwargs)
            return self.call(span, fn, *args, **kwargs)

        wrapper._bench_wrapper = True
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, span, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `span`."""
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        n0 = self.nodes
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.records.append((sid, span, t0, t1, parent, self.nodes - n0))

    # -- summaries ----------------------------------------------------
    def summary(self):
        """Per-span totals of this process's records.

        Returns {"spans": {name: {"calls", "self_s", "total_s", "nodes"}},
        "fwd_nodes", "tokens", "self_s_sum", "folds": [(start, end)]};
        `nodes` counts the autodiff tensors created while the span was
        the innermost open one (its self nodes).
        """
        child_time = {}
        child_nodes = {}
        for sid, _, t0, t1, parent, nodes in self.records:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
                child_nodes[parent] = child_nodes.get(parent, 0) + nodes
        spans = {}
        fwd_nodes = 0
        folds = []
        for sid, name, t0, t1, parent, nodes in self.records:
            s = spans.setdefault(name, dict(EMPTY_SPAN))
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
            s["nodes"] += nodes - child_nodes.get(sid, 0)
            if name == "model.forward":
                fwd_nodes += nodes
            elif name == "pipeline.fold":
                folds.append((t0, t1))
        return {"spans": spans, "fwd_nodes": fwd_nodes,
                "tokens": self.tokens,
                "self_s_sum": sum(s["self_s"] for s in spans.values()),
                "folds": folds}


def traced_run_fold(args):
    """Stand-in for `pipeline._run_fold` while a tracer is installed."""
    tracer = _active
    original = tracer._originals["_run_fold"]
    if os.getpid() == tracer.pid:
        return tracer.call("pipeline.fold", original, args)
    # A forked worker: trace this fold alone and spool its summary.
    tracer.reset()
    result = tracer.call("pipeline.fold", original, args)
    doc = tracer.summary()
    doc["pid"] = os.getpid()
    path = Path(tracer.spool) / f"{os.getpid()}-{args[0]}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return result


traced_run_fold._bench_wrapper = True


def merge(summaries):
    """Sum span totals, node and token counts over several summaries."""
    spans = {}
    merged = {"spans": spans, "fwd_nodes": 0, "tokens": 0, "folds": []}
    for doc in summaries:
        for name, s in doc["spans"].items():
            acc = spans.setdefault(name, dict(EMPTY_SPAN))
            for key in acc:
                acc[key] += s[key]
        merged["fwd_nodes"] += doc["fwd_nodes"]
        merged["tokens"] += doc["tokens"]
        merged["folds"] += [tuple(f) for f in doc["folds"]]
    return merged
