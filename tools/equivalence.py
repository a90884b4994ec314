"""Report where two framecmd source trees compute different numbers.

    python tools/equivalence.py A_SRC B_SRC

A_SRC and B_SRC are the `src` directories of two checkouts, say a
parent commit and a change. Each tree runs in its own process with
PYTHONPATH set to it, on one fixed synthetic set: 120 sentences, on
which each of the four presets trains for 3 epochs (patience 2,
dropout on) and then parses 40 other sentences. The report has one
line per item:

- the fresh, untrained parameters of all presets at the seeds in
  FRESH_SEEDS;
- the parameters after training, all presets;
- the loss histories;
- the parses of the 40 sentences;
- their attention maps (the ATT presets);
- the 5-fold assignment of the 120 sentences;
- the output of `framecmd gradcheck` and of `framecmd gradcheck
  --hidden 5 --seed 7`;
- each trained model's checkpoint: its header, as parsed JSON, and
  its payload bytes;
- each checkpoint reloaded: the reloaded parameters and the reloaded
  model's parses of the 40 sentences;
- the metrics, compared exactly: each trained model's stage and chain
  metrics on the 40 sentences with the demo map, and those of one
  3-fold cross-validation of 2l_no_att, 2 epochs per fold;
- the bytes of every file the CLI writes, run in-process through
  `cli.main`: `gen-corpus`'s corpus of 30 sentences and its map, the
  checkpoint and `.history.json` of a 2-epoch 2l_no_att `train --out`
  on that corpus, and the metrics and `.txt` of `eval --ckpt ... --out`
  of that checkpoint on it with the map.

An item is "identical", or the line gives its largest absolute and
relative difference, or how many of its values differ. Comparing two
trees is a report, not a gate: README's numerics policy says when a
change must post it. `tests/test_tools.py` runs a tree against itself,
in two processes with independently randomized hash seeds, and needs
every line "identical".
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PRESETS = ("2l_att", "2l_no_att", "3l_att", "3l_no_att")
SEED = 5
# Seeds of the untrained models compared: 0, the presets' 42, and one
# that takes two 32-bit words.
FRESH_SEEDS = (0, 42, 2**40 + 3)
# The `framecmd gradcheck` runs compared, by name: the default one and
# one at another size and seed.
GRADCHECK_RUNS = {"default": [], "hidden5-seed7": ["--hidden", "5",
                                                   "--seed", "7"]}


def dump(out):
    """Write this tree's results to the .npz file `out`."""
    from dataclasses import replace

    from framecmd import cli
    from framecmd.corpus import label_vocab, make_folds
    from framecmd.embeddings import random_embeddings
    from framecmd.model import (build_model, load_checkpoint, predict_many,
                                save_checkpoint)
    from framecmd.pipeline import (cross_validate, evaluate, metrics_to_dict,
                                   train)
    from framecmd.synth import demo_map, generate_synthetic

    corpus = generate_synthetic(SEED, 120)
    held_out = generate_synthetic(SEED + 1, 40)
    vocab = label_vocab(corpus)
    maps = {"house1": demo_map()}
    items = {}

    def metrics(stage, chain):
        return np.array([json.dumps(metrics_to_dict(stage, chain),
                                    sort_keys=True)])

    def parsed(model, table):
        parses = predict_many(model, table, [list(s.tokens)
                                             for s in held_out])
        return parses, np.array([json.dumps([p.frame_type, p.elements])
                                 for p in parses])

    for preset in PRESETS:
        model_cfg, train_cfg = cli.build_configs(cli.load_config(preset))
        for seed in FRESH_SEEDS:
            for p in build_model(replace(model_cfg, seed=seed),
                                 vocab).parameters():
                items[f"fresh/{preset}/{seed}/{p.name}"] = p.data
        train_cfg = replace(train_cfg, epochs=3, patience=2)
        table = random_embeddings([t for s in corpus + held_out
                                   for t in s.tokens],
                                  model_cfg.embedding_dim, seed=SEED)
        model = build_model(model_cfg, vocab)
        items[f"loss/{preset}"] = np.array(train(model, table, corpus,
                                                 train_cfg))
        for p in model.parameters():
            items[f"params/{preset}/{p.name}"] = p.data
        parses, items[f"parses/{preset}"] = parsed(model, table)
        items[f"metrics/{preset}"] = metrics(*evaluate(model, table, held_out,
                                                       maps))
        if parses[0].attention is not None:
            items[f"attention/{preset}"] = np.concatenate(
                [w.ravel() for p in parses
                 for _, w in sorted(p.attention.items())])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            save_checkpoint(path, model, table)
            header, payload = path.read_bytes().split(b"\n", 1)
            items[f"ckpt_header/{preset}"] = np.array(header.decode())
            items[f"ckpt_payload/{preset}"] = np.frombuffer(payload, np.uint8)
            model, table = load_checkpoint(path)
        for p in model.parameters():
            items[f"reload_params/{preset}/{p.name}"] = p.data
        items[f"reload_parses/{preset}"] = parsed(model, table)[1]
    model_cfg, train_cfg = cli.build_configs(cli.load_config("2l_no_att"))
    table = random_embeddings([t for s in corpus for t in s.tokens],
                              model_cfg.embedding_dim, seed=SEED)
    items["metrics/cv"] = metrics(*cross_validate(
        corpus, model_cfg, replace(train_cfg, k=3, epochs=2), table, maps))
    folds = make_folds(corpus, 5, SEED)
    items["folds"] = np.array([folds.assignment[s.id] for s in corpus])
    for name, argv in GRADCHECK_RUNS.items():
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main(["gradcheck"] + argv)
        items[f"gradcheck/{name}"] = np.array(text.getvalue().splitlines())
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        corpus_path, ckpt = Path(tmp, "c.jsonl"), Path(tmp, "m.ckpt")
        for argv in (["gen-corpus", "--n", "30", "--seed", str(SEED),
                      "--out", corpus_path],
                     ["train", "--corpus", corpus_path, "--config",
                      "2l_no_att", "--override", "epochs=2", "--out", ckpt],
                     ["eval", "--corpus", corpus_path, "--ckpt", ckpt,
                      "--maps", Path(tmp, "c.map.json"),
                      "--out", Path(tmp, "e.json")]):
            if cli.main([str(a) for a in argv]) != 0:
                raise SystemExit(f"framecmd {argv[0]} failed")
        for path in sorted(Path(tmp).iterdir()):
            items[f"cli_files/{path.name}"] = np.frombuffer(
                path.read_bytes(), np.uint8)
    np.savez(out, **items)


def _numeric(a, b, keys):
    """The line for float arrays: identical, or the largest differences."""
    if any(a[k].shape != b[k].shape for k in keys):
        return "shapes differ"
    abs_diff = rel_diff = 0.0
    for k in keys:
        d = np.abs(a[k] - b[k])
        abs_diff = max(abs_diff, float(d.max(initial=0.0)))
        scale = np.maximum(np.abs(a[k]), np.abs(b[k]))
        rel = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0)
        rel_diff = max(rel_diff, float(rel.max(initial=0.0)))
    if abs_diff == 0.0:
        return "identical"
    return f"max abs diff {abs_diff:.3g}, max rel diff {rel_diff:.3g}"


def _counted(a, b, keys, what):
    """The line for values compared one by one: how many differ."""
    total = differ = 0
    for k in keys:
        x, y = a[k], b[k]
        n = max(x.size, y.size)
        same = min(x.size, y.size)
        total += n
        differ += n - same + int(np.count_nonzero(x[:same] != y[:same]))
    return "identical" if differ == 0 else f"{differ} of {total} {what} differ"


def _headers(a, b, keys):
    """The line for JSON headers: identical, or the top-level keys whose
    values differ."""
    differ = set()
    for k in keys:
        x, y = json.loads(str(a[k])), json.loads(str(b[k]))
        differ |= {f for f in x.keys() | y.keys() if x.get(f) != y.get(f)}
    return "identical" if not differ else f"differ in {sorted(differ)}"


def report(a, b):
    """The report's lines for the results a and b of the two trees."""
    if set(a.files) != set(b.files):
        return [f"different items: {sorted(set(a.files) ^ set(b.files))}"]

    def keys(prefix):
        return sorted(k for k in a.files if k.startswith(prefix))

    params = _numeric(a, b, keys("reload_params/"))
    parses = _counted(a, b, keys("reload_parses/"), "parses")
    reloads = ("identical" if params == parses == "identical"
               else f"parameters {params}; parses {parses}")
    return [
        f"fresh parameters: {_numeric(a, b, keys('fresh/'))}",
        f"parameters after train: {_numeric(a, b, keys('params/'))}",
        f"loss histories: {_numeric(a, b, keys('loss/'))}",
        f"parses: {_counted(a, b, keys('parses/'), 'parses')}",
        f"attention maps: {_numeric(a, b, keys('attention/'))}",
        f"fold assignments: {_counted(a, b, ['folds'], 'sentences')}",
        f"gradcheck output: {_counted(a, b, keys('gradcheck/'), 'lines')}",
        f"checkpoint headers: {_headers(a, b, keys('ckpt_header/'))}",
        f"checkpoint payloads: "
        f"{_counted(a, b, keys('ckpt_payload/'), 'bytes')}",
        f"checkpoint reloads: {reloads}",
        f"metrics: {_counted(a, b, keys('metrics/'), 'metric sets')}",
        f"CLI files: {_counted(a, b, keys('cli_files/'), 'bytes')}",
    ]


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"{side}.npz") for side in "ab"]
        # One process per tree, both at once.
        procs = [subprocess.Popen(
            [sys.executable, __file__, "--dump", out],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
            for src, out in zip(argv, outs)]
        if any([p.wait() != 0 for p in procs]):
            print("a tree failed to run", file=sys.stderr)
            return 1
        with np.load(outs[0]) as a, np.load(outs[1]) as b:
            print("\n".join(report(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
