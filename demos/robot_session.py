"""A robot's parsing session: one `framecmd parse CKPT -` process
answering 100 commands, one after another, against one `framecmd parse`
process per command.

Trains a small 3L-ATT parser for a few seconds, then starts one
`python -m framecmd parse CKPT - --map MAP` child and sends it 100
synthetic commands in a closed loop: each command is written only once
the answer to the one before it has been read. The first 10 answers
must equal, byte for byte, what 10 separate `parse` calls print; on a
mismatch the script exits 1. Prints both wall times.

    PYTHONPATH=src python demos/robot_session.py
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import framecmd
from framecmd.corpus import label_vocab
from framecmd.embeddings import random_embeddings
from framecmd.grounding import serialize_map
from framecmd.model import ModelConfig, build_model, save_checkpoint
from framecmd.pipeline import TrainConfig, train
from framecmd.synth import demo_map, generate_synthetic

N_COMMANDS = 100
N_SEPARATE = 10

corpus = generate_synthetic(seed=7, n=60)
commands = [" ".join(s.tokens)
            for s in generate_synthetic(seed=8, n=N_COMMANDS)]
table = random_embeddings([t for s in corpus for t in s.tokens],
                          dim=50, seed=7)
model = build_model(ModelConfig(hidden_size=16, decoder_hidden=16,
                                attention_size=8, dropout=0.0, seed=7),
                    label_vocab(corpus))
start = time.perf_counter()
history = train(model, table, corpus,
                TrainConfig(epochs=15, lr=5e-3, patience=0, seed=7))
print(f"trained {model.config.name} for {len(history)} epochs in "
      f"{time.perf_counter() - start:.1f} s; loss {history[-1]:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    ckpt, map_path = Path(tmp, "robot.ckpt"), Path(tmp, "house.map.json")
    save_checkpoint(ckpt, model, table)
    map_path.write_text(serialize_map(demo_map()), encoding="utf-8")
    # The children import this same framecmd.
    src = str(Path(framecmd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    parse = [sys.executable, "-m", "framecmd", "parse", str(ckpt)]
    flags = ["--map", str(map_path)]

    start = time.perf_counter()
    with subprocess.Popen(parse + ["-"] + flags, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True,
                          env=env) as robot:
        answers = []
        for command in commands:
            robot.stdin.write(command + "\n")
            robot.stdin.flush()
            answers.append(robot.stdout.readline())
        robot.stdin.close()
        code = robot.wait()
    session_s = time.perf_counter() - start
    if code != 0 or not all(answers):
        sys.exit(f"the parse session ended with exit code {code}")

    start = time.perf_counter()
    separate = [subprocess.run(parse + [command] + flags, env=env,
                               capture_output=True, text=True,
                               check=True).stdout
                for command in commands[:N_SEPARATE]]
    separate_s = time.perf_counter() - start

print(f"one `parse CKPT -` process, {N_COMMANDS} commands: "
      f"{session_s:.2f} s wall, process start included")
print(f"{N_SEPARATE} separate `parse` processes: {separate_s:.2f} s wall "
      f"({separate_s / N_SEPARATE:.3f} s per command)")
print(f"> {commands[0]}\n  {answers[0].strip()}")
mismatches = [i for i, (a, b) in enumerate(zip(answers, separate)) if a != b]
if mismatches:
    sys.exit(f"answers differ from separate parse calls at commands "
             f"{mismatches}")
print(f"the first {N_SEPARATE} answers equal the separate calls' byte for "
      f"byte")
