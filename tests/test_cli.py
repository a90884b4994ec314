import io
import json
import os
import select
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from framecmd.cli import EXIT_BROKEN_PIPE, build_configs, load_config, main
from framecmd.model import CheckpointError, load_checkpoint, save_checkpoint

FAST_OVERRIDES = ["--override", "epochs=2", "--override", "hidden_size=4",
                  "--override", "decoder_hidden=4",
                  "--override", "embedding_dim=8",
                  "--override", "attention_size=4",
                  "--override", "label_embedding_dim=3",
                  "--override", "patience=0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["gen-corpus", "--n", "24", "--seed", "3",
               "--out", str(d / "corpus.jsonl"),
               "--map-out", str(d / "house.map.json")])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def overfit_ckpt(tmp_path_factory, overfit_bundle):
    path = tmp_path_factory.mktemp("ckpt") / "overfit.ckpt"
    save_checkpoint(path, overfit_bundle["model"], overfit_bundle["table"])
    return str(path)


class TestGenCorpus:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-corpus", "--n", "10", "--seed", "5",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.map.json").exists()

    def test_frame_subset(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["gen-corpus", "--n", "8", "--frames", "Motion,Taking",
                     "--out", str(out)]) == 0
        frames = {json.loads(l)["frame"]["frame_type"]
                  for l in out.read_text().splitlines()}
        assert frames == {"Motion", "Taking"}

    def test_unknown_frame_exit_2(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--n", "2", "--frames", "Teleporting",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_and_history(self, workdir):
        ckpt = workdir / "tiny.ckpt"
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--out", str(ckpt)]
                  + FAST_OVERRIDES)
        assert rc == 0
        assert ckpt.exists()
        hist = json.loads((workdir / "tiny.ckpt.history.json").read_text())
        assert hist["config"] == "2L-NO-ATT"
        assert hist["epochs_run"] == 2
        assert len(hist["loss_history"]) == 2

    def test_override_lands_in_checkpoint_header(self, workdir):
        ckpt = workdir / "tiny.ckpt"
        header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        assert header["config"]["hidden_size"] == 4
        assert header["config"]["variant"] == "2L"
        assert header["config"]["attention"] is False

    # lr=1e9 blows the loss up with every value finite; at lr=1e300
    # the forward pass overflows to NaN. SGD at lr=1.7e308 takes one
    # step, the run's last, that leaves weights overflowed to inf.
    @pytest.mark.parametrize("overrides", [
        pytest.param(["lr=1e9"], id="1e9"),
        pytest.param(["lr=1e300"], id="1e300"),
        pytest.param(["optimizer=sgd", "lr=1.7e308", "batch_size=64",
                      "epochs=1"], id="sgd-last-step")])
    def test_diverging_run_exit_5_and_writes_nothing(self, workdir,
                                                     tmp_path, overrides):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"an earlier checkpoint")
        # A child process, so that numpy's warnings reach stderr as a
        # user sees them instead of pytest's warning capture.
        proc = subprocess.run(
            [sys.executable, "-m", "framecmd", "train", "--corpus",
             str(workdir / "corpus.jsonl"), "--out", str(ckpt)]
            + FAST_OVERRIDES + [a for ov in overrides
                                for a in ("--override", ov)],
            capture_output=True, text=True)
        assert proc.returncode == 5
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: training diverged")
        assert ckpt.read_bytes() == b"an earlier checkpoint"
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_missing_corpus_exit_3(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl")])
        assert rc == 3
        assert "not found" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wheels = 4\n")
        rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, workdir):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "9l_att"])
        assert rc == 2

    # The paper's presets: one set of hyperparameters for all four
    # parsers, written out so that a changed dataclass default fails here.
    @pytest.mark.parametrize("name,variant,attention", [
        ("2l_att", "2L", True), ("2l_no_att", "2L", False),
        ("3l_att", "3L", True), ("3l_no_att", "3L", False),
        ("3L-NO-ATT", "3L", False)])
    def test_preset_values(self, name, variant, attention):
        model_cfg, train_cfg = build_configs(load_config(name))
        assert asdict(model_cfg) == {
            "variant": variant, "attention": attention, "embedding_dim": 50,
            "hidden_size": 32, "decoder_hidden": 32, "attention_size": 16,
            "label_embedding_dim": 8, "dropout": 0.3, "seed": 42}
        assert asdict(train_cfg) == {
            "epochs": 150, "batch_size": 8, "lr": 0.001,
            "optimizer": "adam", "patience": 10, "seed": 42, "k": 5}


class TestEval:
    def test_checkpoint_eval_with_map(self, workdir, capsys):
        out = workdir / "metrics.json"
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(workdir / "tiny.ckpt"),
                   "--maps", str(workdir / "house.map.json"),
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Configuration" in stdout and "2L-NO-ATT" in stdout
        doc = json.loads(out.read_text())["2L-NO-ATT"]
        assert 0.0 <= doc["ad_f1"] <= 1.0
        assert "chain_accuracy" in doc
        assert (workdir / "metrics.json.txt").read_text() == stdout

    def test_cv_requires_config(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--cv", "2"])
        assert rc == 2
        assert "--cv requires --config" in capsys.readouterr().err

    def test_cv_smoke(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", "2"] + FAST_OVERRIDES)
        assert rc == 0
        assert "2L-NO-ATT" in capsys.readouterr().out

    def test_needs_ckpt_or_cv(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 2

    def test_bad_checkpoint_exit_4(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(bad)])
        assert rc == 4


class TestParse:
    def test_parses_command(self, overfit_ckpt, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame_type"] == "Motion"
        assert doc["elements"] == [{"type": "Goal", "span": [1, 3]}]

    def test_grounding_with_map(self, overfit_ckpt, workdir, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen",
                   "--map", str(workdir / "house.map.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groundings"] == [
            {"type": "Goal", "span": [1, 3], "entity": "kitchen_1"}]

    def test_show_attention(self, overfit_ckpt, capsys):
        rc = main(["parse", overfit_ckpt, "take the book to the kitchen",
                   "--show-attention"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        att = doc["attention"]
        assert set(att) == {"ad", "layer2", "layer3"}
        for rows in att.values():
            for row in rows:
                np.testing.assert_allclose(sum(row), 1.0, atol=1e-9)

    def test_empty_sentence_exit_2(self, overfit_ckpt, capsys):
        assert main(["parse", overfit_ckpt, "   "]) == 2
        assert "empty sentence" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_4(self, overfit_ckpt, tmp_path):
        blob = Path(overfit_ckpt).read_bytes()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(blob[:len(blob) // 2])
        assert main(["parse", str(bad), "go home"]) == 4

    def test_missing_checkpoint_exit_4(self, tmp_path, capsys):
        assert main(["parse", str(tmp_path / "nosuch.ckpt"), "go home"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_map_exit_3(self, overfit_ckpt, tmp_path, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen",
                   "--map", str(tmp_path / "nosuch.json")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0" * 3])
    def test_trailing_checkpoint_data_exit_4(self, overfit_ckpt, tmp_path,
                                             extra):
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(Path(overfit_ckpt).read_bytes() + extra)
        with pytest.raises(CheckpointError):
            load_checkpoint(padded)
        assert main(["parse", str(padded), "go home"]) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_checkpoint_value_exit_4(self, overfit_ckpt, tmp_path,
                                                capsys, value):
        # The value replaces the payload's first float, of ad_head.W.
        header, payload = Path(overfit_ckpt).read_bytes().split(b"\n", 1)
        bad = tmp_path / "non_finite.ckpt"
        bad.write_bytes(header + b"\n" + np.array([value], "<f8").tobytes()
                        + payload[8:])
        assert main(["parse", str(bad), "go home"]) == 4
        assert "not finite" in assert_one_line_error(capsys)

    def test_weights_training_cannot_produce_exit_4(self, overfit_ckpt,
                                                    tmp_path):
        # Every weight times 1e200 is finite, but the squared parameter
        # norm overflows. A child process shows any numpy warning.
        header, payload = Path(overfit_ckpt).read_bytes().split(b"\n", 1)
        n = sum(int(np.prod(shape)) for _, shape in
                json.loads(header)["params"])
        data = np.frombuffer(payload, "<f8").copy()
        data[:n] *= 1e200
        big = tmp_path / "big.ckpt"
        big.write_bytes(header + b"\n" + data.astype("<f8").tobytes())
        proc = subprocess.run(
            [sys.executable, "-m", "framecmd", "parse", str(big),
             "go to the kitchen"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "norm" in proc.stderr


COMMANDS = ["go to the kitchen", "take the book to the kitchen",
            "bring  the mug to the bathroom ", "look for the towel",
            "put the book on the table", "café kitchen"]


def stdin_of(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))


class TestParseStdin:
    def one_by_one(self, ckpt, flags, capsys):
        answers = []
        for line in COMMANDS:
            assert main(["parse", ckpt, line] + flags) == 0
            answers.append(capsys.readouterr().out)
        return answers

    def test_answers_match_separate_calls(self, overfit_ckpt, workdir,
                                          monkeypatch, capsys):
        flags = ["--map", str(workdir / "house.map.json"),
                 "--show-attention"]
        expected = self.one_by_one(overfit_ckpt, flags, capsys)
        stdin_of(monkeypatch, "\n".join(COMMANDS) + "\n")
        assert main(["parse", overfit_ckpt, "-"] + flags) == 0
        captured = capsys.readouterr()
        assert captured.out == "".join(expected)
        assert captured.err == ""

    def test_blank_line_ends_the_run_after_earlier_answers(
            self, overfit_ckpt, monkeypatch, capsys):
        expected = self.one_by_one(overfit_ckpt, [], capsys)
        stdin_of(monkeypatch, "\n".join(COMMANDS[:3] + ["  "] + COMMANDS[3:]))
        assert main(["parse", overfit_ckpt, "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "".join(expected[:3])
        assert captured.err == "error: empty sentence\n"

    def test_closed_stdin_exit_2(self, overfit_ckpt, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", None)   # Python's closed fd 0
        assert main(["parse", overfit_ckpt, "-"]) == 2
        assert "stdin" in assert_one_line_error(capsys)

    def test_child_answers_before_stdin_closes(self, overfit_ckpt, capsys):
        assert main(["parse", overfit_ckpt, COMMANDS[0]]) == 0
        expected = capsys.readouterr().out
        # Python buffers a piped stdout unless told otherwise.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "parse", overfit_ckpt, "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            proc.stdin.write(COMMANDS[0] + "\n")
            proc.stdin.flush()
            # Without a flush per answer, no line arrives until stdin
            # closes, and the wait times out instead of hanging.
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no answer within 60 s while stdin was open"
            assert proc.stdout.readline() == expected
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stdout.read() == ""
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
            proc.wait()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()

    def test_reader_closing_early_ends_in_one_line(self, overfit_ckpt):
        # 2,000 answers outgrow the pipe, so the child blocks writing
        # until its reader closes the pipe after the first line; the
        # next write then fails with EPIPE.
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "parse", overfit_ckpt, "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            proc.stdin.write(b"go to the kitchen\n" * 2000)
            proc.stdin.close()
            first = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()
        assert json.loads(first)["tokens"] == ["go", "to", "the", "kitchen"]
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGradcheck:
    def test_all_architectures_pass(self, capsys):
        rc = main(["gradcheck", "--hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("2L-ATT", "2L-NO-ATT", "3L-ATT", "3L-NO-ATT"):
            assert f"{name}: max relative error" in out
        assert out.count("PASS") == 4
        assert "eps=1e-05" in out

    def test_corrupted_gradients_fail(self, capsys):
        rc = main(["gradcheck", "--hidden", "4", "--corrupt"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestConfigErrors:
    @pytest.mark.parametrize("override", [
        "batch_size=0", "lr=-1", "lr=inf", "patience=-1", "epochs=0",
        "optimizer=foo", "seed=-1",
        # values that do not have their field's type
        "epochs=1.5", "hidden_size=2.5", "seed=1.5", "attention=3",
        "batch_size=true", "dropout=abc"])
    def test_out_of_range_train_setting_exit_2(self, workdir, tmp_path,
                                               capsys, override):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--override", override, "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert override.split("=")[0] in assert_one_line_error(capsys)
        assert not (tmp_path / "m.ckpt").exists()

    def test_ill_typed_config_file_value_exit_2(self, workdir, tmp_path,
                                                capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = 3L\nhidden_size = 2.5\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "line 2: hidden_size" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_eval_jobs_below_1_exit_2(self, workdir, capsys, jobs):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", "2", "--jobs", jobs])
        assert rc == 2
        assert "--jobs" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "2l_no_att", "--out", "{missing}/m.ckpt"]
        + FAST_OVERRIDES,
        ["eval", "--config", "2l_no_att", "--cv", "2",
         "--out", "{missing}/metrics.json"] + FAST_OVERRIDES,
        ["gen-corpus", "--n", "3", "--out", "{missing}/c.jsonl"],
        ["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl",
         "--map-out", "{missing}/c.map.json"],
        ["train", "--config", "2l_no_att", "--out", "{tmp}"]
        + FAST_OVERRIDES,
    ], ids=["train", "eval", "gen-corpus", "gen-corpus-map", "out-is-dir"])
    def test_out_path_not_writable_exit_2_before_any_work(
            self, workdir, tmp_path, capsys, monkeypatch, argv):
        from framecmd import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("train", "cross_validate", "generate_synthetic"):
            monkeypatch.setattr(cli, name, no_work)
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
                for a in argv]
        if argv[0] != "gen-corpus":
            argv += ["--corpus", str(workdir / "corpus.jsonl")]
        assert main(argv) == 2
        assert "-out" in assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("k", ["50", "1", "0"])
    def test_cv_outside_corpus_size_exit_2(self, workdir, capsys, k):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", k])
        assert rc == 2
        assert "--cv" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "-0.5"],
                                       ["--eps", "nan"], ["--eps", "inf"],
                                       ["--hidden", "0"], ["--seed", "-3"]])
    def test_gradcheck_bad_setting_exit_2(self, capsys, flags):
        assert main(["gradcheck"] + flags) == 2
        assert flags[0] in assert_one_line_error(capsys)


class TestUnreadableFiles:
    def test_directory_as_corpus_exit_3(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path)]) == 3
        assert "corpus" in assert_one_line_error(capsys)

    def test_directory_as_map_exit_3(self, overfit_ckpt, tmp_path, capsys):
        rc = main(["parse", overfit_ckpt, "go home", "--map", str(tmp_path)])
        assert rc == 3
        assert "map" in assert_one_line_error(capsys)

    def test_directory_as_eval_map_exit_3(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(workdir / "tiny.ckpt"),
                   "--maps", str(tmp_path)])
        assert rc == 3
        assert_one_line_error(capsys)

    def test_directory_as_embeddings_exit_3(self, workdir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(tmp_path)])
        assert rc == 3
        assert "embeddings" in assert_one_line_error(capsys)

    def test_non_utf8_corpus_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe\x00")
        assert main(["train", "--corpus", str(bad)]) == 3
        assert_one_line_error(capsys)

    def test_directory_as_config_exit_2(self, workdir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", str(tmp_path)])
        assert rc == 2
        assert_one_line_error(capsys)


def good_record():
    return {"id": "s1", "tokens": ["go", "home"],
            "frame": {"frame_type": "Motion", "lexical_unit": [0, 0],
                      "elements": [{"type": "Goal", "span": [1, 1]}]}}


class TestDataErrors:
    @pytest.mark.parametrize("edit", [
        lambda r: r["frame"]["elements"][0].update(span=[0]),
        lambda r: r["frame"].update(lexical_unit=[0]),
        lambda r: r.update(tokens=[1, 2]),
        lambda r: r.update(tokens="abc"),
        lambda r: r.update(id=[1]),
        lambda r: r["frame"].update(frame_type=["Motion"]),
    ], ids=["span", "lexical-unit", "int-tokens", "string-tokens",
            "list-id", "list-frame-type"])
    def test_ill_typed_corpus_field_exit_3(self, tmp_path, capsys, edit):
        bad = good_record()
        edit(bad)
        corpus = tmp_path / "c.jsonl"
        # the ill-typed record comes second, after a valid one
        corpus.write_text(json.dumps(good_record()) + "\n"
                          + json.dumps(bad) + "\n")
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 3
        assert "line 2" in assert_one_line_error(capsys)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("refs", [[1], "book"])
    def test_ill_typed_lexical_refs_exit_3(self, overfit_ckpt, tmp_path,
                                           capsys, refs):
        smap = tmp_path / "m.json"
        smap.write_text(json.dumps({"id": "m", "entities": [
            {"id": "book1", "type": "Book", "lexical_refs": refs}]}))
        rc = main(["parse", overfit_ckpt, "take the book",
                   "--map", str(smap)])
        assert rc == 3
        assert "lexical_refs" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_embedding_exit_3(self, workdir, tmp_path, capsys,
                                         value):
        emb = tmp_path / "emb.txt"
        emb.write_text("go " + " ".join(["0.5"] * 7 + [value]) + "\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(emb), "--out", str(tmp_path / "m")]
                  + FAST_OVERRIDES)
        assert rc == 3
        assert "line 1" in assert_one_line_error(capsys)

    def test_embedding_dimension_mismatch_exit_3(self, workdir, tmp_path,
                                                 capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("go 0.1 0.2 0.3\nhome 0.4 0.5 0.6\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(emb), "--out", str(tmp_path / "m")]
                  + FAST_OVERRIDES)       # embedding_dim=8
        assert rc == 3
        err = assert_one_line_error(capsys)
        assert "3 values" in err and "embedding_dim is 8" in err
        assert [f.name for f in tmp_path.iterdir()] == ["emb.txt"]


class TestCheckpointHeader:
    def rewrite_header(self, src, dst, edit):
        header, payload = Path(src).read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        edit(doc)
        dst.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        return str(dst)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("params"),
        lambda d: d["embeddings"].pop("dim"),
        lambda d: d["config"].update(wheels=4),
        lambda d: d["config"].update(hidden_size="16"),
        lambda d: d["config"].update(variant="4L"),
        lambda d: d["config"].update(seed=-1),
        lambda d: d.update(config=[1, 2]),
        lambda d: d["params"].append(d["params"][0]),
        lambda d: d["params"][0].__setitem__(1, [1, 1]),
        lambda d: d["params"][0].__setitem__(0, ["not", "a", "name"]),
        lambda d: d["embeddings"].update(dim="50"),
        lambda d: d["embeddings"].update(dim=49),
        lambda d: d["embeddings"]["tokens"].pop(),
    ], ids=["no-params", "no-dim", "unknown-config-key",
            "ill-typed-config", "bad-variant", "negative-seed",
            "config-not-a-dict",
            "repeated-param", "wrong-shape", "unhashable-name",
            "dim-not-int", "dim-wrong", "token-missing"])
    def test_bad_header_exit_4(self, overfit_ckpt, tmp_path, capsys, edit):
        bad = self.rewrite_header(overfit_ckpt, tmp_path / "bad.ckpt", edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["parse", bad, "go home"]) == 4
        assert_one_line_error(capsys)

    def test_version_only_header_exit_4(self, tmp_path, capsys):
        path = tmp_path / "v.ckpt"
        path.write_bytes(b'{"format_version":1}\n')
        assert main(["parse", str(path), "go home"]) == 4
        assert_one_line_error(capsys)

    def test_format_1_checkpoint_exit_4(self, overfit_bundle, tmp_path,
                                        capsys):
        # Written as format 1 was: every LSTM gate its own parameter,
        # <stream>.W_<gate> (U_, b_), all sorted by name.
        model, table = overfit_bundle["model"], overfit_bundle["table"]
        streams = {"layer1": ["layer1.fwd", "layer1.bwd"],
                   "layer2.cell": ["layer2.cell"],
                   "layer3.cell": ["layer3.cell"]}
        params = []
        for p in model.parameters():
            prefix, part = p.name.rsplit(".", 1)
            if prefix not in streams:
                params.append((p.name, p.data))
                continue
            per_stream = p.data.reshape(
                (-1,) + p.data.shape[-1 if part == "b" else -2:])
            for stream, stacked in zip(streams[prefix], per_stream):
                params += [(f"{stream}.{part}_{gate}", block) for gate, block
                           in zip("ifog", np.split(stacked, 4))]
        params.sort(key=lambda kv: kv[0])
        tokens = sorted(table.vectors)
        header = {"format_version": 1, "config": asdict(model.config),
                  "vocab": {"frames": list(model.vocab.frames),
                            "element_types": list(model.vocab.element_types)},
                  "params": [[n, list(a.shape)] for n, a in params],
                  "embeddings": {"dim": table.dim, "tokens": tokens}}
        path = tmp_path / "v1.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(
            a.astype("<f8").tobytes() for a in
            [a for _, a in params] + [table.vectors[t] for t in tokens]
            + [table.unk_vector]))
        assert main(["parse", str(path), "go home"]) == 4
        err = assert_one_line_error(capsys)
        assert "format 1" in err and "retrain" in err

    def test_non_object_header_exit_4(self, tmp_path, capsys):
        path = tmp_path / "n.ckpt"
        path.write_bytes(b"5\n")
        assert main(["parse", str(path), "go home"]) == 4
        assert_one_line_error(capsys)

    def test_unchanged_header_still_loads(self, overfit_ckpt, tmp_path):
        same = self.rewrite_header(overfit_ckpt, tmp_path / "same.ckpt",
                                   lambda d: None)
        load_checkpoint(same)


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["parse", "m.ckpt", "go", "--seed", "9"],
        ["parse", "m.ckpt", "go", "--jobs", "2"],
        ["parse", "m.ckpt", "go", "--out", "x.json"],
        ["gradcheck", "--jobs", "2"],
        ["gradcheck", "--out", "x.json"],
        ["train", "--corpus", "c.jsonl", "--jobs", "2"],
        ["train", "--corpus", "c.jsonl", "--seed", "9"],
        ["eval", "--corpus", "c.jsonl", "--seed", "9"],
        ["gen-corpus", "--n", "3", "--jobs", "2"],
    ])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_eval_ckpt_with_maps_parses_each_sentence_once(workdir, overfit_ckpt,
                                                        predict_calls,
                                                        capsys):
    rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
               "--ckpt", overfit_ckpt,
               "--maps", str(workdir / "house.map.json")])
    assert rc == 0
    corpus = [json.loads(line) for line in
              (workdir / "corpus.jsonl").read_text().splitlines()]
    assert sorted(predict_calls) == sorted(tuple(r["tokens"]) for r in corpus)
    assert "Whole Chain" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "framecmd", "gen-corpus", "--n", "3",
         "--out", str(tmp_path / "s.jsonl")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 3 sentences" in proc.stdout


def test_console_script_help():
    proc = subprocess.run(["framecmd", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "gradcheck" in proc.stdout
