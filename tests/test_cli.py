"""End-to-end command line runs against a tiny synthetic corpus."""

from __future__ import annotations

import functools
import json
import multiprocessing
import re
import struct
import subprocess

import numpy as np
import pytest

from conftest import log_softmax_rows
from ctcspot import (
    BiasingEntry,
    LogProbMatrix,
    build_graph,
    evaluate,
    expand_entries,
    load_logprobs,
    load_vocabulary,
    save_graph,
    write_logprobs,
)
from ctcspot import cli, metrics
from ctcspot.cli import main
from ctcspot.core import _HEADER
from ctcspot.graph import _G_HEADER


@pytest.fixture
def corpus(tmp_path):
    """Two utterances plus vocab/context files and the context list's graph.

    u1's greedy decode reads "bb" while the biasing word "ab" fits the
    frames better; u2 is a clean "a" no candidate can displace.
    """
    (tmp_path / "vocab.txt").write_text("a\nb\n \n<b>\n", encoding="utf-8")
    (tmp_path / "ctx.txt").write_text("ab\n", encoding="utf-8")
    vocab = load_vocabulary(str(tmp_path / "vocab.txt"))
    graph = build_graph(expand_entries(["ab"], vocab), blank_id=vocab.blank_id)
    save_graph(graph, str(tmp_path / "ctx.graph"), vocab)

    def write_matrix(name: str, rows: list[list[float]]) -> None:
        values = log_softmax_rows(np.log(np.array(rows)))
        write_logprobs(LogProbMatrix(values=values, normalized=True), str(tmp_path / name))

    # columns: a, b, space, blank
    write_matrix(
        "u1.bin",
        [
            [0.40, 0.55, 0.01, 0.04],
            [0.25, 1e-9, 0.01, 0.74],
            [0.05, 0.90, 0.01, 0.04],
            [0.02, 0.01, 0.02, 0.95],
        ],
    )
    write_matrix(
        "u2.bin",
        [
            [0.90, 1e-9, 0.01, 0.09],
            [0.03, 1e-9, 0.02, 0.95],
            [0.03, 1e-9, 0.02, 0.95],
        ],
    )
    manifest = [
        {"id": "u1", "logprobs": "u1.bin", "text": "ab"},
        {"id": "u2", "logprobs": "u2.bin", "text": "a"},
    ]
    with open(tmp_path / "manifest.jsonl", "w", encoding="utf-8") as fh:
        for row in manifest:
            fh.write(json.dumps(row) + "\n")
    return tmp_path


def args_vocab(corpus) -> list[str]:
    return ["--vocab", str(corpus / "vocab.txt")]


def args_graph(corpus) -> list[str]:
    return ["--graph", str(corpus / "ctx.graph")]


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def help_options(command: str, capsys) -> list[str]:
    """The options a subcommand's --help lists, --help itself left out."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return sorted(set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"})


class TestBuildGraph:
    def test_writes_graph_and_stats(self, corpus, capsys):
        out = corpus / "graph.bin"
        code = main(
            ["build-graph", *args_vocab(corpus),
             "--context-list", str(corpus / "ctx.txt"), "--output", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == (corpus / "ctx.graph").read_bytes()  # the fixture's graph
        # "ab" tokenizes two ways (ab, a b): root + 4 nodes, 2 transcriptions
        assert capsys.readouterr().out.strip() == (
            f"graph: 5 nodes, 1 entries, 2 transcriptions -> {out}"
        )

    def test_same_list_gives_the_same_bytes(self, corpus, capsys):
        (corpus / "many.txt").write_text("ab\nbaa\nabba\nbab\na b\nba\n", encoding="utf-8")
        outs = [corpus / "first.graph", corpus / "second.graph"]
        for out in outs:
            assert main(["build-graph", *args_vocab(corpus),
                         "--context-list", str(corpus / "many.txt"), "--output", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unsegmentable_entry_gives_partial_exit(self, corpus, capsys):
        (corpus / "bad.txt").write_text("ab\nqqq\n", encoding="utf-8")
        out = corpus / "graph.bin"
        code = main(
            ["build-graph", *args_vocab(corpus),
             "--context-list", str(corpus / "bad.txt"), "--output", str(out)]
        )
        assert code == 3
        assert out.exists()
        assert "1 entries" in capsys.readouterr().out

    def test_options(self, capsys):
        assert help_options("build-graph", capsys) == [
            "--blank-id", "--context-list", "--output", "--vocab", "--wordlist",
        ]


@pytest.mark.parametrize("command", ["build-graph"])
def test_dropped_entries_give_partial_exit(corpus, caplog, command):
    (corpus / "bad.txt").write_text("ab\nnvidia\nzz9\n", encoding="utf-8")
    out = corpus / "out.bin"
    argv = [command, *args_vocab(corpus), "--context-list", str(corpus / "bad.txt"),
            "--output", str(out)]
    assert main(argv) == 3
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["2 of 3 entries were unsegmentable and dropped"]
    assert out.exists()


def test_zero_probability_row_fails_its_utterance(corpus, caplog, capsys):
    # columns: a, b, space, blank; the first frame gives every token -inf.
    # LogProbMatrix refuses such a row, so the unnormalized file is packed by hand.
    values = np.array([[-np.inf] * 4, [0.0, -np.inf, -np.inf, -np.inf]], dtype="<f4")
    (corpus / "u2.bin").write_bytes(_HEADER.pack(b"CTCL", 1, 0, 0, 2, 4) + values.tobytes())
    out = corpus / "out.jsonl"
    code = main(["decode", *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
                 *args_graph(corpus), "--output", str(out)])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["u2: InvalidValueError: log-prob matrix has a row that is all -inf"]
    assert [r["id"] for r in read_rows(out)] == ["u1"]
    assert "Traceback" not in caplog.text + capsys.readouterr().err


class TestDecode:
    def decode(self, corpus, out_name="out.jsonl", extra=()):
        out = corpus / out_name
        code = main(
            ["decode", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             *args_graph(corpus), "--output", str(out), *extra]
        )
        return code, out

    def test_merges_spotted_word(self, corpus, capsys):
        code, out = self.decode(corpus)
        assert code == 0
        rows = read_rows(out)
        assert [r["id"] for r in rows] == ["u1", "u2"]
        assert rows[0]["greedy_text"] == "bb"
        assert rows[0]["merged_text"] == "ab"
        accepted = [c for c in rows[0]["candidates"] if c["accepted"]]
        assert accepted and accepted[0]["word"] == "ab"
        assert accepted[0]["overlapped_words"] == ["bb"]
        assert rows[1]["merged_text"] == "a"
        meta = json.loads((corpus / "out.jsonl.meta.json").read_text())
        assert meta["utterances"] == 2
        assert meta["decode_seconds"] >= 0.0
        assert "decoded 2/2 utterances" in capsys.readouterr().out

    def test_repeat_runs_are_byte_identical(self, corpus):
        _, first = self.decode(corpus, "r1.jsonl")
        _, second = self.decode(corpus, "r2.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_output(self, corpus):
        _, serial = self.decode(corpus, "w1.jsonl")
        code, parallel = self.decode(corpus, "w2.jsonl", extra=["--workers", "2"])
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_chunked_workers_keep_manifest_order_and_isolate_a_failure(
        self, corpus, monkeypatch, caplog
    ):
        # 120 utterances over 2 workers go out in chunks of 3; the corrupt
        # matrix in the middle fails only its own utterance
        chunksizes = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunksizes.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        (corpus / "bad.bin").write_bytes(b"CTCL" + b"\0" * 5)
        ids = [f"u{i:03d}" for i in range(120)]
        with open(corpus / "manifest.jsonl", "w", encoding="utf-8") as fh:
            for i, uid in enumerate(ids):
                path = "bad.bin" if uid == "u061" else f"u{i % 2 + 1}.bin"
                fh.write(json.dumps({"id": uid, "logprobs": path, "text": "a"}) + "\n")
        outputs = {}
        for workers in ("1", "2"):
            caplog.clear()
            code, outputs[workers] = self.decode(
                corpus, f"w{workers}.jsonl", extra=["--workers", workers]
            )
            assert code == 3
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert len(errors) == 1 and errors[0].startswith("u061: FormatError: ")
            assert [r["id"] for r in read_rows(outputs[workers])] == [
                uid for uid in ids if uid != "u061"
            ]
        assert chunksizes == [3]
        assert outputs["1"].read_bytes() == outputs["2"].read_bytes()

    def test_spawned_workers_give_the_serial_bytes(self, corpus, monkeypatch):
        # a spawned worker starts from a fresh interpreter, so the decode state
        # reaches it only through the pool initializer (the default start method
        # on macOS, and forkserver on Linux from Python 3.14, behave the same way)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            cli.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        _, serial = self.decode(corpus, "w1.jsonl")
        code, spawned = self.decode(corpus, "w2.jsonl", extra=["--workers", "2"])
        assert code == 0
        assert spawned.read_bytes() == serial.read_bytes()

    def test_transducer_mode(self, corpus):
        align = corpus / "u1.align.jsonl"
        align.write_text(
            json.dumps({"word": "bee", "start_frame": 0, "end_frame": 2, "score": -0.5}) + "\n",
            encoding="utf-8",
        )
        manifest = corpus / "t.jsonl"
        manifest.write_text(
            json.dumps(
                {"id": "u1", "logprobs": "u1.bin", "text": "ab",
                 "transducer_alignment": "u1.align.jsonl"}
            ) + "\n",
            encoding="utf-8",
        )
        out = corpus / "out.jsonl"
        code = main(
            ["decode", *args_vocab(corpus), "--manifest", str(manifest),
             *args_graph(corpus), "--output", str(out), "--mode", "transducer"]
        )
        assert code == 0
        row = read_rows(out)[0]
        assert row["transducer_text"] == "bee"
        assert row["merged_text"] == "ab"

    def test_transducer_alignment_past_the_matrix_fails_the_utterance(self, corpus, caplog):
        # u1 has 4 frames; a word ending on frame 4 comes from another frame rate
        (corpus / "u1.align.jsonl").write_text(
            json.dumps({"word": "bee", "start_frame": 0, "end_frame": 4}) + "\n",
            encoding="utf-8",
        )
        (corpus / "t.jsonl").write_text(
            json.dumps({"id": "u1", "logprobs": "u1.bin",
                        "transducer_alignment": "u1.align.jsonl"}) + "\n",
            encoding="utf-8",
        )
        out = corpus / "out.jsonl"
        code = main(
            ["decode", *args_vocab(corpus), "--manifest", str(corpus / "t.jsonl"),
             *args_graph(corpus), "--output", str(out), "--mode", "transducer"]
        )
        assert code == 3
        assert read_rows(out) == []
        assert "u1: DimensionMismatchError: transducer word 'bee' ends at frame 4" in caplog.text

    def test_insertion_over_zero_probability_blanks_has_null_threshold(self, corpus):
        # columns a, b, space, blank: greedy reads only spaces, so "ab" overlaps
        # no word and is judged against blank frames of probability 0
        with np.errstate(divide="ignore"):
            values = np.log(np.array([[0.4, 0.0, 0.6, 0.0], [0.0, 0.4, 0.6, 0.0]]))
        write_logprobs(LogProbMatrix(values=values.astype(np.float32), normalized=True),
                       str(corpus / "z.bin"))
        (corpus / "z.jsonl").write_text(
            json.dumps({"id": "z", "logprobs": "z.bin"}) + "\n", encoding="utf-8"
        )
        out = corpus / "out.jsonl"
        code = main(
            ["decode", *args_vocab(corpus), "--manifest", str(corpus / "z.jsonl"),
             *args_graph(corpus), "--output", str(out)]
        )
        assert code == 0
        (row,) = read_rows(out)
        assert (row["greedy_text"], row["merged_text"]) == ("", "ab")
        (candidate,) = row["candidates"]
        assert candidate["accepted"] is True
        assert candidate["overlapped_words"] == []
        assert candidate["greedy_score_sum"] is None

    def test_transducer_mode_without_alignment_is_partial(self, corpus):
        code, out = self.decode(corpus, extra=["--mode", "transducer"])
        assert code == 3
        assert read_rows(out) == []
        meta = json.loads((corpus / "out.jsonl.meta.json").read_text())
        assert meta["utterances"] == 0

    def test_graph_spelling_a_word_with_the_blank_is_a_data_error(self, corpus, caplog):
        # node 2 spells "ghost" with b (id 1), patched to the blank <b> (id 3)
        vocab = load_vocabulary(str(corpus / "vocab.txt"))
        entries = [BiasingEntry(canonical=w, transcriptions=((t,),)) for w, t in
                   (("a", 0), ("ghost", 1))]
        ghost = corpus / "ghost.graph"
        save_graph(build_graph(entries, blank_id=vocab.blank_id), str(ghost), vocab)
        raw = bytearray(ghost.read_bytes())
        struct.pack_into("<i", raw, _G_HEADER.size + 4 * 2, 3)  # the token id column
        ghost.write_bytes(bytes(raw))
        out = corpus / "out.jsonl"
        code = main(
            ["decode", *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
             "--graph", str(ghost), "--output", str(out)]
        )
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{ghost}: node 2 has token id 3"]
        assert not out.exists()

    def test_version_1_graph_is_a_data_error(self, corpus, caplog):
        old = corpus / "old.graph"
        raw = bytearray((corpus / "ctx.graph").read_bytes())
        raw[4] = 1  # the header's version byte
        old.write_bytes(bytes(raw))
        out = corpus / "out.jsonl"
        code = main(
            ["decode", *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
             "--graph", str(old), "--output", str(out)]
        )
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{old}: unsupported graph version 1; rebuild with build-graph"]
        assert not out.exists()

    def test_unreadable_matrix_skips_row(self, corpus):
        (corpus / "u1.bin").write_bytes(b"not a matrix at all")
        code, out = self.decode(corpus)
        assert code == 3
        assert [r["id"] for r in read_rows(out)] == ["u2"]

    def test_graph_without_entries_warns_that_biasing_is_off(self, corpus, caplog, capsys):
        (corpus / "bad.txt").write_text("qqq\nzz9\n", encoding="utf-8")
        empty = corpus / "empty.graph"
        assert main(["build-graph", *args_vocab(corpus),
                     "--context-list", str(corpus / "bad.txt"), "--output", str(empty)]) == 3
        assert "0 entries" in capsys.readouterr().out
        caplog.clear()
        code, out = self.decode(corpus, extra=["--graph", str(empty)])
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"{empty} has no entries: biasing is off"]
        rows = read_rows(out)
        assert [r["id"] for r in rows] == ["u1", "u2"]
        assert all(r["merged_text"] == r["greedy_text"] and r["candidates"] == [] for r in rows)
        # a graph with entries decodes without a warning
        caplog.clear()
        assert self.decode(corpus)[0] == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--cb-w", "inf", "cb_w must be finite"),
            ("--workers", "0", "--workers must be at least 1, got 0"),
            ("--workers", "-1", "--workers must be at least 1, got -1"),
        ],
    )
    def test_non_finite_config_is_usage_error(self, corpus, capsys, flag, value, message):
        code, out = self.decode(corpus, extra=[flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"ctcspot decode: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "utterances, workers, pools", [(2, 3, [2]), (1, 2, []), (0, 2, [])]
    )
    def test_pool_is_no_larger_than_the_manifest(
        self, corpus, monkeypatch, utterances, workers, pools
    ):
        sizes = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        manifest = corpus / "manifest.jsonl"
        rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(rows[:utterances]), encoding="utf-8")
        _, serial = self.decode(corpus, "w1.jsonl")
        code, pooled = self.decode(corpus, "wn.jsonl", extra=["--workers", str(workers)])
        assert code == 0
        assert sizes == pools
        assert pooled.read_bytes() == serial.read_bytes()

    def test_bad_threshold_is_usage_error(self, corpus, capsys):
        # the beam threshold is a module constant: any value given for it,
        # a negative one included, is refused before anything is decoded
        with pytest.raises(SystemExit) as exc:
            self.decode(corpus, extra=["--beam-thr", "-1"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err
        assert not (corpus / "out.jsonl").exists()

    def test_no_pruning_flag_is_usage_error(self, corpus, capsys):
        # exhaustive search has no memory bound, and the search bounds and the
        # greedy-score weight are constants: no flag turns pruning off or moves them
        for flag in ("--no-pruning", "--beta-thr", "--gamma-thr", "--beam-thr", "--ctc-w"):
            with pytest.raises(SystemExit) as exc:
                self.decode(corpus, extra=[flag, "inf"])
            assert exc.value.code == 1
            assert not (corpus / "out.jsonl").exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unrecognized arguments: {flag}" in captured.err

    def test_options(self, capsys):
        assert help_options("decode", capsys) == [
            "--blank-id", "--cb-w",
            "--graph", "--manifest", "--mode", "--output", "--vocab", "--workers",
        ]


class TestEval:
    def run_eval(self, corpus, results="out.jsonl", extra=()):
        return main(
            ["eval", "--results", str(corpus / results),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--context-list", str(corpus / "ctx.txt"), *extra]
        )

    def decode_first(self, corpus):
        main(["decode", *args_vocab(corpus),
              "--manifest", str(corpus / "manifest.jsonl"),
              *args_graph(corpus), "--output", str(corpus / "out.jsonl")])

    def test_report_to_file(self, corpus, capsys):
        self.decode_first(corpus)
        report_path = corpus / "report.json"
        code = self.run_eval(corpus, extra=["--output", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["wer"] == 0.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0
        assert report["fscore"] == 1.0
        assert report["num_utterances"] == 2
        assert report["num_ref_words"] == 2
        assert report["per_word"] == {"ab": {"tp": 1, "fp": 0, "fn": 0}}
        meta = json.loads((corpus / "out.jsonl.meta.json").read_text())
        assert report["decode_seconds"] == meta["decode_seconds"]
        assert "wer 0.00" in capsys.readouterr().out

    def test_report_scores_the_greedy_baseline_beside_the_merge(self, corpus, capsys):
        self.decode_first(corpus)
        capsys.readouterr()
        assert self.run_eval(corpus) == 0
        report = json.loads(capsys.readouterr().out)
        greedy = {row["id"]: row["greedy_text"] for row in read_rows(corpus / "out.jsonl")}
        assert greedy == {"u1": "bb", "u2": "a"}
        base = evaluate([("ab", "bb"), ("a", "a")], ["ab"])
        keys = ("wer", "precision", "recall", "fscore")
        assert [report[f"baseline_{k}"] for k in keys] == [getattr(base, k) for k in keys]
        assert (report["baseline_wer"], report["wer"]) == (50.0, 0.0)
        assert (report["baseline_fscore"], report["fscore"]) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "u1, baseline_wer",
        [({"greedy_text": "bb", "transducer_text": "ab"}, 0.0), ({}, None)],
        ids=["transducer-first", "missing-on-one-row"],
    )
    def test_baseline_reads_the_transcript_the_merge_repaired(self, corpus, capsys, u1,
                                                              baseline_wer):
        (corpus / "out.jsonl").write_text(
            json.dumps({"id": "u1", "merged_text": "ab", **u1}) + "\n"
            + json.dumps({"id": "u2", "merged_text": "a", "greedy_text": "a"}) + "\n",
            encoding="utf-8",
        )
        assert self.run_eval(corpus) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["baseline_wer"] == baseline_wer
        if baseline_wer is None:  # no baseline rather than one over another set of rows
            assert report["baseline_fscore"] is None and report["fscore"] == 1.0

    def test_report_to_stdout(self, corpus, capsys):
        self.decode_first(corpus)
        capsys.readouterr()  # drop the decode status line
        assert self.run_eval(corpus) == 0
        assert json.loads(capsys.readouterr().out)["fscore"] == 1.0

    def test_results_missing_merged_text(self, corpus):
        (corpus / "bad.jsonl").write_text('{"id": "u1"}\n', encoding="utf-8")
        assert self.run_eval(corpus, results="bad.jsonl") == 2

    def test_no_scoreable_pairs(self, corpus):
        (corpus / "none.jsonl").write_text("", encoding="utf-8")
        assert self.run_eval(corpus, results="none.jsonl") == 2

    def test_missing_results_file(self, corpus):
        assert self.run_eval(corpus, results="absent.jsonl") == 2

    def test_duplicate_result_id(self, corpus, caplog):
        (corpus / "dup.jsonl").write_text(
            '{"id": "u1", "merged_text": "ab"}\n{"id": "u1", "merged_text": "bb"}\n',
            encoding="utf-8",
        )
        assert self.run_eval(corpus, results="dup.jsonl") == 2
        assert "dup.jsonl:2: duplicate result id 'u1'" in caplog.text

    @pytest.mark.parametrize(
        "content",
        ['{"decode_seconds": "abc"}', "[]", "{nope", '{"decode_seconds": NaN}',
         '{"decode_seconds": true}'],
        ids=["string", "array", "invalid-json", "NaN", "true"],
    )
    def test_bad_sidecar_exits_2_with_one_line(self, corpus, caplog, content):
        self.decode_first(corpus)
        meta = corpus / "out.jsonl.meta.json"
        meta.write_text(content + "\n", encoding="utf-8")
        assert self.run_eval(corpus) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"{meta}:1: ")
        assert "Traceback" not in caplog.text

    def test_missing_sidecar_reads_zero_seconds(self, corpus, capsys):
        self.decode_first(corpus)
        (corpus / "out.jsonl.meta.json").unlink()
        capsys.readouterr()
        assert self.run_eval(corpus) == 0
        assert json.loads(capsys.readouterr().out)["decode_seconds"] == 0.0


class TestMineList:
    def test_mines_misrecognized_terms(self, corpus, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 2)  # the fixture's terms are short
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out)]
        )
        # u1 greedy reads "bb" against reference "ab"; u2 is correct
        assert code == 0
        assert out.read_text().splitlines() == ["ab"]
        assert "mined 1 terms from 2 utterances" in capsys.readouterr().out

    def test_row_without_text_is_partial(self, corpus, monkeypatch):
        monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 2)
        extra = {"id": "u3", "logprobs": "u1.bin"}
        with open(corpus / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(extra) + "\n")
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out)]
        )
        assert code == 3
        assert out.exists()

    def test_empty_manifest(self, corpus):
        (corpus / "empty.jsonl").write_text("", encoding="utf-8")
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "empty.jsonl"),
             "--output", str(corpus / "mined.txt")]
        )
        assert code == 2

    def test_max_accuracy_zero(self, corpus, monkeypatch):
        monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 1)
        monkeypatch.setattr(metrics, "_MAX_ACCURACY", 0.0)
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out)]
        )
        assert code == 0
        assert "a" not in out.read_text().splitlines()  # "a" was recognized

    def test_options(self, capsys):
        assert help_options("mine-list", capsys) == [
            "--blank-id", "--manifest", "--output", "--vocab",
        ]


class TestGenAlts:
    def test_expands_with_auto_variants(self, tmp_path, capsys):
        (tmp_path / "ctx.txt").write_text("gpu\ncloudbase\tklaudbase\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("cloud\nbase\nzz\nyy\n", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        code = main(
            ["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
             "--wordlist", str(tmp_path / "words.txt"), "--output", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines() == [
            "gpu\tg p u",
            "cloudbase\tcloud base\tklaudbase",
        ]
        assert "wrote 2 entries" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "files, extra",
        [
            ({"ctx.txt": "gpu\ncloudbase\tklaudbase\n"}, []),
            # alternatives of a repeated row accumulate, as in build-graph
            ({"ctx.txt": "gpu\tgee pee you\ngpu\tgeepee\nrtx\ngpu\n"}, []),
            (
                {"ctx.txt": "cloudbase\nhyperscale\ngpu\n",
                 "words.txt": "cloud\nbase\nhyper\nscale\n"},
                ["--wordlist", "words.txt"],
            ),
        ],
        ids=["plain", "repeated-canonical", "wordlist"],
    )
    def test_output_feeds_back_into_build_graph(self, tmp_path, files, extra):
        # the expanded list compiles to the same graph with no --wordlist or the same one
        (tmp_path / "vocab.txt").write_text(
            "".join(c + "\n" for c in "abcdefghijklmnopqrstuvwxyz ") + "<b>\n", encoding="utf-8"
        )
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        extra = [str(tmp_path / a) if a.endswith(".txt") else a for a in extra]
        vocab = ["--vocab", str(tmp_path / "vocab.txt")]
        out = tmp_path / "expanded.txt"
        assert main(["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
                     "--output", str(out), *extra]) == 0
        assert main(["build-graph", *vocab, "--context-list", str(tmp_path / "ctx.txt"),
                     "--output", str(tmp_path / "direct.bin"), *extra]) == 0
        for again in ([], extra) if extra else ([],):
            assert main(["build-graph", *vocab, "--context-list", str(out), *again,
                         "--output", str(tmp_path / "expanded.bin")]) == 0
            assert (tmp_path / "expanded.bin").read_bytes() == (
                tmp_path / "direct.bin"
            ).read_bytes()

    def test_repeated_rows_accumulate_alternatives(self, tmp_path):
        (tmp_path / "ctx.txt").write_text("gpu\tgee pee you\ngpu\tgeepee\n", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        code = main(["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
                     "--output", str(out)])
        assert code == 0
        assert out.read_text().splitlines() == ["gpu\tg p u\tgee pee you\tgeepee"]

    def test_options(self, capsys):
        assert help_options("gen-alts", capsys) == ["--context-list", "--output", "--wordlist"]


class TestUsageErrors:
    def test_missing_required_argument(self, corpus):
        with pytest.raises(SystemExit) as exc:
            main(["build-graph", *args_vocab(corpus), "--output", "g.bin"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag", ["--context-list", "--wordlist", "--no-auto-alts"])
    def test_decode_takes_no_list_flags(self, corpus, flag):
        # the biasing list reaches decode only as a build-graph file
        extra = [flag] if flag == "--no-auto-alts" else [flag, str(corpus / "ctx.txt")]
        out = corpus / "out.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["decode", *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
                  *args_graph(corpus), "--output", str(out), *extra])
        assert exc.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("build-graph", ["--no-auto-alts"]), ("gen-alts", ["--no-auto-alts"]),
         ("mine-list", ["--min-len", "2"]), ("mine-list", ["--max-acc", "0.5"])],
        ids=["build-graph-no-auto-alts", "gen-alts-no-auto-alts", "mine-list-min-len",
             "mine-list-max-acc"],
    )
    def test_removed_flag_is_usage_error(self, corpus, command, flag):
        # spelling expansion is always on and the mining thresholds are fixed
        inputs = {
            "build-graph": [*args_vocab(corpus), "--context-list", str(corpus / "ctx.txt")],
            "gen-alts": ["--context-list", str(corpus / "ctx.txt")],
            "mine-list": [*args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl")],
        }[command]
        out = corpus / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--output", str(out), *flag])
        assert exc.value.code == 1
        assert not out.exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_vocab_file_is_data_error(self, corpus):
        code = main(
            ["build-graph", "--vocab", str(corpus / "absent.txt"),
             "--context-list", str(corpus / "ctx.txt"),
             "--output", str(corpus / "g.bin")]
        )
        assert code == 2

    @staticmethod
    def argv_with_blank_id(corpus, command: str, blank_id: int) -> list[str]:
        argv = [command, *args_vocab(corpus), "--blank-id", str(blank_id),
                "--output", str(corpus / "out.txt")]
        if command == "build-graph":
            return argv + ["--context-list", str(corpus / "ctx.txt")]
        argv += ["--manifest", str(corpus / "manifest.jsonl")]
        if command == "decode":
            argv += args_graph(corpus)
        return argv

    @pytest.mark.parametrize("blank_id", [-1, 4], ids=["negative", "vocabulary-size"])
    @pytest.mark.parametrize("command", ["build-graph", "decode", "mine-list"])
    def test_blank_id_outside_the_vocabulary_is_usage_error(
        self, corpus, capsys, command, blank_id
    ):
        before = sorted(p.name for p in corpus.iterdir())
        assert main(self.argv_with_blank_id(corpus, command, blank_id)) == 1
        assert capsys.readouterr().err == (
            f"ctcspot {command}: error: --blank-id must be in [0, 3], got {blank_id}\n"
        )
        assert sorted(p.name for p in corpus.iterdir()) == before

    @pytest.mark.parametrize(
        "vocab", [b"a\n\nb\n<b>\n", b"a\nb\na\n<b>\n", b"a\nb\n\xe9\n<b>\n"],
        ids=["empty-token", "duplicate-token", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["build-graph", "decode", "mine-list"])
    def test_vocabulary_fault_stays_a_data_error(self, corpus, caplog, command, vocab):
        (corpus / "vocab.txt").write_bytes(vocab)
        assert main(self.argv_with_blank_id(corpus, command, 99)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "blank" not in errors[0]
        assert not (corpus / "out.txt").exists()


class TestBadTextInputs:
    """Every text input that is not UTF-8 is a data error naming the file."""

    @pytest.mark.parametrize(
        "name, command, code",
        [
            ("vocab.txt", "build-graph", 2),
            ("ctx.txt", "build-graph", 2),
            ("words.txt", "build-graph", 2),
            ("manifest.jsonl", "decode", 2),
            # a bad per-utterance file fails that utterance only
            ("u1.align.jsonl", "decode", 3),
            ("out.jsonl", "eval", 2),
        ],
    )
    def test_not_utf8_is_a_data_error(self, corpus, caplog, name, command, code):
        (corpus / "words.txt").write_text("ab\nba\n", encoding="utf-8")
        rows = [json.loads(line) for line in (corpus / "manifest.jsonl").read_text().splitlines()]
        for row, end in zip(rows, (2, 0)):
            align = f"{row['id']}.align.jsonl"
            (corpus / align).write_text(
                json.dumps({"word": row["text"], "start_frame": 0, "end_frame": end}) + "\n",
                encoding="utf-8",
            )
            row["transducer_alignment"] = align
        (corpus / "manifest.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        (corpus / "out.jsonl").write_text(
            '{"id": "u1", "merged_text": "ab"}\n{"id": "u2", "merged_text": "a"}\n',
            encoding="utf-8",
        )
        path = corpus / name
        path.write_bytes(path.read_bytes() + b"caf\xe9\n")
        ctx = ["--context-list", str(corpus / "ctx.txt")]
        argv = {
            "build-graph": ["build-graph", *args_vocab(corpus), *ctx,
                            "--wordlist", str(corpus / "words.txt"),
                            "--output", str(corpus / "g.bin")],
            "decode": ["decode", *args_vocab(corpus), *args_graph(corpus), "--mode", "transducer",
                       "--manifest", str(corpus / "manifest.jsonl"),
                       "--output", str(corpus / "dec.jsonl")],
            "eval": ["eval", "--results", str(corpus / "out.jsonl"), *ctx,
                     "--manifest", str(corpus / "manifest.jsonl")],
        }[command]
        assert main(argv) == code
        assert f"{path}: not valid UTF-8" in caplog.text
        assert "Traceback" not in caplog.text


class TestNonStringFields:
    """A JSON field of the wrong type or an empty path is a data error naming file and line."""

    STRINGS = "'id' and 'merged_text' must be strings"
    NON_EMPTY_ID = "utterance id must be a non-empty string"

    @pytest.mark.parametrize(
        "command, name, row, message",
        [
            ("eval", "out.jsonl", {"id": ["u1"], "merged_text": "ab"}, STRINGS),
            ("eval", "out.jsonl", {"id": "u1", "merged_text": 5}, STRINGS),
            ("eval", "out.jsonl", {"id": "u1", "merged_text": "ab", "greedy_text": 5},
             "'transducer_text' and 'greedy_text' must be strings"),
            ("eval", "manifest.jsonl", {"id": "u1", "logprobs": "u1.bin", "text": 5},
             "'text' must be a string or null"),
            ("mine-list", "manifest.jsonl", {"id": "u1", "logprobs": 5, "text": "ab"},
             "'logprobs' must be a string"),
            ("decode", "manifest.jsonl", {"id": "u1", "logprobs": 5},
             "'logprobs' must be a string"),
            ("decode", "manifest.jsonl",
             {"id": "u1", "logprobs": "u1.bin", "transducer_alignment": 5},
             "'transducer_alignment' must be a string or null"),
            ("decode", "manifest.jsonl", {"id": "u1", "logprobs": ""}, "'logprobs' is empty"),
            ("decode", "manifest.jsonl", {"id": "", "logprobs": "u1.bin"}, NON_EMPTY_ID),
            ("decode", "manifest.jsonl", {"id": 1, "logprobs": "u1.bin"}, NON_EMPTY_ID),
        ],
        ids=["eval-id", "eval-merged_text", "eval-greedy_text", "eval-text",
             "mine-list-logprobs", "decode-logprobs", "decode-transducer_alignment",
             "decode-empty-logprobs", "decode-empty-id", "decode-number-id"],
    )
    def test_exits_2_with_one_line(self, corpus, caplog, command, name, row, message):
        first = {"id": "u0", "merged_text": "a"} if name == "out.jsonl" else {
            "id": "u0", "logprobs": "u2.bin", "text": "a"}
        (corpus / "out.jsonl").write_text('{"id": "u1", "merged_text": "ab"}\n', encoding="utf-8")
        (corpus / name).write_text(
            json.dumps(first) + "\n" + json.dumps(row) + "\n", encoding="utf-8"
        )
        ctx = ["--context-list", str(corpus / "ctx.txt")]
        manifest = ["--manifest", str(corpus / "manifest.jsonl")]
        argv = {
            "eval": ["eval", "--results", str(corpus / "out.jsonl"), *ctx, *manifest],
            "mine-list": ["mine-list", *args_vocab(corpus), *manifest,
                          "--output", str(corpus / "mined.txt")],
            "decode": ["decode", *args_vocab(corpus), *args_graph(corpus), *manifest,
                       "--mode", "transducer", "--output", str(corpus / "dec.jsonl")],
        }[command]
        assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{corpus / name}:2: {message}"]
        assert "Traceback" not in caplog.text


class TestWrongWidthMatrix:
    """A matrix one column off the vocabulary size fails only its utterance."""

    @pytest.mark.parametrize("width", [3, 5], ids=["one-too-few", "one-too-many"])
    @pytest.mark.parametrize("command", ["decode", "mine-list"])
    def test_fails_the_utterance(self, corpus, caplog, capsys, command, width):
        values = log_softmax_rows(np.zeros((4, width)))
        write_logprobs(LogProbMatrix(values=values, normalized=True), str(corpus / "u1.bin"))
        out = corpus / "out.txt"
        argv = [command, *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
                "--output", str(out)]
        if command == "decode":
            argv += args_graph(corpus)
        assert main(argv) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [
            f"u1: DimensionMismatchError: matrix has {width} columns, vocabulary has 4 tokens"
        ]
        if command == "decode":
            assert [r["id"] for r in read_rows(out)] == ["u2"]
        else:
            assert out.read_text() == ""
            assert "from 1 utterances" in capsys.readouterr().out


class TestRareBadInputs:
    """Bad inputs on paths no other test takes, each with its documented exit code."""

    @staticmethod
    def decode(corpus, *extra) -> int:
        return main(["decode", *args_vocab(corpus), *args_graph(corpus),
                     "--manifest", str(corpus / "manifest.jsonl"),
                     "--output", str(corpus / "out.jsonl"), *extra])

    @staticmethod
    def errors(caplog) -> list[str]:
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    def test_zero_width_matrix_fails_its_utterance(self, corpus, caplog):
        (corpus / "u1.bin").write_bytes(_HEADER.pack(b"CTCL", 1, 0, 0, 4, 0))
        assert self.decode(corpus) == 3
        assert self.errors(caplog) == [
            "u1: InvalidValueError: log-prob matrix has zero vocabulary width"
        ]
        assert [r["id"] for r in read_rows(corpus / "out.jsonl")] == ["u2"]

    def test_transducer_score_too_large_for_a_float_fails_its_utterance(self, corpus, caplog):
        # a JSON integer float() cannot hold; finite_number turns its OverflowError into None
        align = corpus / "u1.align.jsonl"
        align.write_text(json.dumps({"word": "bee", "start_frame": 0, "end_frame": 2,
                                     "score": 10**400}) + "\n", encoding="utf-8")
        (corpus / "manifest.jsonl").write_text(
            json.dumps({"id": "u1", "logprobs": "u1.bin", "transducer_alignment": align.name})
            + "\n",
            encoding="utf-8",
        )
        assert self.decode(corpus, "--mode", "transducer") == 3
        assert self.errors(caplog) == [
            f"u1: FormatError: {align}:1: score must be a finite number"
        ]
        assert read_rows(corpus / "out.jsonl") == []

    def test_score_overflowing_to_inf_fails_its_utterance(self, corpus, caplog):
        # a bonus this large overflows every candidate score, and Infinity is
        # not JSON; u3 is all blank, has no candidate and keeps its row
        values = log_softmax_rows(np.log(np.array([[1e-9, 1e-9, 0.01, 0.99]] * 3)))
        write_logprobs(LogProbMatrix(values=values, normalized=True), str(corpus / "u3.bin"))
        with open(corpus / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "u3", "logprobs": "u3.bin"}) + "\n")

        def no_constant(name):
            raise AssertionError(f"non-JSON constant {name} in the output")

        assert self.decode(corpus, "--cb-w", "1e308") == 3
        errors = self.errors(caplog)
        assert [e.split(":")[0] for e in errors] == ["u1", "u2"]
        for error in errors:
            assert ": ValueError: Out of range float values are not JSON compliant" in error
        with open(corpus / "out.jsonl", encoding="utf-8") as fh:
            rows = [json.loads(line, parse_constant=no_constant) for line in fh]
        assert [r["id"] for r in rows] == ["u3"]

    def test_graph_cut_inside_its_header(self, corpus, caplog):
        graph = corpus / "ctx.graph"
        graph.write_bytes(graph.read_bytes()[:_G_HEADER.size - 1])
        assert self.decode(corpus) == 2
        assert self.errors(caplog) == [f"{graph}: truncated header"]
        assert not (corpus / "out.jsonl").exists()

    def test_empty_canonical_in_the_entry_table(self, corpus, caplog):
        graph = corpus / "ctx.graph"
        raw = graph.read_bytes()
        entry = struct.pack("<I", 2) + b"ab"
        assert raw.endswith(entry)
        graph.write_bytes(raw[:-len(entry)] + struct.pack("<I", 0))
        assert self.decode(corpus) == 2
        assert self.errors(caplog) == [f"{graph}: entry 0 is empty"]
        assert not (corpus / "out.jsonl").exists()

    def test_eval_warns_about_skipped_utterances(self, corpus, caplog, capsys):
        (corpus / "out.jsonl").write_text('{"id": "u1", "merged_text": "ab"}\n',
                                          encoding="utf-8")
        code = main(["eval", "--results", str(corpus / "out.jsonl"),
                     "--manifest", str(corpus / "manifest.jsonl"),
                     "--context-list", str(corpus / "ctx.txt")])
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipping 1 utterances without reference text or results"]
        assert json.loads(capsys.readouterr().out)["num_utterances"] == 1

    def test_eval_warns_about_results_with_no_manifest_row(self, corpus, caplog, capsys):
        (corpus / "out.jsonl").write_text(
            '{"id": "u1", "merged_text": "ab"}\n{"id": "u2", "merged_text": "a"}\n'
            '{"id": "not-in-manifest", "merged_text": "ab"}\n',
            encoding="utf-8",
        )
        code = main(["eval", "--results", str(corpus / "out.jsonl"),
                     "--manifest", str(corpus / "manifest.jsonl"),
                     "--context-list", str(corpus / "ctx.txt")])
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["skipping 1 results with no manifest row"]
        report = json.loads(capsys.readouterr().out)
        assert report["num_utterances"] == 2 and report["fscore"] == 1.0

    def test_mine_list_without_a_usable_utterance(self, corpus, caplog):
        # u1 has no reference text and u2's matrix is unreadable
        (corpus / "manifest.jsonl").write_text(
            json.dumps({"id": "u1", "logprobs": "u1.bin"}) + "\n"
            + json.dumps({"id": "u2", "logprobs": "u2.bin", "text": "a"}) + "\n",
            encoding="utf-8",
        )
        (corpus / "u2.bin").write_bytes(b"not a matrix at all")
        out = corpus / "mined.txt"
        code = main(["mine-list", *args_vocab(corpus),
                     "--manifest", str(corpus / "manifest.jsonl"), "--output", str(out)])
        assert code == 2
        assert self.errors(caplog) == [
            "u1: InvalidValueError: no reference text",
            f"u2: FormatError: {corpus / 'u2.bin'}: not a CTCL matrix file",
            "no utterance had both reference text and a readable matrix",
        ]
        assert not out.exists()


def test_blank_id_zero_runs_every_command(corpus, capsys, monkeypatch):
    # the fixture's corpus with the blank moved to line 0 of the vocabulary
    # and to column 0 of each matrix; the last line, the space, is no blank
    (corpus / "vocab.txt").write_text("<b>\na\nb\n \n", encoding="utf-8")
    for name in ("u1.bin", "u2.bin"):
        lp = load_logprobs(str(corpus / name))
        moved = LogProbMatrix(values=lp.values[:, [3, 0, 1, 2]], normalized=True)
        write_logprobs(moved, str(corpus / name))
    blank = ["--blank-id", "0"]
    manifest = ["--manifest", str(corpus / "manifest.jsonl")]
    graph = corpus / "blank0.graph"
    assert main(["build-graph", *args_vocab(corpus), *blank, "--output", str(graph),
                 "--context-list", str(corpus / "ctx.txt")]) == 0
    out = corpus / "out.jsonl"
    assert main(["decode", *args_vocab(corpus), *blank, *manifest, "--graph", str(graph),
                 "--output", str(out)]) == 0
    rows = read_rows(out)
    assert [r["greedy_text"] for r in rows] == ["bb", "a"]
    assert [r["merged_text"] for r in rows] == ["ab", "a"]
    mined = corpus / "mined.txt"
    monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 2)
    assert main(["mine-list", *args_vocab(corpus), *blank, *manifest,
                 "--output", str(mined)]) == 0
    assert mined.read_text().splitlines() == ["ab"]


def test_whitespace_run_in_a_context_list_line_reads_as_one_space(corpus, capsys):
    # columns: a, b, space, blank; greedy reads "ab a", and the phrase entry replaces both words
    rows = [[0.90, 0.03, 0.03, 0.04], [0.03, 0.90, 0.03, 0.04], [0.03, 0.03, 0.04, 0.90],
            [0.03, 0.03, 0.90, 0.04], [0.90, 0.03, 0.03, 0.04], [0.03, 0.03, 0.04, 0.90]]
    values = log_softmax_rows(np.log(np.array(rows)))
    write_logprobs(LogProbMatrix(values=values, normalized=True), str(corpus / "p.bin"))
    manifest = corpus / "p.jsonl"
    manifest.write_text(json.dumps({"id": "p", "logprobs": "p.bin", "text": "ab a"}) + "\n",
                        encoding="utf-8")
    for name, line in (("single", "ab a"), ("double", "ab  a")):
        (corpus / f"{name}.txt").write_text(line + "\n", encoding="utf-8")
        assert main(["build-graph", *args_vocab(corpus), "--context-list",
                     str(corpus / f"{name}.txt"), "--output", str(corpus / f"{name}.graph")]) == 0
    assert (corpus / "double.graph").read_bytes() == (corpus / "single.graph").read_bytes()
    out = corpus / "out.jsonl"
    assert main(["decode", *args_vocab(corpus), "--manifest", str(manifest),
                 "--graph", str(corpus / "double.graph"), "--output", str(out)]) == 0
    [row] = read_rows(out)
    assert [c["word"] for c in row["candidates"] if c["accepted"]] == ["ab a"]
    assert row["merged_text"] == "ab a"
    report = corpus / "report.json"
    assert main(["eval", "--results", str(out), "--manifest", str(manifest),
                 "--context-list", str(corpus / "double.txt"), "--output", str(report)]) == 0
    assert json.loads(report.read_text())["per_word"] == {"ab a": {"tp": 1, "fp": 0, "fn": 0}}


def test_upper_case_reference_text_scores_as_lowercase(corpus, monkeypatch):
    monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 1)
    manifest = corpus / "manifest.jsonl"
    upper = corpus / "upper.jsonl"
    with open(upper, "w", encoding="utf-8") as fh:
        for row in read_rows(manifest):
            fh.write(json.dumps({**row, "text": row["text"].upper()}) + "\n")
    out = corpus / "out.jsonl"
    assert main(["decode", *args_vocab(corpus), "--manifest", str(manifest), *args_graph(corpus),
                 "--output", str(out)]) == 0
    written = {}
    for name in ("manifest", "upper"):
        report, mined = corpus / f"{name}.report.json", corpus / f"{name}.mined.txt"
        assert main(["eval", "--results", str(out), "--manifest", str(corpus / f"{name}.jsonl"),
                     "--context-list", str(corpus / "ctx.txt"), "--output", str(report)]) == 0
        assert main(["mine-list", *args_vocab(corpus), "--manifest",
                     str(corpus / f"{name}.jsonl"), "--output", str(mined)]) == 0
        written[name] = (report.read_bytes(), mined.read_bytes())
    assert written["upper"] == written["manifest"]
    assert json.loads(written["upper"][0])["per_word"] == {"ab": {"tp": 1, "fp": 0, "fn": 0}}
    assert written["upper"][1] == b"ab\n"


class TestOutputReplacedOnlyWhenComplete:
    """A command failing while it writes leaves an earlier output as it was."""

    def test_gen_alts(self, tmp_path, monkeypatch):
        (tmp_path / "ctx.txt").write_text("gpu\nrtx\n", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        out.write_text("earlier\n", encoding="utf-8")
        written = []
        variants = cli.spelling_variants

        def fail_on_second_word(word, *rest):
            if written:
                raise OSError(28, "No space left on device")
            written.append(word)
            return variants(word, *rest)

        monkeypatch.setattr(cli, "spelling_variants", fail_on_second_word)
        code = main(["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
                     "--output", str(out)])
        assert code == 2
        assert written == ["gpu"]
        assert out.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ctx.txt", "expanded.txt"]

    def test_decode_sidecar(self, corpus, monkeypatch):
        meta = corpus / "out.jsonl.meta.json"
        meta.write_text("earlier\n", encoding="utf-8")
        before = sorted(p.name for p in corpus.iterdir())

        def fail(obj, fh, **kwargs):
            fh.write("{")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.json, "dump", fail)
        code = main(["decode", *args_vocab(corpus), "--manifest", str(corpus / "manifest.jsonl"),
                     *args_graph(corpus), "--output", str(corpus / "out.jsonl")])
        assert code == 2
        assert meta.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in corpus.iterdir()) == sorted(before + ["out.jsonl"])

    def test_build_graph(self, corpus, monkeypatch):
        graph = corpus / "ctx.graph"
        earlier = graph.read_bytes()
        before = sorted(p.name for p in corpus.iterdir())

        def fail_midway(graph, path, vocab):
            with open(path, "wb") as fh:
                fh.write(b"CTCG")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_graph", fail_midway)
        code = main(["build-graph", *args_vocab(corpus), "--context-list", str(corpus / "ctx.txt"),
                     "--output", str(graph)])
        assert code == 2
        assert graph.read_bytes() == earlier
        assert sorted(p.name for p in corpus.iterdir()) == before


def test_console_script_runs(corpus):
    out = corpus / "graph.bin"
    proc = subprocess.run(
        ["ctcspot", "build-graph", "--vocab", str(corpus / "vocab.txt"),
         "--context-list", str(corpus / "ctx.txt"), "--output", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "graph: 5 nodes" in proc.stdout
