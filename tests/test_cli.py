"""End-to-end command line runs against a tiny synthetic corpus."""

from __future__ import annotations

import json
import subprocess

import numpy as np
import pytest

from conftest import log_softmax_rows
from ctcspot import (
    BiasingEntry,
    LogProbMatrix,
    build_graph,
    load_vocabulary,
    save_graph,
    write_logprobs,
)
from ctcspot import cli
from ctcspot.cli import main
from ctcspot.graph import _G_HEADER


@pytest.fixture
def corpus(tmp_path):
    """Two utterances plus vocab/context files.

    u1's greedy decode reads "bb" while the biasing word "ab" fits the
    frames better; u2 is a clean "a" no candidate can displace.
    """
    (tmp_path / "vocab.txt").write_text("a\nb\n \n<b>\n", encoding="utf-8")
    (tmp_path / "ctx.txt").write_text("ab\n", encoding="utf-8")

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


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestBuildGraph:
    def test_writes_graph_and_stats(self, corpus, capsys):
        out = corpus / "graph.bin"
        code = main(
            ["build-graph", *args_vocab(corpus),
             "--context-list", str(corpus / "ctx.txt"), "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        # "ab" tokenizes two ways (ab, a b): root + 4 nodes, 2 transcriptions
        assert capsys.readouterr().out.strip() == (
            f"graph: 5 nodes, 1 entries, 2 transcriptions -> {out}"
        )

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


class TestDecode:
    def decode(self, corpus, out_name="out.jsonl", extra=()):
        out = corpus / out_name
        code = main(
            ["decode", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--context-list", str(corpus / "ctx.txt"),
             "--output", str(out), *extra]
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

    def test_prebuilt_graph_matches_in_memory_compile(self, corpus):
        graph = corpus / "graph.bin"
        main(["build-graph", *args_vocab(corpus),
              "--context-list", str(corpus / "ctx.txt"), "--output", str(graph)])
        _, from_list = self.decode(corpus, "a.jsonl")
        code = main(
            ["decode", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--graph", str(graph), "--output", str(corpus / "b.jsonl")]
        )
        assert code == 0
        assert (corpus / "b.jsonl").read_bytes() == from_list.read_bytes()

    def test_repeat_runs_are_byte_identical(self, corpus):
        _, first = self.decode(corpus, "r1.jsonl")
        _, second = self.decode(corpus, "r2.jsonl")
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_output(self, corpus):
        _, serial = self.decode(corpus, "w1.jsonl")
        code, parallel = self.decode(corpus, "w2.jsonl", extra=["--workers", "2"])
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()

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
             "--context-list", str(corpus / "ctx.txt"),
             "--output", str(out), "--mode", "transducer"]
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
             "--context-list", str(corpus / "ctx.txt"),
             "--output", str(out), "--mode", "transducer"]
        )
        assert code == 3
        assert read_rows(out) == []
        assert "u1: transducer word 'bee' ends at frame 4" in caplog.text

    def test_transducer_mode_without_alignment_is_partial(self, corpus):
        code, out = self.decode(corpus, extra=["--mode", "transducer"])
        assert code == 3
        assert read_rows(out) == []
        meta = json.loads((corpus / "out.jsonl.meta.json").read_text())
        assert meta["utterances"] == 0

    def test_graph_spelling_a_word_with_the_blank_is_a_data_error(self, corpus, caplog):
        # a file written without a blank (header -1) whose "ghost" is the
        # vocabulary's blank token <b> (id 3)
        vocab = load_vocabulary(str(corpus / "vocab.txt"))
        entries = [BiasingEntry(canonical=w, transcriptions=((t,),)) for w, t in
                   (("a", 0), ("ghost", 3))]
        ghost = corpus / "ghost.graph"
        save_graph(build_graph(entries, blank_id=2), str(ghost), vocab)
        raw = bytearray(ghost.read_bytes())
        _G_HEADER.pack_into(raw, 0, *_G_HEADER.unpack_from(raw)[:-1], -1)
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

    def test_unreadable_matrix_skips_row(self, corpus):
        (corpus / "u1.bin").write_bytes(b"not a matrix at all")
        code, out = self.decode(corpus)
        assert code == 3
        assert [r["id"] for r in read_rows(out)] == ["u2"]

    def test_bad_threshold_is_usage_error(self, corpus, capsys):
        code, _ = self.decode(corpus, extra=["--beam-thr", "-1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beam-thr", "nan", "beam_thr must not be NaN"),
            ("--gamma-thr", "nan", "gamma_thr must not be NaN"),
            ("--cb-w", "inf", "cb_w and ctc_w must be finite"),
        ],
    )
    def test_non_finite_config_is_usage_error(self, corpus, capsys, flag, value, message):
        code, out = self.decode(corpus, extra=[flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"ctcspot decode: error: {message}\n"
        assert not out.exists()

    def test_no_pruning_flag_accepted(self, corpus):
        code, out = self.decode(corpus, extra=["--no-pruning"])
        assert code == 0
        assert read_rows(out)[0]["merged_text"] == "ab"


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
              "--context-list", str(corpus / "ctx.txt"),
              "--output", str(corpus / "out.jsonl")])

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
        assert report["decode_seconds"] >= 0.0
        assert "wer 0.00" in capsys.readouterr().out

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
    def test_mines_misrecognized_terms(self, corpus, capsys):
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out), "--min-len", "2"]
        )
        # u1 greedy reads "bb" against reference "ab"; u2 is correct
        assert code == 0
        assert out.read_text().splitlines() == ["ab"]
        assert "mined 1 terms from 2 utterances" in capsys.readouterr().out

    def test_row_without_text_is_partial(self, corpus):
        extra = {"id": "u3", "logprobs": "u1.bin"}
        with open(corpus / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(extra) + "\n")
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out), "--min-len", "2"]
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

    def test_max_accuracy_zero(self, corpus):
        out = corpus / "mined.txt"
        code = main(
            ["mine-list", *args_vocab(corpus),
             "--manifest", str(corpus / "manifest.jsonl"),
             "--output", str(out), "--min-len", "1", "--max-acc", "0"]
        )
        assert code == 0
        assert "a" not in out.read_text().splitlines()  # "a" was recognized


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

    def test_no_auto_alts(self, tmp_path):
        (tmp_path / "ctx.txt").write_text("gpu\tjeepu\n", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        code = main(
            ["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
             "--output", str(out), "--no-auto-alts"]
        )
        assert code == 0
        assert out.read_text().splitlines() == ["gpu\tjeepu"]

    @pytest.mark.parametrize(
        "files, extra",
        [
            ({"ctx.txt": "gpu\ncloudbase\tklaudbase\n"}, []),
            # alternatives of a repeated row accumulate, as in build-graph
            ({"ctx.txt": "gpu\tgee pee you\ngpu\tgeepee\nrtx\ngpu\n"}, []),
            (
                {"ctx.txt": "gpu\ncloudbase\n", "alts.txt": "gpu\tjee pee you\ncloudbase\tg p u\n"},
                ["--manual-alts", "alts.txt"],
            ),
            (
                {"ctx.txt": "cloudbase\nhyperscale\ngpu\n",
                 "words.txt": "cloud\nbase\nhyper\nscale\n"},
                ["--wordlist", "words.txt"],
            ),
        ],
        ids=["plain", "repeated-canonical", "manual-alts", "wordlist"],
    )
    def test_output_feeds_back_into_build_graph(self, tmp_path, files, extra):
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
        assert main(["build-graph", *vocab, "--context-list", str(out), "--no-auto-alts",
                     "--output", str(tmp_path / "expanded.bin")]) == 0
        assert (tmp_path / "expanded.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()

    def test_repeated_rows_accumulate_alternatives(self, tmp_path):
        (tmp_path / "ctx.txt").write_text("gpu\tgee pee you\ngpu\tgeepee\n", encoding="utf-8")
        out = tmp_path / "expanded.txt"
        code = main(["gen-alts", "--context-list", str(tmp_path / "ctx.txt"),
                     "--output", str(out), "--no-auto-alts"])
        assert code == 0
        assert out.read_text().splitlines() == ["gpu\tgee pee you\tgeepee"]


class TestUsageErrors:
    def test_missing_required_argument(self, corpus):
        with pytest.raises(SystemExit) as exc:
            main(["build-graph", *args_vocab(corpus), "--output", "g.bin"])
        assert exc.value.code == 1

    def test_graph_and_context_list_are_exclusive(self, corpus):
        with pytest.raises(SystemExit) as exc:
            main(
                ["decode", *args_vocab(corpus),
                 "--manifest", str(corpus / "manifest.jsonl"),
                 "--graph", "g.bin", "--context-list", str(corpus / "ctx.txt"),
                 "--output", "o.jsonl"]
            )
        assert exc.value.code == 1

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


class TestBadTextInputs:
    """Every text input that is not UTF-8 is a data error naming the file."""

    @pytest.mark.parametrize(
        "name, command, code",
        [
            ("vocab.txt", "build-graph", 2),
            ("ctx.txt", "build-graph", 2),
            ("alts.txt", "build-graph", 2),
            ("words.txt", "build-graph", 2),
            ("manifest.jsonl", "decode", 2),
            # a bad per-utterance file fails that utterance only
            ("u1.align.jsonl", "decode", 3),
            ("out.jsonl", "eval", 2),
        ],
    )
    def test_not_utf8_is_a_data_error(self, corpus, caplog, name, command, code):
        (corpus / "alts.txt").write_text("ab\ta b\n", encoding="utf-8")
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
                            "--manual-alts", str(corpus / "alts.txt"),
                            "--wordlist", str(corpus / "words.txt"),
                            "--output", str(corpus / "g.bin")],
            "decode": ["decode", *args_vocab(corpus), *ctx, "--mode", "transducer",
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

    @pytest.mark.parametrize(
        "command, name, row, message",
        [
            ("eval", "out.jsonl", {"id": ["u1"], "merged_text": "ab"}, STRINGS),
            ("eval", "out.jsonl", {"id": "u1", "merged_text": 5}, STRINGS),
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
        ],
        ids=["eval-id", "eval-merged_text", "eval-text", "mine-list-logprobs",
             "decode-logprobs", "decode-transducer_alignment", "decode-empty-logprobs"],
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
            "decode": ["decode", *args_vocab(corpus), *ctx, *manifest, "--mode", "transducer",
                       "--output", str(corpus / "dec.jsonl")],
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
            argv += ["--context-list", str(corpus / "ctx.txt")]
        assert main(argv) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"u1: matrix has {width} columns, vocabulary has 4 tokens"]
        if command == "decode":
            assert [r["id"] for r in read_rows(out)] == ["u2"]
        else:
            assert out.read_text() == ""
            assert "from 1 utterances" in capsys.readouterr().out


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
                     "--context-list", str(corpus / "ctx.txt"),
                     "--output", str(corpus / "out.jsonl")])
        assert code == 2
        assert meta.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in corpus.iterdir()) == sorted(before + ["out.jsonl"])


def test_console_script_runs(corpus):
    out = corpus / "graph.bin"
    proc = subprocess.run(
        ["ctcspot", "build-graph", "--vocab", str(corpus / "vocab.txt"),
         "--context-list", str(corpus / "ctx.txt"), "--output", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "graph: 5 nodes" in proc.stdout
