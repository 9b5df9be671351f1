"""Behavioral gate for the whole pipeline: ten checks, one printed line each.

Every test prints ``PASS: criterion N: <name>`` (or FAIL) on the real stdout so
a log scrape can track the gates individually; the assertions inside carry the
actual tolerances. Numeric expectations are either computed on the spot via the
enumeration oracle or derived from closed-form fixture constants.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    EXHAUSTIVE,
    char_vocab,
    log_softmax_rows,
    one_hot_matrix,
    random_matrix,
    search_bounds,
)
from ctcspot import (
    BiasingEntry,
    LogProbMatrix,
    SpotterConfig,
    Vocabulary,
    build_graph,
    decode_utterance,
    evaluate,
    expand_entries,
    find_best_hyps,
    fscore,
    greedy_ctc_align,
    spot,
    write_logprobs,
)
from ctcspot.cli import main as cli_main
from ctcspot.metrics import align_words
from oracle import best_path_score, levenshtein_distance, reference_greedy_decode


@pytest.fixture
def criterion(capsys):
    """Context manager that prints one PASS/FAIL line around a check."""

    @contextmanager
    def gate(num: int, name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL: criterion {num}: {name}", flush=True)
            raise
        else:
            with capsys.disabled():
                print(f"PASS: criterion {num}: {name}", flush=True)

    return gate


def _random_entries(rng, width, max_entries):
    """Entries with distinct single transcriptions over tokens 1..width-1."""
    seen, entries = set(), []
    for i in range(int(rng.integers(1, max_entries + 1))):
        n = int(rng.integers(1, 4))
        seq = tuple(int(rng.integers(1, width)) for _ in range(n))
        if seq in seen:
            continue
        seen.add(seq)
        entries.append(BiasingEntry(canonical=f"w{i}", transcriptions=(seq,)))
    if not entries:
        entries = [BiasingEntry(canonical="w0", transcriptions=((1,),))]
    return entries


def test_criterion_01_exhaustive_search_matches_path_oracle(criterion):
    with criterion(1, "exhaustive spotting equals the path-enumeration oracle"):
        rng = np.random.default_rng(20250817)
        t0 = time.perf_counter()
        for _ in range(1000):
            frames = int(rng.integers(1, 7))
            width = int(rng.integers(2, 5))
            lp = random_matrix(rng, frames, width)
            cb_w = float(rng.choice([0.0, 1.5, 3.0]))
            entries = _random_entries(rng, width, 3)
            graph = build_graph(entries, blank_id=0)
            with search_bounds(**EXHAUSTIVE):
                got = {
                    (c.entry_id, c.start_frame, c.end_frame): c.score
                    for c in spot(lp, graph, SpotterConfig(cb_w=cb_w))
                }
            expect = {}
            for eid, ent in enumerate(entries):
                labels = ent.transcriptions[0]
                for s in range(frames):
                    for e in range(s, frames):
                        sc = best_path_score(lp, (s, e), labels, cb_w, blank_id=0)
                        if sc is not None:
                            expect[(eid, s, e)] = sc
            assert set(got) == set(expect)
            for key, want in expect.items():
                assert got[key] == pytest.approx(want, abs=1e-6)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_pruning_is_lossless_on_peaked_frames(criterion):
    # One-hot frames with non-blank run length 1 and distinct-token entries:
    # no surviving path can fall more than 7.0 below the per-frame best, so
    # the pruned search must return bit-identical results.
    with criterion(2, "pruned and exhaustive searches agree on one-hot matrices"):
        rng = np.random.default_rng(77)
        pruned_cfg = SpotterConfig()
        for _ in range(300):
            width = int(rng.integers(3, 6))
            frames = int(rng.integers(4, 13))
            hot = []
            for _t in range(frames):
                prev = hot[-1] if hot else 0
                if rng.random() < 0.45:
                    hot.append(0)
                else:
                    hot.append(int(rng.choice([x for x in range(1, width) if x != prev])))
            lp = one_hot_matrix(hot, width)
            seen, entries = set(), []
            for i in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, min(4, width)))
                seq = tuple(
                    int(x) for x in rng.choice(np.arange(1, width), size=n, replace=False)
                )
                if seq in seen:
                    continue
                seen.add(seq)
                entries.append(BiasingEntry(canonical=f"w{i}", transcriptions=(seq,)))
            if not entries:
                entries = [BiasingEntry(canonical="w0", transcriptions=((1,),))]
            graph = build_graph(entries, blank_id=0)
            fast = spot(lp, graph, pruned_cfg)
            with search_bounds(**EXHAUSTIVE):
                full = spot(lp, graph, pruned_cfg)
            assert fast == full
            assert find_best_hyps(fast) == find_best_hyps(full)


def test_criterion_03_greedy_alignment_matches_reference_decoder(criterion):
    with criterion(3, "greedy alignment text equals the reference decoder"):
        rng = np.random.default_rng(4242)
        bpe = Vocabulary(tokens=("▁the", "▁g", "p", "u", "▁", "x", "<b>"), blank_id=6)
        chars = char_vocab("abc")
        for k in range(1000):
            vocab = bpe if k % 2 else chars
            frames = int(rng.integers(0, 21))
            lp = random_matrix(rng, frames, vocab.size)
            assert greedy_ctc_align(lp, vocab).text == reference_greedy_decode(lp, vocab)[1]


# ---- fixtures for the accept/reject criteria ----


def _gpu_fixture():
    """Utterance whose greedy decode splits "gpu" into three pieces.

    Frame layout (pairs of frames): silence, "▁the", silence, "▁g", gap,
    "▁p" over "p", gap, "▁u" over "u", then trailing silence.
    """
    vocab = Vocabulary(tokens=("▁g", "p", "u", "▁p", "▁u", "▁the", "<b>"), blank_id=6)

    def row(spec):
        probs = [0.0] * 7
        for tok, p in spec.items():
            probs[tok] = p
        free = [i for i in range(7) if i not in spec]
        rest = 1.0 - sum(probs)
        for i in free:
            probs[i] = rest / len(free)
        return probs

    rows = []
    rows += [row({6: 0.97})] * 2
    rows += [row({5: 0.9, 6: 0.07})] * 2
    rows += [row({6: 0.97})] * 2
    rows += [row({0: 0.6, 6: 0.35})] * 2
    rows += [row({6: 0.85})] * 2
    rows += [row({3: 0.5, 1: 0.3, 6: 0.15})] * 2
    rows += [row({6: 0.85})] * 2
    rows += [row({4: 0.5, 2: 0.3, 6: 0.15})] * 2
    rows += [row({6: 0.97})] * 4
    values = log_softmax_rows(np.log(np.array(rows)))
    return vocab, LogProbMatrix(values=values, normalized=True)


def test_criterion_04_word_bonus_recovers_a_split_word(criterion):
    with criterion(4, "the word bonus recovers a word the greedy decode splits"):
        vocab, lp = _gpu_fixture()
        entries = expand_entries(["gpu"], vocab)
        assert entries[0].transcriptions == ((0, 1, 2), (0, 3, 4))
        graph = build_graph(entries, blank_id=vocab.blank_id)

        cfg = SpotterConfig()
        greedy, biased = decode_utterance(lp, vocab, graph, cfg)
        assert greedy.text == "the g p u"
        assert biased.text == "the gpu"
        accepted = [d for d in biased.decisions if d.accepted]
        assert len(accepted) == 1
        cand = accepted[0].candidate
        assert (cand.word, cand.start_frame, cand.end_frame) == ("gpu", 6, 15)
        oracle = max(
            s
            for s in (
                best_path_score(lp, (6, 15), labels, cfg.cb_w, vocab.blank_id)
                for labels in entries[0].transcriptions
            )
            if s is not None
        )
        assert cand.score == pytest.approx(oracle, abs=1e-6)

        # Without the per-token bonus the same candidate loses to the greedy
        # words it overlaps and nothing may change.
        _, unbiased = decode_utterance(lp, vocab, graph, SpotterConfig(cb_w=0.0))
        assert unbiased.text == "the g p u"
        assert not any(d.accepted for d in unbiased.decisions)


def _cuda_fixture():
    """Clean "cloud" utterance where "cuda" fits badly but is still scored."""
    vocab = char_vocab("clouda")
    c, l, o, u, d, a, blank = 0, 1, 2, 3, 4, 5, 7

    def row(spec):
        probs = [1e-9] * 8
        for tok, p in spec.items():
            probs[tok] = p
        return probs

    rows = []
    rows += [row({c: 0.9, blank: 0.0999})] * 2
    rows += [row({l: 0.94, blank: 0.05})] * 2
    rows += [row({o: 0.94, blank: 0.05})] * 2
    rows += [row({u: 0.9, blank: 0.0999})] * 2
    rows += [row({d: 0.9, blank: 0.0999})] * 2
    rows += [row({a: 1e-5, blank: 0.99999})]
    rows += [row({blank: 0.9999})]
    values = log_softmax_rows(np.log(np.array(rows)))
    return vocab, LogProbMatrix(values=values, normalized=True)


def test_criterion_05_poorly_fitting_candidate_is_rejected(criterion):
    with criterion(5, "a candidate that fits worse than the greedy words is rejected"):
        vocab, lp = _cuda_fixture()
        entries = expand_entries(["cuda"], vocab)
        graph = build_graph(entries, blank_id=vocab.blank_id)
        cfg = SpotterConfig()
        greedy, result = decode_utterance(lp, vocab, graph, cfg)
        assert greedy.text == "cloud"
        assert result.text == "cloud"
        rejected = [d for d in result.decisions if d.candidate.word == "cuda"]
        assert rejected, "the candidate must at least be scored against the transcript"
        decision = rejected[0]
        assert decision.accepted is False
        assert decision.greedy_score_sum == pytest.approx(greedy.words[0].score)
        cand = decision.candidate
        assert (cand.start_frame, cand.end_frame) == (0, 10)
        assert cand.score < decision.greedy_score_sum
        oracle = max(
            s
            for s in (
                best_path_score(lp, (0, 10), labels, cfg.cb_w, vocab.blank_id)
                for labels in entries[0].transcriptions
            )
            if s is not None
        )
        assert cand.score == pytest.approx(oracle, abs=1e-6)


def test_criterion_06_scoring_primitives_are_consistent(criterion):
    with criterion(6, "word alignments are minimal and the f-score is harmonic"):
        assert abs(fscore(0.89, 0.85) - 0.87) < 5e-3
        rng = np.random.default_rng(99)
        lexicon = ["a", "b", "c", "gpu", "cloud"]
        for _ in range(500):
            ref = [lexicon[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(0, 9)))]
            hyp = [lexicon[int(i)] for i in rng.integers(0, 5, size=int(rng.integers(0, 9)))]
            ops = align_words(ref, hyp)
            assert sum(1 for op in ops if op.kind != "match") == levenshtein_distance(ref, hyp)
            assert [op.ref for op in ops if op.ref is not None] == ref
            assert [op.hyp for op in ops if op.hyp is not None] == hyp


# ---- bonus sweep corpus ----
#
# 20 synthetic utterances over the vocabulary g/p/u/a/space/blank built so that
# every accept/reject decision flips at a known bonus value, with comfortable
# margins at the integer sweep points:
#   8 anchors        ref "gpu",   flip near cb_w=0.05 (kept at 1..5)
#   3 recall utts    ref "a gpu", flips at 0.70 / 1.57 / 2.29
#   2 precision utts ref "gau",   flips at 3.35 / 4.35 (false accepts)
#   7 fillers        no biasing content at all


def _sweep_matrix(emissions):
    rows = []
    for t in range(9):
        probs = [1e-12] * 6
        for tok, p in emissions.get(t, {}).items():
            probs[tok] = p
        probs[5] = 1.0 - sum(probs[:5])
        rows.append(probs)
    return LogProbMatrix(values=log_softmax_rows(np.log(np.array(rows))), normalized=True)


def _sweep_corpus():
    g, p, u, a, sp = 0, 1, 2, 3, 4
    corpus = []
    anchor = _sweep_matrix({1: {g: 0.9}, 3: {p: 0.9}, 5: {u: 0.9}})
    for i in range(8):
        corpus.append((f"anchor{i}", "gpu", anchor))
    for name, peak in (("easy", 0.45), ("mid", 0.2), ("hard", 0.1)):
        corpus.append((f"recall_{name}", "a gpu", _sweep_matrix({
            0: {a: 0.9},
            2: {g: peak}, 3: {a: peak}, 4: {p: peak}, 5: {a: peak}, 6: {u: peak},
        })))
    for name, rho in (("near", math.exp(-10)), ("far", math.exp(-13))):
        corpus.append((f"precision_{name}", "gau", _sweep_matrix({
            0: {g: 0.9}, 2: {a: 0.9, p: rho}, 4: {u: 0.9},
        })))
    fillers = [
        ("a", {1: {a: 0.9}}),
        ("u", {2: {u: 0.9}}),
        ("ua", {1: {u: 0.9}, 3: {a: 0.9}}),
        ("au", {1: {a: 0.9}, 2: {u: 0.9}}),
        ("a u", {1: {a: 0.9}, 3: {sp: 0.9}, 5: {u: 0.9}}),
        ("u a", {1: {u: 0.9}, 2: {sp: 0.9}, 4: {a: 0.9}}),
        ("aua", {1: {a: 0.9}, 3: {u: 0.9}, 5: {a: 0.9}}),
    ]
    for i, (ref, spec) in enumerate(fillers):
        corpus.append((f"filler{i}", ref, _sweep_matrix(spec)))
    return corpus


def test_criterion_07_bonus_sweep_trades_precision_for_recall(criterion):
    with criterion(7, "raising the bonus lifts recall and lowers precision monotonically"):
        vocab = Vocabulary(tokens=("g", "p", "u", "a", " ", "<b>"), blank_id=5)
        graph = build_graph(
            [BiasingEntry(canonical="gpu", transcriptions=((0, 1, 2),))],
            blank_id=vocab.blank_id,
        )
        corpus = _sweep_corpus()
        baseline_sets = None
        accepted_counts, tps, fps, fns, precisions, recalls, wers = [], [], [], [], [], [], []
        for c in range(6):
            cfg = SpotterConfig(cb_w=float(c))
            pairs, accepted, resolved = [], 0, {}
            for utt_id, ref, lp in corpus:
                with search_bounds(**EXHAUSTIVE):
                    _, result = decode_utterance(lp, vocab, graph, cfg)
                resolved[utt_id] = {
                    (d.candidate.word, d.candidate.start_frame, d.candidate.end_frame)
                    for d in result.decisions
                }
                for d in result.decisions:
                    if math.isfinite(d.greedy_score_sum):
                        # every decision must be far from its flip point
                        assert abs(d.candidate.score - d.greedy_score_sum) > 1e-6
                accepted += sum(d.accepted for d in result.decisions)
                pairs.append((ref, result.text))
            if baseline_sets is None:
                baseline_sets = resolved
            else:
                assert resolved == baseline_sets
            report = evaluate(pairs, ["gpu"])
            row = report.per_word["gpu"]
            accepted_counts.append(accepted)
            tps.append(row["tp"])
            fps.append(row["fp"])
            fns.append(row["fn"])
            precisions.append(report.precision)
            recalls.append(report.recall)
            wers.append(report.wer)
        assert accepted_counts == [0, 9, 10, 11, 12, 13]
        assert tps == [8, 9, 10, 11, 11, 11]
        assert fps == [0, 0, 0, 0, 1, 2]
        assert fns == [3, 2, 1, 0, 0, 0]
        assert all(x >= y for x, y in zip(precisions, precisions[1:]))
        assert all(x <= y for x, y in zip(recalls, recalls[1:]))
        assert precisions == pytest.approx([1.0, 1.0, 1.0, 1.0, 11 / 12, 11 / 13])
        assert recalls == pytest.approx([8 / 11, 9 / 11, 10 / 11, 1.0, 1.0, 1.0])
        assert wers == pytest.approx([12.0, 8.0, 4.0, 0.0, 4.0, 8.0])


def test_criterion_08_search_time_grows_sublinearly_with_list_size(criterion):
    with criterion(8, "10x more biasing entries costs at most 4x search time"):
        rng = np.random.default_rng(5150)
        letters = "abcdefghijklmnopqrstuvwxyz"
        seen, entries = set(), []
        while len(entries) < 1000:
            n = int(rng.integers(3, 9))
            word = "".join(letters[int(i)] for i in rng.integers(0, 26, size=n))
            seq = tuple(letters.index(ch) for ch in word)
            if seq in seen:
                continue
            seen.add(seq)
            entries.append(BiasingEntry(canonical=word, transcriptions=(seq,)))
        small = build_graph(entries[:100], blank_id=27)
        large = build_graph(entries, blank_id=27)
        mats = [random_matrix(rng, 200, 28) for _ in range(10)]
        cfg = SpotterConfig()

        def batch(graph):
            t0 = time.perf_counter()
            for lp in mats:
                spot(lp, graph, cfg)
            return time.perf_counter() - t0

        # the two lists take turns, so a slow spell of the machine hits both
        t_small = t_large = math.inf
        for _ in range(3):
            t_small = min(t_small, batch(small))
            t_large = min(t_large, batch(large))
        assert t_large <= 4.0 * t_small + 0.005


def test_criterion_09_long_utterance_stays_under_latency_budget(criterion):
    with criterion(9, "a 1000-frame, 1024-token decode finishes within 100 ms"):
        rng = np.random.default_rng(31337)
        width, frames, blank = 1024, 1000, 1023
        values = np.full((frames, width), math.log(0.1 / (width - 1)), dtype=np.float32)
        values[:, blank] = math.log(0.9)
        seen, entries = set(), []
        while len(entries) < 100:
            n = int(rng.integers(2, 5))
            seq = tuple(int(x) for x in rng.choice(np.arange(width - 1), size=n, replace=False))
            if seq in seen:
                continue
            seen.add(seq)
            entries.append(BiasingEntry(canonical=f"w{len(entries)}", transcriptions=(seq,)))
        planted = []
        for k in range(10):
            seq = entries[k].transcriptions[0]
            start = 50 + 90 * k
            planted.append((f"w{k}", start, start + len(seq) - 1))
            for off, tok in enumerate(seq):
                values[start + off, :] = math.log(0.2 / (width - 1))
                values[start + off, tok] = math.log(0.5)
                values[start + off, blank] = math.log(0.3)
            # low-blank tail right after each region so finished hypotheses
            # die off quickly instead of lingering into the next region
            for t in range(start + len(seq), start + len(seq) + 8):
                values[t, :] = math.log(0.9 / (width - 1))
                values[t, blank] = math.log(0.1)
        lp = LogProbMatrix(values=values)
        vocab = Vocabulary(
            tokens=tuple(f"t{i}" for i in range(width - 1)) + ("<b>",), blank_id=blank
        )
        graph = build_graph(entries, blank_id=blank)
        cfg = SpotterConfig()
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _, result = decode_utterance(lp, vocab, graph, cfg)
            best = min(best, time.perf_counter() - t0)
        winners = [d.candidate for d in result.decisions]
        assert {(w.word, w.start_frame, w.end_frame) for w in winners} == set(planted)
        assert [w.word for w in result.words] == [f"w{k}" for k in range(10)]
        assert best < 0.100


def test_criterion_10_batch_decode_is_deterministic(criterion, tmp_path):
    with criterion(10, "batch decode output is byte-identical across runs and workers"):
        rng = np.random.default_rng(60601)
        letters = "abcdefghij"
        (tmp_path / "vocab.txt").write_text("\n".join(letters) + "\n \n<b>\n", encoding="utf-8")
        (tmp_path / "ctx.txt").write_text("face\nbead\njig\ndecaf\ngig\n", encoding="utf-8")
        with open(tmp_path / "manifest.jsonl", "w", encoding="utf-8") as fh:
            for i in range(50):
                name = f"u{i:02d}.bin"
                write_logprobs(random_matrix(rng, 30, 12), str(tmp_path / name))
                fh.write(json.dumps({"id": f"u{i:02d}", "logprobs": name}) + "\n")

        assert cli_main([
            "build-graph",
            "--vocab", str(tmp_path / "vocab.txt"),
            "--context-list", str(tmp_path / "ctx.txt"),
            "--output", str(tmp_path / "ctx.graph"),
        ]) == 0

        def run(out_name, workers):
            code = cli_main([
                "decode",
                "--vocab", str(tmp_path / "vocab.txt"),
                "--manifest", str(tmp_path / "manifest.jsonl"),
                "--graph", str(tmp_path / "ctx.graph"),
                "--output", str(tmp_path / out_name),
                "--workers", str(workers),
            ])
            assert code == 0
            return (tmp_path / out_name).read_bytes()

        first = run("r1.jsonl", 1)
        assert len(first.splitlines()) == 50
        assert run("r2.jsonl", 1) == first
        assert run("w4.jsonl", 4) == first
        assert run("w8.jsonl", 8) == first
        assert (tmp_path / "r1.jsonl.meta.json").exists()
