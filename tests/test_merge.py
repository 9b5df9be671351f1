"""Candidate splicing into greedy and transducer transcripts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import char_vocab, log_softmax_rows, random_matrix
from ctcspot import (
    AlignedWord,
    DimensionMismatchError,
    LogProbMatrix,
    SpottedCandidate,
    SpotterConfig,
    WordAlignment,
    build_graph,
    decode_utterance,
    expand_entries,
    find_best_hyps,
    greedy_ctc_align,
    merge_ctc,
    merge_transducer,
    spot,
)


def word(text: str, start: int, end: int, score: float) -> AlignedWord:
    return AlignedWord(word=text, start_frame=start, end_frame=end, score=score)


def cand(text: str, start: int, end: int, score: float, entry_id: int = 0) -> SpottedCandidate:
    return SpottedCandidate(
        entry_id=entry_id, word=text, start_frame=start, end_frame=end, score=score
    )


def alignment(*words: AlignedWord, frames: int | None = None) -> WordAlignment:
    if frames is None:
        frames = max((w.end_frame for w in words), default=-1) + 1
    return WordAlignment(words=tuple(words), frames=frames)


def blanks(a: WordAlignment, score: float = -1.0) -> list[float]:
    """Weighted blank scores of one value on every frame of the alignment."""
    return [score] * a.frames


class TestMergeCtc:
    def test_no_candidates_keeps_greedy_text(self):
        a = alignment(word("hello", 0, 3, -1.0), word("world", 5, 8, -2.0))
        got = merge_ctc(a, [], blanks(a))
        assert got.text == "hello world"
        assert got.decisions == ()
        assert got.words == a.words

    def test_accepts_when_outscoring_overlap(self):
        a = alignment(word("cpu", 0, 3, -4.0))
        got = merge_ctc(a, [cand("gpu", 1, 3, -2.0)], blanks(a))
        assert got.text == "gpu"
        assert got.decisions[0].accepted is True
        assert got.decisions[0].greedy_score_sum == pytest.approx(-4.0)
        assert got.decisions[0].overlapped_words == a.words

    def test_rejects_on_tie(self):
        a = alignment(word("cpu", 0, 3, -2.0))
        got = merge_ctc(a, [cand("gpu", 0, 3, -2.0)], blanks(a))
        assert got.text == "cpu"
        assert got.decisions[0].accepted is False

    def test_multiple_overlapped_words_sum(self):
        a = alignment(word("g", 0, 1, -1.0), word("pu", 3, 5, -2.5))
        got = merge_ctc(a, [cand("gpu", 0, 5, -3.0)], blanks(a))
        assert got.decisions[0].greedy_score_sum == pytest.approx(-3.5)
        assert got.text == "gpu"

    def test_accepted_word_carries_candidate_score_and_interval(self):
        a = alignment(word("cpu", 0, 3, -4.0))
        got = merge_ctc(a, [cand("gpu", 1, 2, -2.0)], blanks(a))
        assert got.words == (word("gpu", 1, 2, -2.0),)

    def test_zero_overlap_uses_blank_mass(self):
        a = alignment(word("x", 0, 1, -1.0), frames=10)
        # interval [4, 6]: threshold = 3 * -0.1 = -0.3
        accepted = merge_ctc(a, [cand("gpu", 4, 6, -0.2)], blank_scores=blanks(a, -0.1))
        rejected = merge_ctc(a, [cand("gpu", 4, 6, -0.4)], blank_scores=blanks(a, -0.1))
        assert accepted.text == "x gpu"
        assert accepted.decisions[0].greedy_score_sum == pytest.approx(-0.3)
        assert rejected.text == "x"

    def test_empty_alignment_with_blank_scores(self):
        a = alignment(frames=4)
        got = merge_ctc(a, [cand("hi", 1, 2, -0.5)], blank_scores=[-1.0] * 4)
        assert got.text == "hi"

    def test_candidates_processed_left_to_right(self):
        # the first candidate removes "cpu"; the second then overlaps nothing
        # and is judged against blank mass
        a = alignment(word("cpu", 0, 5, -4.0), frames=10)
        c1 = cand("gpu", 0, 2, -1.0)
        c2 = cand("tpu", 4, 5, -1.5, entry_id=1)
        got = merge_ctc(a, [c2, c1], blank_scores=[-1.0] * 10)
        assert [d.candidate.word for d in got.decisions] == ["gpu", "tpu"]
        assert got.decisions[1].overlapped_words == ()
        assert got.decisions[1].greedy_score_sum == pytest.approx(-2.0)
        assert got.text == "gpu tpu"

    def test_result_words_sorted(self):
        a = alignment(word("a", 0, 1, -1.0), word("b", 8, 9, -1.0), frames=12)
        got = merge_ctc(a, [cand("mid", 4, 5, -0.1)], blank_scores=[-2.0] * 12)
        assert got.text == "a mid b"
        assert [w.start_frame for w in got.words] == [0, 4, 8]

    def test_remerge_of_accepted_output_changes_nothing(self):
        a = alignment(word("cpu", 0, 3, -4.0))
        first = merge_ctc(a, [cand("gpu", 0, 3, -2.0)], blanks(a))
        again = merge_ctc(
            WordAlignment(words=first.words, frames=4), [cand("gpu", 0, 3, -2.0)], blanks(a)
        )
        # the spliced word now carries the candidate's own score; an equal
        # re-offer no longer strictly outscores it
        assert again.decisions[0].accepted is False
        assert again.text == first.text

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_accept_iff_score_exceeds_threshold(self, seed):
        rng = np.random.default_rng(seed)
        frames = 30
        words = []
        t = 0
        while t < frames - 2 and len(words) < 5:
            if rng.random() < 0.6:
                end = min(frames - 1, t + int(rng.integers(0, 4)))
                words.append(word(f"w{len(words)}", t, end, float(rng.normal(-3, 2))))
                t = end + 2
            else:
                t += int(rng.integers(1, 4))
        a = alignment(*words, frames=frames)
        cands = []
        for i in range(int(rng.integers(1, 4))):
            s = int(rng.integers(0, frames))
            e = min(frames - 1, s + int(rng.integers(0, 6)))
            cands.append(cand(f"c{i}", s, e, float(rng.normal(-3, 3)), entry_id=i))
        blank_scores = rng.normal(-1.0, 0.5, size=frames).tolist()
        got = merge_ctc(a, cands, blank_scores=blank_scores)
        assert len(got.decisions) == len(cands)
        for d in got.decisions:
            assert d.accepted == (d.candidate.score > d.greedy_score_sum)
            if d.overlapped_words:
                assert d.greedy_score_sum == pytest.approx(
                    sum(w.score for w in d.overlapped_words)
                )
            else:
                s, e = d.candidate.start_frame, d.candidate.end_frame
                assert d.greedy_score_sum == pytest.approx(sum(blank_scores[s : e + 1]))
        # accepted candidates appear in the output with their own score
        out = {(w.word, w.start_frame, w.end_frame, w.score) for w in got.words}
        for d in got.decisions:
            if d.accepted:
                c = d.candidate
                assert (c.word, c.start_frame, c.end_frame, c.score) in out

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_disjoint_candidates_leave_disjoint_words(self, seed):
        rng = np.random.default_rng(seed)
        frames = 24
        words = [word("a", 2, 5, -2.0), word("b", 9, 12, -2.0), word("c", 16, 20, -2.0)]
        a = alignment(*words, frames=frames)
        cands = []
        t = 0
        for i in range(3):
            s = t + int(rng.integers(0, 3))
            e = min(frames - 1, s + int(rng.integers(0, 5)))
            if s >= frames:
                break
            cands.append(cand(f"c{i}", s, e, float(rng.normal(-2, 3)), entry_id=i))
            t = e + 2
        got = merge_ctc(a, cands, blank_scores=[-0.5] * frames)
        # must re-validate as a WordAlignment: sorted, non-overlapping
        WordAlignment(words=got.words, frames=frames)


def random_words(rng: np.random.Generator, frames: int, prefix: str) -> list[AlignedWord]:
    """Sorted, non-overlapping words with random gaps, lengths and scores."""
    words = []
    t = int(rng.integers(0, 3))
    while t < frames:
        end = min(frames - 1, t + int(rng.integers(0, 4)))
        words.append(word(f"{prefix}{len(words)}", t, end, float(rng.normal(-3, 2))))
        t = end + 1 + int(rng.integers(0, 3))
    return words


class TestMergeTransducer:
    @seed(4044)
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_decides_as_merge_ctc_and_splices_transducer_words(self, seed):
        rng = np.random.default_rng(seed)
        frames = 30
        ctc = alignment(*random_words(rng, frames, "g"), frames=frames)
        transducer = alignment(*random_words(rng, frames, "t"), frames=frames)
        cands = []
        for i in range(int(rng.integers(0, 5))):
            s = int(rng.integers(0, frames))
            e = min(frames - 1, s + int(rng.integers(0, 6)))
            cands.append(cand(f"c{i}", s, e, float(rng.normal(-3, 3)), entry_id=i))
        blank_scores = rng.normal(-1.0, 0.5, size=frames).tolist()
        got = merge_transducer(transducer, ctc, cands, blank_scores)
        assert got.decisions == merge_ctc(ctc, cands, blank_scores).decisions
        accepted = [d.candidate for d in got.decisions if d.accepted]
        expected = [
            w for w in transducer.words
            if not any(w.start_frame <= c.end_frame and c.start_frame <= w.end_frame
                       for c in accepted)
        ] + [word(c.word, c.start_frame, c.end_frame, c.score) for c in accepted]
        expected.sort(key=lambda w: (w.start_frame, w.end_frame))
        assert got.words == tuple(expected)
        assert got.text == " ".join(w.word for w in expected)

    def test_decisions_come_from_ctc_words(self):
        transducer = alignment(word("see", 0, 2, -50.0), word("pew", 4, 6, -50.0), frames=10)
        ctc = alignment(word("cpu", 0, 6, -4.0), frames=10)
        got = merge_transducer(transducer, ctc, [cand("gpu", 2, 5, -2.0)], blanks(ctc))
        assert got.decisions[0].accepted is True
        # threshold came from the ctc word, not the transducer scores
        assert got.decisions[0].greedy_score_sum == pytest.approx(-4.0)
        assert got.text == "gpu"

    def test_accepted_candidate_displaces_transducer_words_unconditionally(self):
        # transducer words score far above the candidate, but only the ctc
        # comparison decides; both touched words must go
        transducer = alignment(word("alpha", 0, 3, 100.0), word("beta", 5, 8, 100.0), frames=12)
        ctc = alignment(word("weak", 1, 7, -9.0), frames=12)
        got = merge_transducer(transducer, ctc, [cand("gpu", 3, 5, -1.0)], blanks(ctc))
        assert got.text == "gpu"

    def test_rejected_candidate_leaves_transducer_untouched(self):
        transducer = alignment(word("alpha", 0, 3, -50.0), frames=8)
        ctc = alignment(word("strong", 0, 3, 5.0), frames=8)
        got = merge_transducer(transducer, ctc, [cand("gpu", 1, 2, -1.0)], blanks(ctc))
        assert got.text == "alpha"
        assert got.decisions[0].accepted is False

    def test_untouched_transducer_words_survive(self):
        transducer = alignment(
            word("keep", 0, 1, -1.0), word("drop", 4, 6, -1.0), word("tail", 9, 9, -1.0),
            frames=12,
        )
        ctc = alignment(word("x", 4, 6, -9.0), frames=12)
        got = merge_transducer(transducer, ctc, [cand("gpu", 5, 6, -1.0)], blanks(ctc))
        assert got.text == "keep gpu tail"
        assert [w.score for w in got.words] == [-1.0, -1.0, -1.0]

    def test_no_candidates_returns_transducer_text(self):
        transducer = alignment(word("hello", 0, 2, -1.0), frames=5)
        ctc = alignment(word("jello", 0, 2, -1.0), frames=5)
        got = merge_transducer(transducer, ctc, [], blanks(ctc))
        assert got.text == "hello"

    @pytest.mark.parametrize("end", [4, 9])
    def test_word_past_the_ctc_matrix_is_rejected(self, end):
        ctc = alignment(word("cpu", 0, 3, -4.0), frames=4)
        trans = alignment(word("see", 0, 2, -1.0), word("pee", 3, end, -1.0))
        with pytest.raises(DimensionMismatchError):
            merge_transducer(trans, ctc, [cand("gpu", 1, 3, -2.0)], blanks(ctc))

    def test_word_on_the_last_frame_is_accepted(self):
        ctc = alignment(word("cpu", 0, 3, -4.0), frames=4)
        trans = alignment(word("see", 0, 3, -1.0))
        assert merge_transducer(trans, ctc, [cand("gpu", 1, 3, -2.0)], blanks(ctc)).text == "gpu"


class TestDecodeUtterance:
    """decode_utterance against the staged chain bench/worker.py's run_utterance
    times, so the two cannot drift apart."""

    @staticmethod
    def staged(lp, vocab, graph, cfg, transducer):
        best = find_best_hyps(spot(lp, graph, cfg))
        greedy = greedy_ctc_align(lp, vocab, ctc_w=cfg.ctc_w)
        blank_scores = cfg.ctc_w * lp.values[:, vocab.blank_id].astype(np.float64)
        if transducer is None:
            return greedy, merge_ctc(greedy, best, blank_scores)
        return greedy, merge_transducer(transducer, greedy, best, blank_scores)

    @staticmethod
    def space_led_matrix(blank: float) -> LogProbMatrix:
        """Space-led frames between blank-led ones: a candidate there overlaps
        no greedy word and is judged against the blank mass, which is -inf
        when the blank has probability zero."""
        blank_led = [0.1, 0.1, 0.05, 0.05, 0.05, 0.65]
        space_led = [0.2, 0.2, 0.05, 0.05, 0.5 - blank, blank]
        with np.errstate(divide="ignore"):
            values = np.log(np.array([blank_led] * 2 + [space_led] * 4 + [blank_led] * 2))
        return LogProbMatrix(values=log_softmax_rows(values), normalized=True)

    @pytest.mark.parametrize("mode", ["ctc", "transducer"])
    def test_equals_the_staged_chain(self, mode):
        vocab = char_vocab("abcd")
        graph = build_graph(expand_entries(["ab", "bad", "cab", "dc"], vocab),
                            blank_id=vocab.blank_id)
        rng = np.random.default_rng(2828)
        mats = [random_matrix(rng, int(rng.integers(5, 40)), vocab.size) for _ in range(20)]
        mats += [self.space_led_matrix(0.0), self.space_led_matrix(0.05)]
        accepted = rejected = blank_mass = minus_inf = 0
        for cb_w in (0.0, 1.0, 3.0):
            cfg = SpotterConfig(cb_w=cb_w)
            for lp in mats:
                transducer = None
                if mode == "transducer":
                    words = random_words(rng, lp.frames, "t")
                    transducer = alignment(*words, frames=lp.frames)
                got = decode_utterance(lp, vocab, graph, cfg, transducer)
                assert got == self.staged(lp, vocab, graph, cfg, transducer)
                decisions = got[1].decisions
                accepted += sum(d.accepted for d in decisions)
                rejected += sum(not d.accepted for d in decisions)
                blank_mass += sum(not d.overlapped_words and math.isfinite(d.greedy_score_sum)
                                  for d in decisions)
                minus_inf += sum(d.greedy_score_sum == -math.inf for d in decisions)
        assert accepted and rejected and blank_mass and minus_inf

    def test_default_config_is_spotter_config(self):
        vocab = char_vocab("abcd")
        graph = build_graph(expand_entries(["ab"], vocab), blank_id=vocab.blank_id)
        lp = random_matrix(np.random.default_rng(7), 20, vocab.size)
        assert decode_utterance(lp, vocab, graph) == decode_utterance(
            lp, vocab, graph, SpotterConfig())
