"""Greedy argmax alignment and transducer alignment ingestion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_vocab, one_hot_matrix, random_matrix
from ctcspot import (
    AlignedWord,
    DimensionMismatchError,
    FormatError,
    InvalidValueError,
    LogProbMatrix,
    OverlappingWordsError,
    Vocabulary,
    WordAlignment,
    greedy_ctc_align,
    load_transducer_alignment,
)
from oracle import reference_greedy_decode


def bpe_vocab() -> Vocabulary:
    return Vocabulary(tokens=("▁the", "▁g", "p", "u", "▁", "x", "<b>"), blank_id=6)


class TestGreedyAlign:
    def test_char_single_word(self):
        vocab = char_vocab("ab")  # a=0 b=1 space=2 blank=3
        lp = one_hot_matrix([0, 0, 3, 1], width=4)
        got = greedy_ctc_align(lp, vocab)
        assert got.frames == 4
        assert [(w.word, w.start_frame, w.end_frame) for w in got.words] == [("ab", 0, 3)]
        # runs a[0..1] and b[3..3]; emitted log-probs are all 0 here
        assert got.words[0].score == pytest.approx(0.0)

    def test_scores_sum_argmax_logprobs_over_run_frames(self):
        vocab = char_vocab("ab")
        rng = np.random.default_rng(3)
        lp = random_matrix(rng, 6, 4)
        got = greedy_ctc_align(lp, vocab, ctc_w=0.5)
        ids = np.argmax(lp.values, axis=1)
        for w in got.words:
            frames = [
                t
                for t in range(w.start_frame, w.end_frame + 1)
                if ids[t] != vocab.blank_id
            ]
            want = 0.5 * sum(float(lp.values[t, ids[t]]) for t in frames)
            assert w.score == pytest.approx(want, abs=1e-6)

    def test_repeated_frames_counted_per_frame(self):
        vocab = char_vocab("a")  # a=0 space=1 blank=2
        values = np.array(
            [[-0.1, -9.0, -8.0], [-0.2, -9.0, -8.0], [-0.3, -9.0, -8.0]], dtype=np.float32
        )
        from ctcspot import LogProbMatrix

        lp = LogProbMatrix(values=values)
        got = greedy_ctc_align(lp, vocab, ctc_w=1.0)
        assert got.words[0].word == "a"
        assert got.words[0].score == pytest.approx(-0.6, abs=1e-6)

    def test_ctc_w_scales_scores(self):
        vocab = char_vocab("ab")
        rng = np.random.default_rng(5)
        lp = random_matrix(rng, 8, 4)
        half = greedy_ctc_align(lp, vocab, ctc_w=0.5)
        full = greedy_ctc_align(lp, vocab, ctc_w=1.0)
        assert len(half.words) == len(full.words)
        for a, b in zip(half.words, full.words):
            assert a.score == pytest.approx(0.5 * b.score, abs=1e-6)

    @pytest.mark.parametrize("ctc_w", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_weight_the_config_rejects(self, ctc_w):
        # 0 * -inf would score a word NaN and a negative weight flips every sign
        lp = LogProbMatrix(values=np.array([[0.0, -np.inf, -np.inf, -np.inf]], dtype=np.float32))
        with pytest.raises(InvalidValueError, match=r"^ctc_w must be finite and > 0, got "):
            greedy_ctc_align(lp, char_vocab("ab"), ctc_w=ctc_w)

    def test_argmax_tie_takes_lowest_id(self):
        vocab = char_vocab("ab")
        values = np.log(np.full((1, 4), 0.25, dtype=np.float64)).astype(np.float32)
        from ctcspot import LogProbMatrix

        lp = LogProbMatrix(values=values, normalized=True)
        got = greedy_ctc_align(lp, vocab)
        assert got.text == "a"

    def test_space_token_splits_words(self):
        vocab = char_vocab("ab")
        lp = one_hot_matrix([0, 2, 1], width=4)
        got = greedy_ctc_align(lp, vocab)
        assert [(w.word, w.start_frame, w.end_frame) for w in got.words] == [
            ("a", 0, 0),
            ("b", 2, 2),
        ]

    def test_leading_and_double_spaces_yield_no_empty_words(self):
        vocab = char_vocab("ab")
        lp = one_hot_matrix([2, 0, 2, 2, 1, 2], width=4)
        got = greedy_ctc_align(lp, vocab)
        assert got.text == "a b"

    def test_marker_pieces_split_words(self):
        vocab = bpe_vocab()
        lp = one_hot_matrix([0, 6, 1, 2, 3], width=7)  # ▁the ∅ ▁g p u
        got = greedy_ctc_align(lp, vocab)
        assert [(w.word, w.start_frame, w.end_frame) for w in got.words] == [
            ("the", 0, 0),
            ("gpu", 2, 4),
        ]

    def test_lone_marker_piece_dropped(self):
        vocab = bpe_vocab()
        lp = one_hot_matrix([0, 4, 0], width=7)  # ▁the ▁ ▁the
        got = greedy_ctc_align(lp, vocab)
        assert got.text == "the the"
        assert [(w.start_frame, w.end_frame) for w in got.words] == [(0, 0), (2, 2)]

    def test_marker_piece_heads_its_word(self):
        vocab = bpe_vocab()
        lp = one_hot_matrix([0, 4, 5], width=7)  # ▁the ▁ x -> "the" + "x"
        got = greedy_ctc_align(lp, vocab)
        assert got.text == "the x"
        # the bare marker opens the second word, so its frame belongs to "x"
        assert (got.words[1].start_frame, got.words[1].end_frame) == (1, 2)

    def test_zero_frames(self):
        from ctcspot import LogProbMatrix

        lp = LogProbMatrix(values=np.zeros((0, 4), dtype=np.float32))
        got = greedy_ctc_align(lp, char_vocab("ab"))
        assert got.words == () and got.frames == 0

    def test_all_blank(self):
        vocab = char_vocab("ab")
        lp = one_hot_matrix([3, 3, 3], width=4)
        assert greedy_ctc_align(lp, vocab).words == ()

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            greedy_ctc_align(one_hot_matrix([0], width=3), char_vocab("ab"))

    @given(seed=st.integers(0, 2**31 - 1), bpe=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_scores_equal_per_run_sums_exactly(self, seed, bpe):
        vocab = bpe_vocab() if bpe else char_vocab("abcde")  # both have 7 tokens
        rng = np.random.default_rng(seed)
        # 1-10 runs of random tokens, about half shorter than 8 frames, which
        # numpy sums in order, and the rest 8-300 frames, which it sums
        # pairwise; at least one run is long
        n = int(rng.integers(1, 11))
        lengths = np.where(rng.random(n) < 0.5, rng.integers(1, 8, n), rng.integers(8, 301, n))
        lengths[rng.integers(n)] = rng.integers(8, 301)
        ids = np.repeat(rng.integers(0, vocab.size, n), lengths)
        # argmax log-probs spread over ten orders of magnitude, so their
        # float64 sums round and the order of the additions shows
        values = np.full((len(ids), vocab.size), -60.0, dtype=np.float32)
        values[np.arange(len(ids)), ids] = -np.exp(rng.uniform(-25.0, 1.0, len(ids)))
        lp = LogProbMatrix(values=values)
        ctc_w = 0.7
        got = greedy_ctc_align(lp, vocab, ctc_w=ctc_w)

        # the per-run rule, one Python loop over the frames: a word scores
        # ctc_w times the sum, in run order, of top_lp[a:b].sum() over its runs
        top_lp = lp.values[np.arange(len(ids)), ids].astype(np.float64)
        runs = []
        a = 0
        for b in range(1, len(ids) + 1):
            if b == len(ids) or ids[b] != ids[a]:
                if ids[a] != vocab.blank_id:
                    runs.append((a, b - 1, float(top_lp[a:b].sum())))
                a = b
        for w in got.words:
            inside = [r[2] for r in runs if w.start_frame <= r[0] and r[1] <= w.end_frame]
            assert w.score == ctc_w * sum(inside)

    @given(seed=st.integers(0, 2**31 - 1), bpe=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_text_matches_reference_decoder(self, seed, bpe):
        rng = np.random.default_rng(seed)
        if bpe:
            vocab = bpe_vocab()
        else:
            vocab = char_vocab("abc")
        frames = int(rng.integers(0, 16))
        lp = random_matrix(rng, frames, vocab.size)
        got = greedy_ctc_align(lp, vocab)
        _, want_text = reference_greedy_decode(lp, vocab)
        assert got.text == want_text


class TestWordAlignment:
    def test_text_joins_words(self):
        wa = WordAlignment(
            words=(
                AlignedWord(word="a", start_frame=0, end_frame=1, score=0.0),
                AlignedWord(word="b", start_frame=3, end_frame=3, score=0.0),
            ),
            frames=5,
        )
        assert wa.text == "a b"

    def test_rejects_empty_word(self):
        with pytest.raises(InvalidValueError):
            WordAlignment(
                words=(AlignedWord(word="", start_frame=0, end_frame=0, score=0.0),), frames=1
            )

    def test_rejects_out_of_range_interval(self):
        with pytest.raises(InvalidValueError):
            WordAlignment(
                words=(AlignedWord(word="a", start_frame=0, end_frame=5, score=0.0),), frames=3
            )

    def test_rejects_overlap(self):
        words = (
            AlignedWord(word="a", start_frame=0, end_frame=2, score=0.0),
            AlignedWord(word="b", start_frame=2, end_frame=3, score=0.0),
        )
        with pytest.raises(OverlappingWordsError):
            WordAlignment(words=words, frames=5)

    def test_rejects_unsorted(self):
        words = (
            AlignedWord(word="b", start_frame=4, end_frame=5, score=0.0),
            AlignedWord(word="a", start_frame=0, end_frame=1, score=0.0),
        )
        with pytest.raises(OverlappingWordsError):
            WordAlignment(words=words, frames=6)


class TestLoadTransducerAlignment:
    def write(self, tmp_path, lines):
        path = tmp_path / "align.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_basic(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"word": "hello", "start_frame": 0, "end_frame": 4, "score": -1.5}',
                "",
                '{"word": "world", "start_frame": 6, "end_frame": 9}',
            ],
        )
        got = load_transducer_alignment(path)
        assert got.frames == 10
        assert got.words[0] == AlignedWord(word="hello", start_frame=0, end_frame=4, score=-1.5)
        assert got.words[1].score == -math.inf

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("", encoding="utf-8")
        got = load_transducer_alignment(str(path))
        assert got.words == () and got.frames == 0

    def test_bad_json(self, tmp_path):
        with pytest.raises(FormatError):
            load_transducer_alignment(self.write(tmp_path, ["{nope"]))

    def test_missing_key(self, tmp_path):
        with pytest.raises(FormatError):
            load_transducer_alignment(self.write(tmp_path, ['{"word": "x", "start_frame": 0}']))

    @pytest.mark.parametrize(
        "fields",
        [
            '"start_frame": "a", "end_frame": 2',
            '"start_frame": 0.9, "end_frame": 2',
            '"start_frame": 0, "end_frame": 2.7',
            '"start_frame": "1", "end_frame": 2',
            '"start_frame": true, "end_frame": 2',
            '"start_frame": 0, "end_frame": 2, "score": "nan"',
            '"start_frame": 0, "end_frame": 2, "score": NaN',
            '"start_frame": 0, "end_frame": 2, "score": Infinity',
            '"start_frame": 0, "end_frame": 2, "score": true',
            '"start_frame": 0, "end_frame": 2, "score": "high"',
            '"start_frame": 0, "end_frame": 2, "score": [1]',
        ],
        ids=["frame-a", "frame-0.9", "frame-2.7", "frame-string", "frame-true", "score-nan-string",
             "score-NaN", "score-Infinity", "score-true", "score-high", "score-list"],
    )
    def test_bad_field_type_is_format_error(self, tmp_path, fields):
        with pytest.raises(FormatError, match="align.jsonl:1: "):
            load_transducer_alignment(self.write(tmp_path, ['{"word": "x", ' + fields + "}"]))

    def test_empty_word(self, tmp_path):
        with pytest.raises(InvalidValueError):
            load_transducer_alignment(
                self.write(tmp_path, ['{"word": "", "start_frame": 0, "end_frame": 2}'])
            )

    def test_overlapping_rows(self, tmp_path):
        rows = [
            '{"word": "a", "start_frame": 0, "end_frame": 3}',
            '{"word": "b", "start_frame": 2, "end_frame": 5}',
        ]
        with pytest.raises(OverlappingWordsError):
            load_transducer_alignment(self.write(tmp_path, rows))
