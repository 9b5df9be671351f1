"""Word alignment, WER, biasing precision/recall, and list mining."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcspot import (
    EditOp,
    align_words,
    edit_distance,
    evaluate,
    fscore,
    fuse_phrases,
    mine_biasing_list,
    score_context_words,
    wer,
)
from ctcspot import metrics
from oracle import levenshtein_distance

words_strategy = st.lists(st.sampled_from(["a", "b", "c", "gpu"]), max_size=8)


class TestAlignWords:
    @given(ref=words_strategy, hyp=words_strategy)
    @settings(max_examples=300, deadline=None)
    def test_alignment_is_minimal_and_projects_back(self, ref, hyp):
        ops = align_words(ref, hyp)
        assert sum(1 for op in ops if op.kind != "match") == levenshtein_distance(ref, hyp)
        assert [op.ref for op in ops if op.ref is not None] == ref
        assert [op.hyp for op in ops if op.hyp is not None] == hyp
        for op in ops:
            if op.kind == "match":
                assert op.ref == op.hyp
            elif op.kind == "sub":
                assert op.ref != op.hyp and op.hyp is not None
            elif op.kind == "del":
                assert op.hyp is None and op.ref is not None
            else:
                assert op.ref is None and op.hyp is not None

    def test_prefers_match_over_insert(self):
        ops = align_words(["a"], ["a", "a"])
        assert [op.kind for op in ops] == ["match", "ins"]

    def test_prefers_sub_over_del_ins(self):
        ops = align_words(["x"], ["y"])
        assert [op.kind for op in ops] == ["sub"]

    def test_empty_sides(self):
        assert align_words([], []) == []
        assert [op.kind for op in align_words(["a"], [])] == ["del"]
        assert [op.kind for op in align_words([], ["a"])] == ["ins"]

    def test_edit_distance_examples(self):
        assert edit_distance("kitten sat".split(), "kitten sat".split()) == 0
        assert edit_distance("the gpu burns".split(), "the cpu burns".split()) == 1
        assert edit_distance([], ["x", "y"]) == 2


class TestWer:
    def test_single_pair(self):
        assert wer([("the gpu runs", "the cpu runs")]) == pytest.approx(100.0 / 3)

    def test_corpus_pools_errors_and_words(self):
        # 1 error over 3 words + 0 over 1 word = 25%
        assert wer([("a b c", "a x c"), ("d", "d")]) == pytest.approx(25.0)

    def test_perfect(self):
        assert wer([("a b", "a b")]) == 0.0
        assert wer([("Buy  GPU", "buy gpu")]) == 0.0

    def test_empty_corpus(self):
        assert wer([]) == 0.0
        assert wer([("", "")]) == 0.0

    def test_empty_reference_with_strays(self, caplog):
        with caplog.at_level("WARNING"):
            assert wer([("", "x y")]) == pytest.approx(200.0)
        assert "empty reference" in caplog.text

    def test_wer_can_exceed_100(self):
        assert wer([("a", "x y z")]) == pytest.approx(300.0)


class TestFscore:
    def test_reference_value(self):
        assert fscore(0.89, 0.85) == pytest.approx(0.8695, abs=5e-4)

    def test_zero(self):
        assert fscore(0.0, 0.0) == 0.0

    def test_symmetric(self):
        assert fscore(0.3, 0.9) == fscore(0.9, 0.3)


class TestFusePhrases:
    def test_basic_fusion(self):
        got = fuse_phrases(["the", "geforce", "rtx", "ran"], ["geforce rtx"])
        assert got == ["the", "geforce rtx", "ran"]

    def test_longest_phrase_first(self):
        words = ["geforce", "rtx", "ti"]
        got = fuse_phrases(words, ["geforce rtx", "geforce rtx ti"])
        assert got == ["geforce rtx ti"]

    def test_single_word_phrases_ignored(self):
        assert fuse_phrases(["a", "b"], ["a"]) == ["a", "b"]

    def test_non_adjacent_words_not_fused(self):
        assert fuse_phrases(["geforce", "x", "rtx"], ["geforce rtx"]) == [
            "geforce",
            "x",
            "rtx",
        ]

    def test_repeated_occurrences_all_fuse(self):
        got = fuse_phrases(["a", "b", "a", "b"], ["a b"])
        assert got == ["a b", "a b"]


class TestScoreContextWords:
    def test_counts(self):
        ops = [
            EditOp(kind="match", ref="gpu", hyp="gpu"),
            EditOp(kind="del", ref="gpu", hyp=None),
            EditOp(kind="ins", ref=None, hyp="cuda"),
            EditOp(kind="match", ref="the", hyp="the"),
        ]
        got = score_context_words(ops, ["gpu", "cuda"])
        assert got == {"gpu": {"tp": 1, "fp": 0, "fn": 1}, "cuda": {"tp": 0, "fp": 1, "fn": 0}}

    def test_sub_between_biasing_words_charges_both(self):
        ops = [EditOp(kind="sub", ref="gpu", hyp="cuda")]
        got = score_context_words(ops, ["gpu", "cuda"])
        assert got == {"gpu": {"tp": 0, "fp": 0, "fn": 1}, "cuda": {"tp": 0, "fp": 1, "fn": 0}}

    def test_non_biasing_words_ignored(self):
        ops = [EditOp(kind="sub", ref="cat", hyp="hat")]
        assert score_context_words(ops, ["gpu"]) == {}


class TestEvaluate:
    def test_hand_computed_corpus(self):
        pairs = [
            ("the gpu is fast", "the gpu is fast"),      # tp gpu
            ("buy a gpu now", "buy a cpu now"),          # fn gpu (sub, cpu not biasing)
            ("cool it down", "cool gpu down"),           # fp gpu (sub from non-biasing)
            ("cuda works", "cuda works"),                # tp cuda
        ]
        report = evaluate(pairs, ["gpu", "cuda"])
        assert report.per_word["gpu"] == {"tp": 1, "fp": 1, "fn": 1}
        assert report.per_word["cuda"] == {"tp": 1, "fp": 0, "fn": 0}
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.fscore == pytest.approx(2 / 3)
        # 2 errors over 13 ref words
        assert report.wer == pytest.approx(100.0 * 2 / 13)
        assert report.num_utterances == 4
        assert report.num_ref_words == 13

    def test_phrase_fusion_changes_pr_not_wer(self):
        pairs = [("the geforce rtx card", "the geforce gtx card")]
        report = evaluate(pairs, ["geforce rtx"])
        # fused ref token "geforce rtx" aligns against hyp "geforce"/"gtx"
        # as one miss, never a partial hit
        assert report.recall == 0.0
        assert report.per_word["geforce rtx"]["fn"] == 1
        assert report.wer == pytest.approx(25.0)  # unfused words: 1 sub over 4

    def test_phrase_hit_counts_once(self):
        pairs = [("the geforce rtx card", "the geforce rtx card")]
        report = evaluate(pairs, ["geforce rtx"])
        assert report.per_word["geforce rtx"] == {"tp": 1, "fp": 0, "fn": 0}
        assert report.recall == 1.0

    def test_biasing_words_normalized(self):
        report = evaluate([("gpu", "gpu")], ["  GPU  ", ""])
        assert report.per_word["gpu"]["tp"] == 1
        report = evaluate([("buy geforce rtx now", "buy geforce  rtx now")], ["geforce  rtx"])
        assert report.per_word == {"geforce rtx": {"tp": 1, "fp": 0, "fn": 0}}

    def test_transcripts_read_in_canonical_form(self):
        report = evaluate([("buy GPU now", "buy gpu now")], ["gpu"])
        assert report.wer == 0.0
        assert report.per_word == {"gpu": {"tp": 1, "fp": 0, "fn": 0}}
        report = evaluate([("GeForce RTX", "geforce rtx")], ["geforce rtx"])
        assert report.per_word == {"geforce rtx": {"tp": 1, "fp": 0, "fn": 0}}

    def test_no_biasing_hits_anywhere(self):
        report = evaluate([("a b", "a b")], ["gpu"])
        assert report.precision == 0.0 and report.recall == 0.0 and report.fscore == 0.0

    def test_as_dict_sorts_per_word(self):
        report = evaluate([("b a", "b a")], ["b", "a"])
        keys = list(report.as_dict()["per_word"].keys())
        assert keys == sorted(keys)

    def test_only_multi_word_entries_are_fused(self, monkeypatch):
        # a one-word entry never fuses, so fusing with the multi-word ones
        # alone scores the corpus as fusing with the whole list does
        biasing = ["geforce", "GeForce RTX", "cuda", "tensor  core", "rtx"]
        pairs = [
            ("the geforce rtx has tensor core units", "the geforce rtx has tensor cores"),
            ("cuda on a geforce", "cuda on a geforce rtx"),
            ("rtx tensor core", "rtx tensor core"),
        ]
        whole = ["geforce", "geforce rtx", "cuda", "tensor core", "rtx"]
        seen: list[list[str]] = []

        def with_whole_list(words, phrases):
            return fuse_phrases(words, whole)

        def recording(words, phrases):
            seen.append(list(phrases))
            return fuse_phrases(words, phrases)

        monkeypatch.setattr(metrics, "fuse_phrases", with_whole_list)
        want = evaluate(pairs, biasing)
        monkeypatch.setattr(metrics, "fuse_phrases", recording)
        assert evaluate(pairs, biasing) == want
        assert want.per_word["geforce rtx"] == {"tp": 1, "fp": 1, "fn": 0}
        assert seen == [["geforce rtx", "tensor core"]] * (2 * len(pairs))


class TestMineBiasingList:
    def test_repeated_misses_rank_first(self):
        pairs = [
            ("nvidia makes chips", "invidia makes chips"),
            ("nvidia ships fast", "invidia ships fast"),
            ("buy nvidia stock", "buy invidia stock"),
            ("the cat sat", "the cat sat"),
        ]
        mined = mine_biasing_list(pairs)
        assert mined[0] == ("nvidia", 3, 0)

    def test_accuracy_filter(self):
        # "token" matches 2 of 3 times: accuracy 2/3 > 0.5 keeps it out
        pairs = [
            ("token one", "token one"),
            ("token two", "token two"),
            ("token three", "tokens three"),
        ]
        terms = [t for t, _, _ in mine_biasing_list(pairs)]
        assert "token" not in terms
        assert "token three" in terms  # bigram missed its only occurrence

    def test_max_accuracy_zero_keeps_only_never_matched(self, monkeypatch):
        monkeypatch.setattr(metrics, "_MAX_ACCURACY", 0.0)
        pairs = [("gpu gpu", "gpu cpu")]
        mined = mine_biasing_list(pairs)
        terms = {t for t, _, _ in mined}
        assert "gpu" not in terms  # matched once of two
        assert "gpu gpu" in terms

    def test_bigram_needs_both_matches(self):
        pairs = [("alpha beta", "alpha bexa")]
        mined = dict((t, (o, m)) for t, o, m in mine_biasing_list(pairs))
        assert mined["alpha beta"] == (1, 0)

    def test_min_len_filters_short_terms(self, monkeypatch):
        pairs = [("ab cd", "xx yy")]
        assert [t for t, _, _ in mine_biasing_list(pairs)] == ["ab cd"]  # the fixed 3 chars
        monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 2)
        assert "ab" in [t for t, _, _ in mine_biasing_list(pairs)]

    def test_sorted_by_occurrences_then_term(self):
        pairs = [
            ("zzz yyy", "a b"),
            ("zzz xxx", "a b"),
            ("aaa xxx", "a b"),
        ]
        mined = mine_biasing_list(pairs)
        counts = [o for _, o, _ in mined]
        assert counts == sorted(counts, reverse=True)
        pairs_sorted = [(o, t) for t, o, _ in mined]
        assert pairs_sorted == sorted(pairs_sorted, key=lambda x: (-x[0], x[1]))

    def test_insertions_do_not_shift_positions(self, monkeypatch):
        # extra hyp words must not break the positional ref/op pairing
        monkeypatch.setattr(metrics, "_MAX_ACCURACY", 1.0)
        monkeypatch.setattr(metrics, "_MIN_TERM_LEN", 1)
        pairs = [("gpu fast", "oh gpu very fast wow")]
        mined = mine_biasing_list(pairs)
        got = {t: (o, m) for t, o, m in mined}
        assert got["gpu"] == (1, 1)
        assert got["fast"] == (1, 1)
        assert got["gpu fast"] == (1, 1)

    def test_terms_read_in_canonical_form(self):
        assert mine_biasing_list([("buy GPU now", "buy gpu now")] * 2) == []
        mined = mine_biasing_list([("Buy GPU", "buy cpu")] * 2)
        assert [t for t, _, _ in mined] == ["buy gpu", "gpu"]

    def test_empty_corpus(self):
        assert mine_biasing_list([]) == []
