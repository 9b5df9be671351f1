"""Value types and file ingestion."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import char_vocab, log_softmax_rows, random_matrix
from ctcspot import (
    BiasingEntry,
    DataError,
    DuplicateTokenError,
    FormatError,
    InvalidValueError,
    LogProbMatrix,
    SpotterConfig,
    Vocabulary,
    build_graph,
    find_best_hyps,
    greedy_ctc_align,
    load_logprobs,
    load_manifest,
    load_vocabulary,
    spot,
    tokenize,
    write_logprobs,
)
from ctcspot import core, spotter


class TestVocabulary:
    def test_basic(self):
        v = Vocabulary(tokens=("a", "b", "<b>"), blank_id=2)
        assert v.size == 3
        assert v.token_to_id == {"a": 0, "b": 1, "<b>": 2}
        assert not v.has_marker_tokens
        assert v.space_id is None

    def test_duplicate_token(self):
        with pytest.raises(DuplicateTokenError):
            Vocabulary(tokens=("a", "a"), blank_id=0)

    def test_blank_out_of_range(self):
        with pytest.raises(InvalidValueError):
            Vocabulary(tokens=("a", "b"), blank_id=2)

    def test_empty(self):
        with pytest.raises(InvalidValueError):
            Vocabulary(tokens=(), blank_id=0)

    def test_marker_detection_and_space(self):
        v = Vocabulary(tokens=("▁a", "b", "<b>"), blank_id=2)
        assert v.has_marker_tokens
        v2 = Vocabulary(tokens=("a", " ", "<b>"), blank_id=2)
        assert v2.space_id == 1


class TestLogProbMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvalidValueError):
            LogProbMatrix(values=np.array([[0.0, float("nan")]], dtype=np.float32))

    def test_rejects_positive(self):
        with pytest.raises(InvalidValueError):
            LogProbMatrix(values=np.array([[0.1, -1.0]], dtype=np.float32))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidValueError):
            LogProbMatrix(values=np.zeros(4, dtype=np.float32))

    def test_rejects_zero_vocabulary_width(self):
        with pytest.raises(InvalidValueError, match="zero vocabulary width"):
            LogProbMatrix(values=np.zeros((3, 0), dtype=np.float32))

    def test_normalized_flag_checked(self):
        bad = np.log(np.array([[0.5, 0.2]], dtype=np.float32))
        with pytest.raises(InvalidValueError):
            LogProbMatrix(values=bad, normalized=True)
        LogProbMatrix(values=bad, normalized=False)  # fine when not claimed

    def test_zero_frames_allowed(self):
        m = LogProbMatrix(values=np.zeros((0, 4), dtype=np.float32))
        assert m.frames == 0 and m.vocab_size == 4

    def test_neg_inf_allowed(self):
        m = LogProbMatrix(
            values=np.array([[0.0, -np.inf]], dtype=np.float32), normalized=True
        )
        assert m.frames == 1

    def test_normalized_rejects_all_neg_inf_row(self):
        values = np.array([[0.0, -np.inf], [-np.inf, -np.inf]], dtype=np.float32)
        # a zero-probability frame decodes to no token, whatever the flag says
        for normalized in (True, False):
            with pytest.raises(InvalidValueError, match="all -inf"):
                LogProbMatrix(values=values, normalized=normalized)

    def test_rejects_nan_beside_larger_values(self):
        values = np.array([[-0.7, -0.7, -np.inf], [-0.1, -2.3, np.nan]], dtype=np.float32)
        for normalized in (False, True):
            with pytest.raises(InvalidValueError, match="NaN"):
                LogProbMatrix(values=values, normalized=normalized)

    def test_rejects_pos_inf(self):
        values = np.array([[-1.0, -2.0], [np.inf, -np.inf]], dtype=np.float32)
        for normalized in (False, True):
            with pytest.raises(InvalidValueError, match="above 0"):
                LogProbMatrix(values=values, normalized=normalized)

    @staticmethod
    def shifted_rows(offset: float) -> np.ndarray:
        """Three proper rows; the middle one's log-sum-exp is moved to `offset`."""
        values = np.log(np.array([[0.5, 0.25, 0.25], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]))
        values[1] += offset
        return values.astype(np.float32)

    @pytest.mark.parametrize("offset", [5e-4, -5e-4])
    def test_normalized_tolerance_accepts(self, offset):
        LogProbMatrix(values=self.shifted_rows(offset), normalized=True)

    @pytest.mark.parametrize("offset", [2e-3, -2e-3])
    def test_normalized_tolerance_rejects(self, offset):
        with pytest.raises(InvalidValueError, match="log-sum-exp"):
            LogProbMatrix(values=self.shifted_rows(offset), normalized=True)

    def test_unnormalized_rows_need_not_sum_to_one(self):
        values = np.log(np.array([[0.1, 0.2], [0.01, 0.02], [1.0, 1.0]], dtype=np.float32))
        m = LogProbMatrix(values=values, normalized=False)
        assert m.frames == 3

    def test_decisions_match_logaddexp_reference(self):
        def reference_accepts(values: np.ndarray, normalized: bool) -> bool:
            if np.isnan(values).any() or values.max() > 0:
                return False
            if np.isneginf(values).all(axis=1).any():
                return False
            if normalized:
                lse = np.logaddexp.reduce(values.astype(np.float64), axis=1)
                return bool(np.all(np.abs(lse) <= 1e-3))
            return True

        rng = np.random.default_rng(2406)
        outcomes = set()
        for _ in range(400):
            frames, width = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            values = log_softmax_rows(rng.normal(size=(frames, width)) * rng.uniform(0.5, 8))
            # shift rows around the tolerance, keeping clear of its edge
            shifts = rng.choice([0.0, 4e-4, -4e-4, 1.5e-3, -1.5e-3, -0.5], size=frames)
            values += shifts[:, None].astype(np.float32)
            if rng.random() < 0.3:
                values[rng.random(values.shape) < 0.3] = -np.inf
            if rng.random() < 0.1:
                values[int(rng.integers(frames))] = -np.inf
            if rng.random() < 0.05:
                values[int(rng.integers(frames)), int(rng.integers(width))] = np.nan
            if rng.random() < 0.05:
                values[int(rng.integers(frames)), int(rng.integers(width))] = np.inf
            normalized = bool(rng.random() < 0.7)
            want = reference_accepts(values, normalized)
            try:
                LogProbMatrix(values=values, normalized=normalized)
                got = True
            except InvalidValueError:
                got = False
            assert got == want
            outcomes.add((normalized, want))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestLogProbMatrixBlocks:
    """Normalization is checked 64 rows at a time at width 1024; every fault
    is found, with its message, wherever the blocks fall."""

    WIDTH = 1024

    @pytest.fixture(params=[1, 63, 64, 65, 200])
    def values(self, request):
        rng = np.random.default_rng(request.param)
        return log_softmax_rows(rng.normal(size=(request.param, self.WIDTH)) * 3)

    def test_accepts_a_normalized_matrix(self, values):
        LogProbMatrix(values=values, normalized=True)

    @pytest.mark.parametrize(
        "fault, message",
        [("nan", "NaN"), ("pos_inf", "above 0"), ("all_neg_inf", "all -inf"),
         ("lse_up", "log-sum-exp"), ("lse_down", "log-sum-exp")],
    )
    def test_fault_in_the_last_block(self, values, fault, message):
        row = len(values) - 1
        if fault == "nan":
            values[row, 7] = np.nan
        elif fault == "pos_inf":
            values[row, 7] = np.inf
        elif fault == "all_neg_inf":
            values[row] = -np.inf
        else:
            values[row] += np.float32(2e-3 if fault == "lse_up" else -2e-3)
        with pytest.raises(InvalidValueError, match=message):
            LogProbMatrix(values=values, normalized=True)

    def test_nan_in_a_later_block_beats_a_value_above_0_in_the_first(self):
        values = log_softmax_rows(np.random.default_rng(3).normal(size=(200, self.WIDTH)))
        values[0, 0] = 0.5
        values[150, 3] = np.nan
        for normalized in (False, True):
            with pytest.raises(InvalidValueError, match="NaN"):
                LogProbMatrix(values=values, normalized=normalized)

    @staticmethod
    def reference_accepts(values: np.ndarray, normalized: bool) -> bool:
        if np.isnan(values).any() or values.max() > 0:
            return False
        if np.isneginf(values).all(axis=1).any():
            return False
        if normalized:
            lse = np.logaddexp.reduce(values.astype(np.float64), axis=1)
            return bool(np.all(np.abs(lse) <= 1e-3))
        return True

    def test_decisions_match_logaddexp_reference(self):
        rng = np.random.default_rng(2207)
        outcomes = set()
        for _ in range(60):
            frames, width = int(rng.integers(60, 260)), int(rng.choice([300, 1024, 1500]))
            values = log_softmax_rows(rng.normal(size=(frames, width)) * rng.uniform(0.5, 8))
            row = int(rng.integers(frames))
            fault = rng.choice(["none", "inside", "outside", "neg_inf", "nan", "pos_inf", "row"])
            if fault in ("inside", "outside"):
                # shift one row around the tolerance, keeping clear of its edge
                shift = (4e-4 if fault == "inside" else 1.5e-3) * rng.choice([-1, 1])
                values[row] += np.float32(shift)
            elif fault == "neg_inf":
                values[rng.random(values.shape) < 0.3] = -np.inf
            elif fault == "row":
                values[row] = -np.inf
            elif fault != "none":
                values[row, int(rng.integers(width))] = np.nan if fault == "nan" else np.inf
            normalized = bool(rng.random() < 0.7)
            want = self.reference_accepts(values, normalized)
            try:
                LogProbMatrix(values=values, normalized=normalized)
                got = True
            except InvalidValueError:
                got = False
            assert got == want
            outcomes.add((normalized, want))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestSpotterConfig:
    def test_defaults(self):
        cfg = SpotterConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["cb_w"]
        assert cfg.cb_w == 3.0
        # the greedy-score weight is a class constant, not a field
        assert cfg.ctc_w == SpotterConfig.ctc_w == 0.5
        # the search bounds are spotter module constants, not config fields
        assert math.isclose(spotter._BETA_THR, math.log(0.80))
        assert math.isclose(spotter._GAMMA_THR, math.log(0.001))
        assert spotter._BEAM_THR == 7.0
        assert spotter._MAX_ACTIVE == 64

    @pytest.mark.parametrize("field", ["cb_w"])
    def test_rejects_nan(self, field):
        with pytest.raises(InvalidValueError, match=f"{field} must not be NaN"):
            SpotterConfig(**{field: math.nan})

    @pytest.mark.parametrize("field", ["cb_w"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_rejects_infinite_weights(self, field, value):
        with pytest.raises(InvalidValueError, match=f"{field} must be finite"):
            SpotterConfig(**{field: value})


class TestVocabularyFile:
    def test_load(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("a\nb\n \n<b>\n", encoding="utf-8")
        v = load_vocabulary(str(p))
        assert v.tokens == ("a", "b", " ", "<b>")
        assert v.blank_id == 3  # defaults to the last token
        assert v.space_id == 2

    def test_blank_override(self, tmp_path):
        # the file's blank is its last token; another blank is a new Vocabulary
        # over the same tokens, as the CLI's --blank-id builds it
        p = tmp_path / "vocab.txt"
        p.write_text("<b>\na\nb\n", encoding="utf-8")
        v = load_vocabulary(str(p))
        assert v.blank_id == 2
        override = Vocabulary(v.tokens, 0)
        assert override.tokens == ("<b>", "a", "b")
        assert override.blank_id == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocabulary(str(p))

    def test_empty_token_line(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("a\n\nb\n", encoding="utf-8")
        with pytest.raises(InvalidValueError):
            load_vocabulary(str(p))

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0c", "\x1e"])
    def test_a_line_ends_only_at_a_newline(self, tmp_path, separator):
        # str.splitlines() would split here too; the context list does not
        p = tmp_path / "vocab.txt"
        p.write_text(f"a\nb{separator}c\n \n<b>\n", encoding="utf-8")
        v = load_vocabulary(str(p))
        assert v.tokens == ("a", f"b{separator}c", " ", "<b>")
        assert v.blank_id == 3


class TestLogProbFiles:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_binary_round_trip(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 9)))
        path = tmp_path_factory.mktemp("lp") / "m.bin"
        write_logprobs(m, str(path))
        again = load_logprobs(str(path))
        assert again.normalized == m.normalized
        assert np.array_equal(again.values, m.values)
        # writing the loaded matrix reproduces the file byte for byte
        path2 = tmp_path_factory.mktemp("lp") / "m2.bin"
        write_logprobs(again, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_unnormalized_flag_round_trip(self, tmp_path):
        m = LogProbMatrix(values=np.array([[-1.0, -2.0]], dtype=np.float32))
        path = tmp_path / "m.bin"
        write_logprobs(m, str(path))
        assert not load_logprobs(str(path)).normalized

    @pytest.mark.parametrize(
        "make",
        [
            lambda raw: b"-1.0\t-2.0\n-0.5\t-3.0\n",  # TSV text
            lambda raw: b"X" + raw[1:],  # a damaged magic
            lambda raw: b"",
            lambda raw: b"not a matrix at all",
        ],
        ids=["tsv", "damaged-magic", "empty", "junk"],
    )
    def test_not_a_ctcl_file(self, tmp_path, make):
        path = tmp_path / "m.bin"
        write_logprobs(LogProbMatrix(values=np.full((2, 2), -1.0, dtype=np.float32)), str(path))
        path.write_bytes(make(path.read_bytes()))
        with pytest.raises(FormatError) as info:
            load_logprobs(str(path))
        assert str(info.value) == f"{path}: not a CTCL matrix file"

    def test_truncated_payload(self, tmp_path):
        m = LogProbMatrix(values=np.full((3, 2), -1.0, dtype=np.float32))
        path = tmp_path / "m.bin"
        write_logprobs(m, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            load_logprobs(str(path))

    def test_bad_version(self, tmp_path):
        m = LogProbMatrix(values=np.full((1, 2), -1.0, dtype=np.float32))
        path = tmp_path / "m.bin"
        write_logprobs(m, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_logprobs(str(path))

    @seed(4042)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flipped_bytes_load_and_decode_or_raise_data_error(self, tmp_path_factory, data):
        vocab = char_vocab("abcd")
        entries = [
            BiasingEntry(canonical=w, transcriptions=(tuple(tokenize(w, vocab)),))
            for w in ("ab", "bad", "cab")
        ]
        graph = build_graph(entries, blank_id=vocab.blank_id)
        path = tmp_path_factory.mktemp("lp") / "m.bin"
        write_logprobs(random_matrix(np.random.default_rng(0), 12, vocab.size), str(path))
        raw = bytearray(path.read_bytes())
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1,
                max_size=3,
            )
        )
        for at, mask in flips:
            raw[at] ^= mask
        path.write_bytes(bytes(raw))
        try:
            lp = load_logprobs(str(path))
            candidates = find_best_hyps(spot(lp, graph))
            greedy = greedy_ctc_align(lp, vocab)
        except DataError:
            return
        assert all(c.word == graph.canonicals[c.entry_id] for c in candidates)
        assert all(0 <= w.start_frame <= w.end_frame < lp.frames for w in greedy.words)


class TestLogProbMemory:
    """Peak traced allocation while loading, validating and aligning one
    1000x1024 matrix, against the matrix's own bytes."""

    FRAMES, WIDTH = 1000, 1024
    MATRIX_BYTES = FRAMES * WIDTH * 4

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        rng = np.random.default_rng(22)
        values = log_softmax_rows(rng.normal(size=(self.FRAMES, self.WIDTH)) * 3)
        path = tmp_path_factory.mktemp("lp") / "m.bin"
        write_logprobs(LogProbMatrix(values=values, normalized=True), str(path))
        return str(path)

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_allocates_the_matrix_once(self, path):
        assert self.peak(lambda: load_logprobs(path)) <= 1.25 * self.MATRIX_BYTES

    def test_validation_makes_no_whole_matrix_temporary(self, path):
        values = load_logprobs(path).values
        peak = self.peak(lambda: LogProbMatrix(values=values, normalized=True))
        assert peak <= 0.25 * self.MATRIX_BYTES

    def test_greedy_alignment_does_not_copy_a_loaded_matrix(self, path):
        vocab = Vocabulary(tokens=tuple(f"\u2581t{i}" for i in range(self.WIDTH - 1)) + ("<b>",),
                           blank_id=self.WIDTH - 1)
        lp = load_logprobs(path)
        assert lp.values.flags.writeable
        assert self.peak(lambda: greedy_ctc_align(lp, vocab)) <= 0.25 * self.MATRIX_BYTES

    def test_huge_frame_count_in_the_header_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(core._HEADER.pack(b"CTCL", 1, 1, 0, 2**32 - 1, 1024) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload is 64 bytes"):
                load_logprobs(str(path))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_file_shrinking_after_its_size_is_read(self, tmp_path, monkeypatch):
        path = tmp_path / "m.bin"
        write_logprobs(LogProbMatrix(values=np.full((3, 2), -0.7, dtype=np.float32)), str(path))
        path.write_bytes(path.read_bytes()[:-4])
        real_fstat = os.fstat
        monkeypatch.setattr(core.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 4))
        with pytest.raises(FormatError, match="payload is 20 bytes, expected 24"):
            load_logprobs(str(path))


class TestManifest:
    def test_load_and_path_resolution(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        p = sub / "manifest.jsonl"
        rows = [
            {"id": "u1", "logprobs": "u1.bin", "text": "hello"},
            {"id": "u2", "logprobs": "/abs/u2.bin", "transducer_alignment": "u2.ali"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        records = load_manifest(str(p))
        assert [r.utterance_id for r in records] == ["u1", "u2"]
        assert records[0].logprob_path == str(sub / "u1.bin")
        assert records[0].text == "hello"
        assert records[0].transducer_alignment_path is None
        assert records[1].logprob_path == "/abs/u2.bin"
        assert records[1].transducer_alignment_path == str(sub / "u2.ali")

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"id": "u1"}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            load_manifest(str(p))

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(
            '{"id": "u1", "logprobs": "a"}\n{"id": "u1", "logprobs": "b"}\n',
            encoding="utf-8",
        )
        with pytest.raises(InvalidValueError):
            load_manifest(str(p))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("{nope\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_manifest(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('\n{"id": "u1", "logprobs": "a"}\n\n', encoding="utf-8")
        assert len(load_manifest(str(p))) == 1
