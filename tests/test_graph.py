"""Prefix trie construction, tokenization, dot export, serialization."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import char_vocab, random_matrix
from ctcspot import (
    BiasingEntry,
    DataError,
    FormatError,
    InvalidValueError,
    UnsegmentableError,
    Vocabulary,
    VocabularyMismatchError,
    build_graph,
    load_graph,
    save_graph,
    spot,
    tokenize,
)
from ctcspot.graph import _G_HEADER, _G_INT, ROOT, GraphNode
from oracle import exhaustive_segmentations


def entry(word: str, *seqs) -> BiasingEntry:
    return BiasingEntry(canonical=word, transcriptions=tuple(tuple(s) for s in seqs))


class TestBiasingEntry:
    def test_normalizes_canonical(self):
        e = entry("  GPU ", [1, 2])
        assert e.canonical == "gpu"
        assert entry(" GeForce \t RTX", [1]).canonical == "geforce rtx"

    def test_drops_repeated_transcription(self):
        assert entry("x", [1, 2], [3], [1, 2]).transcriptions == ((1, 2), (3,))

    def test_rejects_empty(self):
        with pytest.raises(InvalidValueError):
            entry("", [1])
        with pytest.raises(InvalidValueError):
            entry("x", [])
        with pytest.raises(InvalidValueError):
            entry("x", [])
        with pytest.raises(InvalidValueError):
            BiasingEntry(canonical="x", transcriptions=((),))

    def test_rejects_negative_token(self):
        with pytest.raises(InvalidValueError):
            entry("x", [1, -2])


class TestBuildGraph:
    def test_shared_prefix_node_count(self):
        # char-level "gpu" and "geforce" share only the leading g:
        # 3 + 7 letters - 1 shared = 9 non-root nodes
        vocab = char_vocab("gpueforc")
        e1 = entry("gpu", tokenize("gpu", vocab))
        e2 = entry("geforce", tokenize("geforce", vocab))
        g = build_graph([e1, e2], blank_id=vocab.blank_id)
        assert g.num_nodes == 10
        assert sorted(e for e in g.entry_ids if e >= 0) == [0, 1]

    def test_multiple_transcriptions_one_entry(self):
        g = build_graph([entry("ab", [1, 2], [3])], blank_id=0)
        assert sorted(e for e in g.entry_ids if e >= 0) == [0, 0]

    def test_breadth_first_layout(self):
        # "gpu" (0 1 2) and "up" (2 1) over char_vocab("gpu"): depth 1 holds
        # g and u, depth 2 g>p and u>p, depth 3 g>p>u
        vocab = char_vocab("gpu")
        g = build_graph(
            [entry("up", tokenize("up", vocab)), entry("gpu", tokenize("gpu", vocab))],
            blank_id=vocab.blank_id,
        )
        assert g.token_ids == [-1, 0, 2, 1, 1, 2]
        assert g.entry_ids == [-1, -1, -1, -1, 0, 1]
        assert g.first_child == [1, 3, 4, 5, 6, 6, 6]
        assert g.max_token_id == 2
        assert g.nodes == (
            GraphNode(-1, ROOT, -1),
            GraphNode(0, 0, -1),
            GraphNode(2, 0, -1),
            GraphNode(1, 1, -1),
            GraphNode(1, 2, 0),
            GraphNode(2, 3, 1),
        )
        assert [n.is_end_of_word for n in g.nodes] == [False] * 4 + [True] * 2

    def test_duplicate_transcription_first_wins(self, caplog):
        e1 = entry("first", [1, 2])
        e2 = entry("second", [1, 2], [3])
        e3 = entry("third", [3], [1, 2])
        with caplog.at_level("WARNING"):
            g = build_graph([e1, e2, e3], blank_id=0)
        assert [r.getMessage() for r in caplog.records] == [
            "duplicate transcription: 'second' already spelled by 'first' (first wins)",
            "duplicate transcription: 'third' already spelled by 'second' (first wins)",
            "duplicate transcription: 'third' already spelled by 'first' (first wins)",
        ]
        # nodes: root, 1, 3, 1>2; [1,2] stays with entry 0 and [3] lands for entry 1
        assert (g.token_ids, g.entry_ids) == ([-1, 1, 3, 2], [-1, -1, 1, 0])

    def test_blank_in_transcription_rejected(self):
        with pytest.raises(InvalidValueError):
            build_graph([entry("x", [1, 0, 2])], blank_id=0)

    def test_empty_graph(self):
        g = build_graph([], blank_id=0)
        assert g.num_nodes == 1
        assert (g.token_ids, g.entry_ids, g.first_child, g.max_token_id) == ([-1], [-1], [1, 1], -1)


class TestTokenize:
    def test_char_mode(self):
        vocab = char_vocab("gpu")
        assert tokenize("gpu", vocab) == [0, 1, 2]

    def test_char_mode_phrase_joined_with_space(self):
        vocab = char_vocab("gpu")
        space = vocab.space_id
        assert tokenize("g pu", vocab) == [0, space, 1, 2]

    def test_unknown_char(self):
        with pytest.raises(UnsegmentableError):
            tokenize("gpz", char_vocab("gpu"))

    def test_marker_form_preferred_at_word_start(self):
        vocab = Vocabulary(tokens=("▁ab", "ab", "b", "<b>"), blank_id=3)
        assert tokenize("ab", vocab) == [0]

    def test_fewest_pieces_beats_greedy_longest(self):
        # greedy longest-first would take "abc" then fail on "de" vs "def"
        vocab = Vocabulary(tokens=("abc", "abcd", "ef", "d", "<b>"), blank_id=4)
        assert tokenize("abcdef", vocab) == [1, 2]

    def test_leftmost_longest_among_fewest(self):
        # both [ab, cde] and [abc, de] are two pieces; the longer first piece wins
        vocab = Vocabulary(tokens=("ab", "abc", "cde", "de", "<b>"), blank_id=4)
        assert tokenize("abcde", vocab) == [1, 3]

    def test_blank_never_matches(self):
        vocab = Vocabulary(tokens=("a", "ab", "b"), blank_id=1)
        # "ab" exists only as the blank token, so the split must be a + b
        assert tokenize("ab", vocab) == [0, 2]

    def test_marker_phrase_parts_concatenate(self):
        vocab = Vocabulary(tokens=("▁a", "▁b", "x", "<b>"), blank_id=3)
        assert tokenize("a b", vocab) == [0, 1]

    def test_no_space_token_fails_phrases(self):
        vocab = Vocabulary(tokens=("a", "b", "<b>"), blank_id=2)
        with pytest.raises(UnsegmentableError):
            tokenize("a b", vocab)

    def test_whitespace_only_is_unsegmentable(self):
        with pytest.raises(UnsegmentableError, match="nothing to tokenize"):
            tokenize("   ", char_vocab("ab"))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_minimum(self, seed):
        rng = np.random.default_rng(seed)
        letters = "abc"
        pieces = {letters[i] for i in range(3)}
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(2, 4))
            pieces.add("".join(rng.choice(list(letters)) for _ in range(n)))
        tokens = tuple(sorted(pieces)) + ("<b>",)
        vocab = Vocabulary(tokens=tokens, blank_id=len(tokens) - 1)
        word = "".join(rng.choice(list(letters)) for _ in range(int(rng.integers(1, 9))))
        segs = exhaustive_segmentations(word, sorted(pieces))
        got = tokenize(word, vocab)
        got_pieces = tuple(vocab.tokens[t] for t in got)
        assert "".join(got_pieces) == word
        best = min(len(s) for s in segs)
        assert len(got_pieces) == best
        # leftmost-longest: maximal piece-length sequence among the minimal splits
        lengths = max(
            (tuple(len(p) for p in s) for s in segs if len(s) == best),
        )
        assert tuple(len(p) for p in got_pieces) == lengths


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        vocab = char_vocab("gpue")
        entries = [
            entry("gpu", tokenize("gpu", vocab)),
            entry("up", tokenize("up", vocab), tokenize("u", vocab)),
        ]
        g = build_graph(entries, blank_id=vocab.blank_id)
        path = tmp_path / "g.bin"
        save_graph(g, str(path), vocab)
        g2 = load_graph(str(path), vocab)
        assert g2 == g
        assert g2.max_token_id == g.max_token_id == 2  # u

    @seed(4042)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seqs=st.lists(
            st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=0, max_size=30
        )
    )
    def test_saving_a_loaded_graph_gives_the_same_bytes(self, tmp_path, seqs):
        vocab = char_vocab("abcd")  # blank id 5
        g = build_graph([entry(f"w{i}", s) for i, s in enumerate(seqs)], blank_id=5)
        first, second = tmp_path / "first.graph", tmp_path / "second.graph"
        save_graph(g, str(first), vocab)
        loaded = load_graph(str(first), vocab)
        assert loaded == g
        save_graph(loaded, str(second), vocab)
        assert second.read_bytes() == first.read_bytes()

    def test_vocab_mismatch(self, tmp_path):
        vocab = char_vocab("gpu")
        g = build_graph([entry("gpu", tokenize("gpu", vocab))], blank_id=vocab.blank_id)
        path = tmp_path / "g.bin"
        save_graph(g, str(path), vocab)
        with pytest.raises(VocabularyMismatchError):
            load_graph(str(path), char_vocab("gpx"))

    def test_blank_mismatch(self, tmp_path):
        tokens = ("a", "b", "c")
        v1 = Vocabulary(tokens=tokens, blank_id=2)
        v2 = Vocabulary(tokens=tokens, blank_id=0)
        g = build_graph([entry("ab", [0, 1])], blank_id=2)
        path = tmp_path / "g.bin"
        save_graph(g, str(path), v1)
        with pytest.raises(VocabularyMismatchError):
            load_graph(str(path), v2)

    def test_not_a_graph_file(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_graph(str(path), char_vocab("a"))

    def test_truncated(self, tmp_path):
        vocab = char_vocab("gpu")
        g = build_graph([entry("gpu", tokenize("gpu", vocab))], blank_id=vocab.blank_id)
        path = tmp_path / "g.bin"
        save_graph(g, str(path), vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_graph(str(path), vocab)

    def test_trailing_garbage(self, tmp_path):
        vocab = char_vocab("gpu")
        g = build_graph([entry("gpu", tokenize("gpu", vocab))], blank_id=vocab.blank_id)
        path = tmp_path / "g.bin"
        save_graph(g, str(path), vocab)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_graph(str(path), vocab)


def _saved_gpu_up(tmp_path):
    """Saved graph of "gpu" and "up" over char_vocab("gpu") (blank id 4).

    Nodes, breadth-first: 0 root, 1 g, 2 u, 3 g>p, 4 u>p (ends entry 1),
    5 g>p>u (ends entry 0).
    """
    vocab = char_vocab("gpu")
    g = build_graph(
        [entry("gpu", tokenize("gpu", vocab)), entry("up", tokenize("up", vocab))],
        blank_id=vocab.blank_id,
    )
    path = tmp_path / "g.bin"
    save_graph(g, str(path), vocab)
    return vocab, path


def _patch_node(path, index: int, **fields) -> None:
    """Overwrite one node's token_id, parent or entry_id in a saved graph's columns."""
    raw = bytearray(path.read_bytes())
    count = _G_HEADER.unpack_from(raw)[5]
    for name, value in fields.items():
        column = ("token_id", "parent", "entry_id").index(name)
        at = _G_HEADER.size + _G_INT.itemsize * (column * count + index)
        struct.pack_into("<i", raw, at, value)
    path.write_bytes(bytes(raw))


def _patch_header(path, field: int, value: int) -> None:
    """Overwrite one field of a saved graph's header."""
    raw = bytearray(path.read_bytes())
    fields = list(_G_HEADER.unpack_from(raw))
    fields[field] = value
    _G_HEADER.pack_into(raw, 0, *fields)
    path.write_bytes(bytes(raw))


class TestLoadGraphChecks:
    def test_saved_graph_loads(self, tmp_path):
        vocab, path = _saved_gpu_up(tmp_path)
        g = load_graph(str(path), vocab)
        assert g.token_ids == [-1, 0, 2, 1, 1, 2]
        assert g.entry_ids == [-1, -1, -1, -1, 1, 0]
        assert g.first_child == [1, 3, 4, 5, 6, 6, 6]
        assert g.blank_id == vocab.blank_id

    def test_version_1_file_is_rejected(self, tmp_path):
        vocab, path = _saved_gpu_up(tmp_path)
        _patch_header(path, 1, 1)
        with pytest.raises(FormatError, match="graph version 1; rebuild with build-graph"):
            load_graph(str(path), vocab)

    def test_node_column_cut_short(self, tmp_path):
        # the header counts 6 nodes; the last of the 3 columns ends after 5
        vocab, path = _saved_gpu_up(tmp_path)
        path.write_bytes(path.read_bytes()[:_G_HEADER.size + _G_INT.itemsize * (3 * 6 - 1)])
        with pytest.raises(FormatError, match="truncated node table"):
            load_graph(str(path), vocab)

    def test_header_without_blank_is_rejected(self, tmp_path):
        # -1 marked files written without a blank id; build-graph rewrites them
        vocab, path = _saved_gpu_up(tmp_path)
        _patch_header(path, -1, -1)
        with pytest.raises(VocabularyMismatchError, match="blank id -1 != vocabulary blank id 4"):
            load_graph(str(path), vocab)

    @pytest.mark.parametrize(
        "index, fields",
        [
            (4, {"parent": 0}),  # parents decreasing (1, then 0)
            (5, {"parent": 5}),  # parent not before its child, parents still sorted
            (4, {"parent": 1, "token_id": 0}),  # tokens decreasing under g (p, then g)
            (3, {"entry_id": 2}),  # entry id == entry count
            (3, {"entry_id": 5}),  # entry id past the entry table
            (2, {"entry_id": -2}),  # negative entry id other than -1
            (4, {"parent": 1}),  # second child of g with token p
            (1, {"token_id": -3}),  # negative token id
            (1, {"token_id": 4}),  # the blank id
            (1, {"token_id": 5}),  # past the vocabulary
            (0, {"token_id": 2}),  # root carrying a token
            (5, {"parent": 6}),  # parent past the node table
            (0, {"parent": 1}),  # root with a parent
        ],
    )
    def test_rejects_what_build_graph_never_writes(self, tmp_path, index, fields):
        vocab, path = _saved_gpu_up(tmp_path)
        _patch_node(path, index, **fields)
        with pytest.raises(FormatError) as err:
            load_graph(str(path), vocab)
        # reported at the node the corruption was made in
        where = f"node {index} has " if index else "the node table does not start with a root"
        assert str(err.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"parent": 0}, "node 4 has parent 0, out of breadth-first order"),
            ({"parent": 4}, "node 4 has parent 4, out of breadth-first order"),
            ({"parent": 1}, "node 4 has token id 1, not above its previous sibling's"),
            ({"parent": 1, "token_id": 0},
             "node 4 has token id 0, not above its previous sibling's"),
        ],
        ids=["parent-decreasing", "parent-not-before", "token-repeated", "token-decreasing"],
    )
    def test_out_of_order_node_says_why(self, tmp_path, fields, message):
        # node 4 (u>p, parent 2) moved before its parent or under node 3's parent g
        vocab, path = _saved_gpu_up(tmp_path)
        _patch_node(path, 4, **fields)
        with pytest.raises(FormatError) as err:
            load_graph(str(path), vocab)
        assert str(err.value) == f"{path}: {message}"

    def test_rejects_canonical_that_is_not_utf8(self, tmp_path):
        vocab, path = _saved_gpu_up(tmp_path)
        length = struct.pack("<I", 3)
        path.write_bytes(path.read_bytes().replace(length + b"gpu", length + b"\xffpu"))
        with pytest.raises(FormatError, match="UTF-8"):
            load_graph(str(path), vocab)

    @seed(4041)
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_flipped_bytes_load_and_spot_or_raise_data_error(self, tmp_path, data):
        vocab, path = _saved_gpu_up(tmp_path)
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
            g = load_graph(str(path), vocab)
        except DataError:
            return
        lp = random_matrix(np.random.default_rng(0), 12, vocab.size)
        for c in spot(lp, g):
            assert c.word == g.canonicals[c.entry_id]
