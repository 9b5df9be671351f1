"""Prefix trie over biasing-entry transcriptions, plus the word tokenizer."""

from __future__ import annotations

import functools
import hashlib
import logging
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BOUNDARY_MARKER, Vocabulary, canonical_form
from .errors import FormatError, InvalidValueError, UnsegmentableError, VocabularyMismatchError

logger = logging.getLogger(__name__)

ROOT = 0

_G_MAGIC = b"CTCG"
_G_VERSION = 2
# magic, version, reserved (x2), vocab sha256, node count, entry count, blank id.
_G_HEADER = struct.Struct("<4sBBH32sIIi")
# then three node-count-long columns of this type: token ids (-1 at the root),
# parents (0 at the root) and entry ids (-1 if none); then the entry table
_G_INT = np.dtype("<i4")


@dataclass(frozen=True)
class BiasingEntry:
    """A word or phrase to bias toward, with its distinct token-id transcriptions.

    The canonical is kept in canonical_form.  The first transcription is the
    primary spelling; the rest are alternative pronunciations/splits, and a
    repeated one is dropped (first wins).  Token ids never include the blank.
    """

    canonical: str
    transcriptions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canonical = canonical_form(self.canonical)
        if not canonical:
            raise InvalidValueError("biasing entry has an empty canonical form")
        object.__setattr__(self, "canonical", canonical)
        trans = tuple(dict.fromkeys(tuple(int(t) for t in seq) for seq in self.transcriptions))
        if not trans or any(not seq for seq in trans):
            raise InvalidValueError(f"{canonical!r}: transcriptions must be non-empty")
        if any(t < 0 for seq in trans for t in seq):
            raise InvalidValueError(f"{canonical!r}: negative token id")
        object.__setattr__(self, "transcriptions", trans)


class GraphNode(NamedTuple):
    """A trie node as the file stores it; the root is its own parent."""

    token_id: int
    parent: int
    entry_id: int

    @property
    def is_end_of_word(self) -> bool:
        return self.entry_id >= 0


@dataclass
class ContextGraph:
    """Trie of entry transcriptions; the spotter walks it with CTC moves.

    Nodes are numbered breadth-first, each node's children contiguous and in
    ascending token order.  Node i carries token_ids[i] (-1 at the root),
    ends entry entry_ids[i] (-1 if none) and has the children
    range(first_child[i], first_child[i + 1]).
    """

    token_ids: list[int]
    entry_ids: list[int]
    first_child: list[int]  # num_nodes + 1 long
    canonicals: tuple[str, ...]
    blank_id: int

    @property
    def num_nodes(self) -> int:
        return len(self.token_ids)

    @functools.cached_property
    def max_token_id(self) -> int:
        """Largest token id (-1 if empty), cached: the lists must not change after first use."""
        return max(self.token_ids[1:], default=-1)

    @property
    def nodes(self) -> tuple[GraphNode, ...]:
        """Per-node view, built on each access and never stored; bench/worker.py
        compares a saved and reloaded graph through it."""
        return tuple(map(GraphNode, self.token_ids, _parents(self.first_child), self.entry_ids))


def _parents(first_child: list[int]) -> list[int]:
    """Each node's parent, the root being its own, from the child ranges."""
    return [ROOT] + np.repeat(np.arange(len(first_child) - 1), np.diff(first_child)).tolist()


def _first_child(parents: np.ndarray) -> list[int]:
    """first_child from a breadth-first parents column (root first)."""
    return (np.searchsorted(parents[1:], np.arange(len(parents) + 1)) + 1).tolist()


def build_graph(entries: list[BiasingEntry], blank_id: int) -> ContextGraph:
    """Insert every transcription of every entry into a shared prefix trie.

    A transcription containing blank_id is rejected.  One identical to an
    earlier entry's is reported and dropped (first entry wins).  Node
    numbering does not depend on entry order.
    """
    owner: dict[tuple[int, ...], int] = {}
    for entry_id, entry in enumerate(entries):
        for seq in entry.transcriptions:
            if blank_id in seq:
                raise InvalidValueError(f"{entry.canonical!r}: transcription contains the blank id")
            first = owner.setdefault(seq, entry_id)
            if first != entry_id:
                logger.warning("duplicate transcription: %r already spelled by %r (first wins)",
                               entry.canonical, entries[first].canonical)
    token_ids, parents, entry_ids = [-1], [ROOT], [-1]
    # one depth at a time: sorted transcriptions list the prefixes of each
    # length in breadth-first order, equal prefixes next to each other, and a
    # transcription comes before those it is a prefix of, so it opens its node
    level = [(seq, ROOT) for seq in sorted(owner)]
    depth = 0
    while level:
        deeper, last = [], None
        for seq, parent in level:
            if (parent, seq[depth]) != last:
                last = (parent, seq[depth])
                token_ids.append(seq[depth])
                parents.append(parent)
                entry_ids.append(owner[seq] if len(seq) == depth + 1 else -1)
            if len(seq) > depth + 1:
                deeper.append((seq, len(token_ids) - 1))
        level, depth = deeper, depth + 1
    canonicals = tuple(e.canonical for e in entries)
    return ContextGraph(token_ids, entry_ids, _first_child(np.array(parents)), canonicals, blank_id)


def tokenize(word: str, vocab: Vocabulary) -> list[int]:
    """Segment a word or phrase into vocabulary token ids.

    Uses fewest-pieces segmentation with a leftmost-longest tie-break.  At a
    word start the boundary-marker-prefixed form of a piece is preferred over
    the bare one.  Whitespace-separated phrase parts are segmented
    independently; marker-free (character-level) inventories join them with
    the space token.  The blank token never covers characters.

    Raises:
        UnsegmentableError: some character has no covering token.
    """
    parts = word.split()
    if not parts:
        raise UnsegmentableError(f"{word!r}: nothing to tokenize")
    out: list[int] = []
    for i, part in enumerate(parts):
        if i and not vocab.has_marker_tokens:
            space = vocab.space_id
            if space is None or space == vocab.blank_id:
                raise UnsegmentableError(f"{word!r}: no space token to separate phrase parts")
            out.append(space)
        out.extend(_segment_word(part, vocab))
    return out


def _match_token(word: str, pos: int, length: int, vocab: Vocabulary) -> int | None:
    """Token id covering word[pos:pos+length]; marker form wins at the word start."""
    piece = word[pos:pos + length]
    t2i = vocab.token_to_id
    if pos == 0:
        tid = t2i.get(BOUNDARY_MARKER + piece)
        if tid is not None and tid != vocab.blank_id:
            return tid
    tid = t2i.get(piece)
    if tid is not None and tid != vocab.blank_id:
        return tid
    return None


def _segment_word(word: str, vocab: Vocabulary) -> list[int]:
    n = len(word)
    max_len = vocab.max_token_len
    infeasible = n + 1
    # pieces[i] = fewest pieces covering word[i:]; choice[i] = (length, token id)
    # of the longest first piece that achieves it
    pieces = [infeasible] * (n + 1)
    pieces[n] = 0
    choice = [(0, 0)] * n
    for i in range(n - 1, -1, -1):
        for k in range(min(max_len, n - i), 0, -1):
            if pieces[i + k] + 1 < pieces[i]:
                tid = _match_token(word, i, k, vocab)
                if tid is not None:
                    pieces[i] = pieces[i + k] + 1
                    choice[i] = (k, tid)
    if pieces[0] >= infeasible:
        raise UnsegmentableError(f"{word!r} is not coverable by the vocabulary")
    out: list[int] = []
    i = 0
    while i < n:
        k, tid = choice[i]
        out.append(tid)
        i += k
    return out


def vocab_fingerprint(vocab: Vocabulary) -> bytes:
    """SHA-256 over the ordered token list; identifies the id mapping."""
    return hashlib.sha256("\n".join(vocab.tokens).encode("utf-8")).digest()


def save_graph(graph: ContextGraph, path: str, vocab: Vocabulary) -> None:
    """Serialize the graph with the vocabulary fingerprint embedded."""
    header = _G_HEADER.pack(_G_MAGIC, _G_VERSION, 0, 0, vocab_fingerprint(vocab),
                            graph.num_nodes, len(graph.canonicals), graph.blank_id)
    columns = [graph.token_ids, _parents(graph.first_child), graph.entry_ids]
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.array(columns, dtype=_G_INT).tobytes())
        for word in graph.canonicals:
            data = word.encode("utf-8")
            fh.write(struct.pack("<I", len(data)) + data)


def load_graph(path: str, vocab: Vocabulary) -> ContextGraph:
    """Load a serialized graph, refusing one built against a different vocabulary.

    The header's blank id must be the vocabulary's.  Everything build_graph
    guarantees is checked: the root comes first, parents never decrease and
    each precedes its children (breadth-first order, children contiguous),
    non-root tokens are vocabulary ids other than the blank and strictly
    increase among a parent's children, entry ids index the entry table, and
    canonicals are non-empty UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _G_MAGIC:
        raise FormatError(f"{path}: not a context graph file")
    if len(raw) < _G_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, _, _, digest, node_count, entry_count, blank = _G_HEADER.unpack_from(raw)
    if version != _G_VERSION:
        raise FormatError(f"{path}: unsupported graph version {version}; rebuild with build-graph")
    if digest != vocab_fingerprint(vocab):
        raise VocabularyMismatchError(f"{path}: graph was built against a different vocabulary")
    if blank != vocab.blank_id:
        raise VocabularyMismatchError(
            f"{path}: graph blank id {blank} != vocabulary blank id {vocab.blank_id}"
        )
    offset = _G_HEADER.size + 3 * node_count * _G_INT.itemsize
    if offset > len(raw):
        raise FormatError(f"{path}: truncated node table")
    columns = np.frombuffer(raw, dtype=_G_INT, count=3 * node_count, offset=_G_HEADER.size)
    tokens, parents, entries = columns.reshape(3, node_count)
    if node_count == 0 or (tokens[ROOT], parents[ROOT], entries[ROOT]) != (-1, ROOT, -1):
        raise FormatError(f"{path}: the node table does not start with a root")
    # nodes 1.. each against its predecessor; node 1's is the root, whose
    # token -1 is below any token the vocabulary check lets through
    tok, par, ent = tokens[1:], parents[1:], entries[1:]
    for bad, name, column, why in (
        ((par >= np.arange(1, node_count)) | (par < parents[:-1]), "parent", par,
         ", out of breadth-first order"),
        ((tok < 0) | (tok >= vocab.size) | (tok == blank), "token id", tok, ""),
        ((par == parents[:-1]) & (tok <= tokens[:-1]), "token id", tok,
         ", not above its previous sibling's"),
        ((ent < -1) | (ent >= entry_count), "entry id", ent, ""),
    ):
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise FormatError(f"{path}: node {i + 1} has {name} {column[i]}{why}")
    canonicals = []
    for k in range(entry_count):
        if offset + 4 > len(raw):
            raise FormatError(f"{path}: truncated entry table")
        (length,) = struct.unpack_from("<I", raw, offset)
        data, offset = raw[offset + 4:offset + 4 + length], offset + 4 + length
        if offset > len(raw):
            raise FormatError(f"{path}: truncated entry table")
        try:
            canonicals.append(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: entry {k} is not valid UTF-8") from exc
        if not canonicals[-1]:
            raise FormatError(f"{path}: entry {k} is empty")
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return ContextGraph(tokens.tolist(), entries.tolist(), _first_child(parents),
                        tuple(canonicals), vocab.blank_id)
