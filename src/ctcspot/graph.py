"""Prefix trie over biasing-entry transcriptions, plus the word tokenizer."""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass, field

from .core import BOUNDARY_MARKER, Vocabulary
from .errors import (
    FormatError,
    InvalidValueError,
    UnsegmentableError,
    VocabularyMismatchError,
)

logger = logging.getLogger(__name__)

ROOT = 0

_G_MAGIC = b"CTCG"
_G_VERSION = 1
# magic, version, reserved (x2), vocab sha256, node count, entry count, blank id.
_G_HEADER = struct.Struct("<4sBBH32sIIi")
# token id (-1 at root), parent index, end-of-word flag, entry id (-1 if none).
_G_NODE = struct.Struct("<iIBi")


@dataclass(frozen=True)
class BiasingEntry:
    """A word or phrase to bias toward, with its token-id transcriptions.

    The first transcription is the primary spelling; the rest are
    alternative pronunciations/splits.  Token ids never include the blank.
    """

    canonical: str
    transcriptions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canonical = self.canonical.strip().lower()
        if not canonical:
            raise InvalidValueError("biasing entry has an empty canonical form")
        object.__setattr__(self, "canonical", canonical)
        trans = tuple(tuple(int(t) for t in seq) for seq in self.transcriptions)
        if not trans or any(not seq for seq in trans):
            raise InvalidValueError(f"{canonical!r}: transcriptions must be non-empty")
        if any(t < 0 for seq in trans for t in seq):
            raise InvalidValueError(f"{canonical!r}: negative token id")
        object.__setattr__(self, "transcriptions", trans)


@dataclass
class _Node:
    token_id: int  # -1 at the root
    parent: int
    entry_id: int = -1  # the entry this node ends, -1 if it ends none
    children: dict[int, int] = field(default_factory=dict)  # token id -> node index

    @property
    def is_end_of_word(self) -> bool:
        return self.entry_id >= 0


@dataclass
class ContextGraph:
    """Trie of entry transcriptions; the spotter walks it with CTC moves."""

    nodes: list[_Node]
    canonicals: tuple[str, ...]
    blank_id: int
    # derived once from nodes for spot, so nodes must not change after the graph
    # is made: per-node token ids and entry ids, and the largest token id in
    # the trie (-1 if empty) for its width check
    token_ids: list[int] = field(init=False, repr=False)
    entry_ids: list[int] = field(init=False, repr=False)
    max_token_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.token_ids = [n.token_id for n in self.nodes]
        self.entry_ids = [n.entry_id for n in self.nodes]
        self.max_token_id = max(self.token_ids[1:], default=-1)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_graph(entries: list[BiasingEntry], blank_id: int) -> ContextGraph:
    """Insert every transcription of every entry into a shared prefix trie.

    A transcription containing blank_id is rejected.  One identical to an
    earlier entry's is reported and dropped (first entry wins).  Entry order
    only affects node numbering.
    """
    nodes = [_Node(token_id=-1, parent=ROOT)]
    for entry_id, entry in enumerate(entries):
        for seq in entry.transcriptions:
            if blank_id in seq:
                raise InvalidValueError(f"{entry.canonical!r}: transcription contains the blank id")
            at = ROOT
            for tok in seq:
                nxt = nodes[at].children.get(tok)
                if nxt is None:
                    nxt = len(nodes)
                    nodes.append(_Node(token_id=tok, parent=at))
                    nodes[at].children[tok] = nxt
                at = nxt
            if nodes[at].is_end_of_word and nodes[at].entry_id != entry_id:
                first = entries[nodes[at].entry_id].canonical
                logger.warning(
                    "duplicate transcription: %r already spelled by %r (first wins)",
                    entry.canonical,
                    first,
                )
                continue
            nodes[at].entry_id = entry_id
    return ContextGraph(
        nodes=nodes,
        canonicals=tuple(e.canonical for e in entries),
        blank_id=blank_id,
    )


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
    with open(path, "wb") as fh:
        fh.write(
            _G_HEADER.pack(
                _G_MAGIC,
                _G_VERSION,
                0,
                0,
                vocab_fingerprint(vocab),
                len(graph.nodes),
                len(graph.canonicals),
                graph.blank_id,
            )
        )
        for n in graph.nodes:
            fh.write(_G_NODE.pack(n.token_id, n.parent, int(n.is_end_of_word), n.entry_id))
        for word in graph.canonicals:
            data = word.encode("utf-8")
            fh.write(struct.pack("<I", len(data)))
            fh.write(data)


def load_graph(path: str, vocab: Vocabulary) -> ContextGraph:
    """Load a serialized graph, refusing one built against a different vocabulary.

    The header's blank id must be the vocabulary's.  Everything build_graph
    guarantees is checked: the root comes first, every node follows its
    parent, a parent has at most one child per token, non-root tokens are
    vocabulary ids other than the blank, the end flag is set exactly on
    nodes with an entry id, entry ids index the entry table, and canonicals
    are non-empty UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _G_MAGIC:
        raise FormatError(f"{path}: not a context graph file")
    if len(raw) < _G_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, _, _, digest, node_count, entry_count, blank = _G_HEADER.unpack_from(raw)
    if version != _G_VERSION:
        raise FormatError(f"{path}: unsupported graph version {version}")
    if digest != vocab_fingerprint(vocab):
        raise VocabularyMismatchError(f"{path}: graph was built against a different vocabulary")
    if blank != vocab.blank_id:
        raise VocabularyMismatchError(
            f"{path}: graph blank id {blank} != vocabulary blank id {vocab.blank_id}"
        )
    if node_count == 0:
        raise FormatError(f"{path}: no root node")
    offset = _G_HEADER.size + node_count * _G_NODE.size
    if offset > len(raw):
        raise FormatError(f"{path}: truncated node table")
    nodes: list[_Node] = []
    for i, (token_id, parent, end_flag, entry_id) in enumerate(
        _G_NODE.iter_unpack(raw[_G_HEADER.size:offset])
    ):
        if end_flag != (entry_id >= 0) or not -1 <= entry_id < entry_count:
            raise FormatError(
                f"{path}: node {i} has end flag {end_flag} and entry id {entry_id} "
                f"({entry_count} entries)"
            )
        if i == ROOT:
            if (token_id, parent, entry_id) != (-1, ROOT, -1):
                raise FormatError(f"{path}: node 0 is not a root")
        elif not parent < i:
            raise FormatError(f"{path}: node {i} precedes its parent")
        elif not 0 <= token_id < vocab.size or token_id == vocab.blank_id:
            raise FormatError(f"{path}: node {i} has token id {token_id}")
        elif token_id in nodes[parent].children:
            raise FormatError(f"{path}: node {i} repeats token {token_id} under node {parent}")
        else:
            nodes[parent].children[token_id] = i
        nodes.append(_Node(token_id=token_id, parent=parent, entry_id=entry_id))
    canonicals = []
    for k in range(entry_count):
        if offset + 4 > len(raw):
            raise FormatError(f"{path}: truncated entry table")
        (length,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        if offset + length > len(raw):
            raise FormatError(f"{path}: truncated entry table")
        try:
            word = raw[offset:offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: entry {k} is not valid UTF-8") from exc
        if not word:
            raise FormatError(f"{path}: entry {k} is empty")
        canonicals.append(word)
        offset += length
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return ContextGraph(nodes=nodes, canonicals=tuple(canonicals), blank_id=vocab.blank_id)
