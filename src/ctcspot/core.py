"""Shared value types and file ingestion for CTC word spotting."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import (
    DuplicateTokenError,
    FormatError,
    InvalidValueError,
)

DEFAULT_BOUNDARY_MARKER = "▁"  # the sentencepiece-style lower one eighth block

_MAGIC = b"CTCL"
_FORMAT_VERSION = 1
_FLAG_NORMALIZED = 0x01
# magic, version, flags, reserved, frames, vocab size; payload follows row-major.
_HEADER = struct.Struct("<4sBBHII")


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory of a CTC model; token ids are dense 0..V-1."""

    tokens: tuple[str, ...]
    blank_id: int
    word_boundary_marker: str = DEFAULT_BOUNDARY_MARKER

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise InvalidValueError("vocabulary has no tokens")
        seen = set()
        for tok in self.tokens:
            if tok in seen:
                raise DuplicateTokenError(f"duplicate token {tok!r}")
            seen.add(tok)
        if not 0 <= self.blank_id < len(self.tokens):
            raise InvalidValueError(
                f"blank_id {self.blank_id} out of range for {len(self.tokens)} tokens"
            )
        if not self.word_boundary_marker:
            raise InvalidValueError("word_boundary_marker must be non-empty")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @cached_property
    def token_to_id(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @cached_property
    def max_token_len(self) -> int:
        """Length in characters of the longest token."""
        return max(len(tok) for tok in self.tokens)

    @cached_property
    def has_marker_tokens(self) -> bool:
        """True for BPE-style inventories where pieces carry the boundary marker."""
        marker = self.word_boundary_marker
        return any(tok.startswith(marker) for tok in self.tokens)

    @cached_property
    def space_id(self) -> int | None:
        """Id of the literal space token (character-level word delimiter), if any."""
        return self.token_to_id.get(" ")


@dataclass(frozen=True)
class LogProbMatrix:
    """A frames-by-vocab matrix of per-frame token log-probabilities.

    Every value is <= 0; rows of a matrix flagged `normalized` log-sum-exp
    to 0 within 1e-3 (synthetic fixtures may be unnormalized and say so).

    Validation takes one row-wise max: NaN propagates through it, so the
    same pass rejects NaN and values above 0.  Normalization is then checked
    as the max-shifted log(sum(exp(row - max))) + max, summed in float64
    from a float32 temporary, so no float64 copy of the matrix is made.  A
    normalized matrix with an all -inf row (zero total probability) is
    rejected.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise InvalidValueError(f"log-prob matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[1] == 0:
            raise InvalidValueError("log-prob matrix has zero vocabulary width")
        object.__setattr__(self, "values", arr)
        if arr.size == 0:
            return
        row_max = arr.max(axis=1)
        top = float(row_max.max())
        if math.isnan(top):
            raise InvalidValueError("log-prob matrix contains NaN")
        if top > 0.0:
            raise InvalidValueError("log-prob matrix contains values above 0")
        if self.normalized:
            if np.isneginf(row_max).any():
                raise InvalidValueError("rows flagged normalized but one row is all -inf")
            shifted = arr - row_max[:, None]
            np.exp(shifted, out=shifted)
            lse = np.log(shifted.sum(axis=1, dtype=np.float64)) + row_max
            if not np.all(np.abs(lse) <= 1e-3):
                raise InvalidValueError("rows flagged normalized but log-sum-exp deviates from 0")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SpotterConfig:
    """Decoding hyperparameters; thresholds live in the natural-log domain.

    NaN is rejected in every field and the weights must be finite.
    Infinite thresholds stay legal: gamma_thr=-inf admits every first token
    and beam_thr=inf keeps every hypothesis.
    """

    cb_w: float = 3.0  # per-emission bonus for non-blank moves through the graph
    ctc_w: float = 0.5  # weight on greedy word scores when merging
    beta_thr: float = math.log(0.80)  # blank skip: empty hyps sit out frames above this
    gamma_thr: float = math.log(0.001)  # admission gate on a word's first token
    beam_thr: float = 7.0  # beam width below the per-frame best score
    pruning_enabled: bool = True  # False: oracle mode, no pruning and no thresholds

    def __post_init__(self) -> None:
        for name in ("cb_w", "ctc_w", "beta_thr", "gamma_thr", "beam_thr"):
            if math.isnan(getattr(self, name)):
                raise InvalidValueError(f"{name} must not be NaN")
        if math.isinf(self.cb_w) or math.isinf(self.ctc_w):
            raise InvalidValueError("cb_w and ctc_w must be finite")
        if self.ctc_w < 0:
            raise InvalidValueError("ctc_w must be >= 0")
        if self.beta_thr > 0 or self.gamma_thr > 0:
            raise InvalidValueError("log-domain thresholds must be <= 0")
        if self.beam_thr <= 0:
            raise InvalidValueError("beam_thr must be > 0")


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: where an utterance's inputs live."""

    utterance_id: str
    logprob_path: str
    text: str | None = None
    transducer_alignment_path: str | None = None


def read_text(path: str) -> str:
    """Contents of a UTF-8 text file, newlines translated as text mode does.

    Raises:
        FormatError: the file is not valid UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 text") from exc


def read_jsonl(path: str, required: frozenset[str]) -> Iterator[tuple[str, dict]]:
    """Yield ("path:line", row) for each non-blank line of a UTF-8 JSON-lines file.

    Raises FormatError for invalid JSON or a row that is not an object holding
    every required key.
    """
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}: invalid JSON") from exc
        if not isinstance(row, dict):
            raise FormatError(f"{where}: rows must be JSON objects")
        if not required <= row.keys():
            raise FormatError(f"{where}: rows need {', '.join(map(repr, sorted(required)))}")
        yield where, row


def finite_number(value: object) -> float | None:
    """A parsed JSON number as a finite float, or None for anything else, booleans included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def load_vocabulary(
    path: str,
    blank_id: int | None = None,
    word_boundary_marker: str = DEFAULT_BOUNDARY_MARKER,
) -> Vocabulary:
    """Read a one-token-per-line vocabulary file; token id = line number.

    Args:
        path: UTF-8 text file, one token per line (a line may be a lone space).
        blank_id: blank token id; defaults to the last token.
        word_boundary_marker: prefix marking word-initial pieces.

    Returns:
        The validated Vocabulary.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise FormatError(f"{path}: empty vocabulary file")
    for i, tok in enumerate(lines):
        if tok == "":
            raise InvalidValueError(f"{path}: empty token at line {i + 1}")
    bid = len(lines) - 1 if blank_id is None else blank_id
    return Vocabulary(tokens=tuple(lines), blank_id=bid, word_boundary_marker=word_boundary_marker)


def load_logprobs(path: str) -> LogProbMatrix:
    """Load a log-prob matrix from the binary container or TSV fallback.

    Binary layout: "CTCL" magic, u8 version (=1), u8 flags (bit 0 = normalized),
    u16 reserved (=0), u32 frames, u32 vocab size, then frames*vocab
    little-endian float32 values in row-major order.  A file that does not
    start with the magic is parsed as TSV: one line per frame, tab-separated
    decimal floats, and is treated as unnormalized.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        return _load_logprobs_tsv(path, raw)
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    _, version, flags, _, frames, vocab = _HEADER.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported container version {version}")
    payload = len(raw) - _HEADER.size
    expected = frames * vocab * 4
    if payload != expected:
        raise FormatError(f"{path}: payload is {payload} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<f4", count=frames * vocab, offset=_HEADER.size)
    values = values.reshape(frames, vocab)
    return LogProbMatrix(values=values, normalized=bool(flags & _FLAG_NORMALIZED))


def _load_logprobs_tsv(path: str, raw: bytes) -> LogProbMatrix:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: bad magic and not UTF-8 TSV") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        try:
            row = [float(cell) for cell in line.split("\t")]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: not tab-separated floats") from exc
        if rows and len(row) != len(rows[0]):
            raise FormatError(f"{path}:{lineno}: ragged row ({len(row)} vs {len(rows[0])} columns)")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty TSV matrix")
    return LogProbMatrix(values=np.array(rows, dtype=np.float32), normalized=False)


def write_logprobs(matrix: LogProbMatrix, path: str) -> None:
    """Write the binary container; load_logprobs round-trips it byte-identically."""
    frames, vocab = matrix.values.shape
    flags = _FLAG_NORMALIZED if matrix.normalized else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, flags, 0, frames, vocab))
        fh.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())


def load_manifest(path: str) -> list[UtteranceRecord]:
    """Read a JSON-lines manifest: {"id", "logprobs", "text"?, "transducer_alignment"?}.

    Relative paths resolve against the manifest's directory.  Utterance ids
    must be unique and non-empty.  Every field is a string; the optional
    ones may also be null, and `logprobs` is non-empty.
    """
    base = os.path.dirname(os.path.abspath(path))
    records: list[UtteranceRecord] = []
    seen: set[str] = set()
    for where, row in read_jsonl(path, frozenset({"id", "logprobs"})):
        uid = row["id"]
        if not isinstance(uid, str) or not uid:
            raise InvalidValueError(f"{where}: utterance id must be a non-empty string")
        if uid in seen:
            raise InvalidValueError(f"{where}: duplicate utterance id {uid!r}")
        seen.add(uid)
        logprobs = row["logprobs"]
        text = row.get("text")
        tali = row.get("transducer_alignment")
        if not isinstance(logprobs, str):
            raise InvalidValueError(f"{where}: 'logprobs' must be a string")
        if not logprobs:
            raise InvalidValueError(f"{where}: 'logprobs' is empty")
        for name, value in (("text", text), ("transducer_alignment", tali)):
            if value is not None and not isinstance(value, str):
                raise InvalidValueError(f"{where}: {name!r} must be a string or null")
        records.append(
            UtteranceRecord(
                utterance_id=uid,
                logprob_path=_resolve(base, logprobs),
                text=text,
                transducer_alignment_path=_resolve(base, tali) if tali else None,
            )
        )
    return records


def _resolve(base: str, p: str) -> str:
    return p if os.path.isabs(p) else os.path.join(base, p)
