"""Shared value types and file ingestion for CTC word spotting."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

import numpy as np

from .errors import (
    DuplicateTokenError,
    FormatError,
    InvalidValueError,
)

BOUNDARY_MARKER = "▁"  # the sentencepiece-style lower one eighth block

_MAGIC = b"CTCL"
_FORMAT_VERSION = 1
_FLAG_NORMALIZED = 0x01
# magic, version, flags, reserved, frames, vocab size; payload follows row-major.
_HEADER = struct.Struct("<4sBBHII")
# float32 bytes exponentiated at a time when checking normalization: 64 rows at width 1024
_VALIDATION_BLOCK_BYTES = 256 * 1024
# a normalized row's probabilities sum to 1, its log-sum-exp within 1e-3 of 0
_SUM_LO, _SUM_HI = math.exp(-1e-3), math.exp(1e-3)


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory of a CTC model; token ids are dense 0..V-1."""

    tokens: tuple[str, ...]
    blank_id: int

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
        return any(tok.startswith(BOUNDARY_MARKER) for tok in self.tokens)

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
    same pass rejects NaN and values above 0.  An all -inf row (zero total
    probability) is rejected in every matrix: no token can be decoded from
    it.  Normalization is then checked on the raw rows, which exp cannot
    overflow as every value is <= 0: each row's float64 sum(exp(row)) must
    lie within exp(+-1e-3), so a sum that underflows to 0 fails with no log
    taken.  Rows are exponentiated a block of about 256 KB at a time in one
    reused float32 buffer, so validation makes no whole-matrix temporary;
    the row sums are the ones a whole-matrix pass gives, bit for bit.
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
        if np.isneginf(row_max).any():
            raise InvalidValueError("log-prob matrix has a row that is all -inf")
        if self.normalized:
            frames, width = arr.shape
            rows = max(1, _VALIDATION_BLOCK_BYTES // (4 * width))
            block = np.empty((min(rows, frames), width), dtype=np.float32)
            sums = np.empty(frames)
            for lo in range(0, frames, rows):
                part = block[: frames - lo]
                np.exp(arr[lo:lo + rows], out=part)
                part.sum(axis=1, dtype=np.float64, out=sums[lo:lo + rows])
            if not np.all((sums >= _SUM_LO) & (sums <= _SUM_HI)):
                raise InvalidValueError("rows flagged normalized but log-sum-exp deviates from 0")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SpotterConfig:
    """The word bonus, in the natural-log domain.

    cb_w must be finite (NaN is rejected too); `decode` sets it with
    --cb-w.  ctc_w, the weight on greedy word and blank scores, is a class
    constant, not a field: merge.decode_utterance judges candidates with
    0.5.  The search bounds are module constants of ctcspot.spotter.
    """

    cb_w: float = 3.0
    ctc_w: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        if math.isnan(self.cb_w):
            raise InvalidValueError("cb_w must not be NaN")
        if math.isinf(self.cb_w):
            raise InvalidValueError("cb_w must be finite")


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row: where an utterance's inputs live."""

    utterance_id: str
    logprob_path: str
    text: str | None = None
    transducer_alignment_path: str | None = None


def canonical_form(text: str) -> str:
    """A biasing word as the graph stores it, decode writes it and eval counts
    it: lowercased, with every run of whitespace read as one space."""
    return " ".join(text.lower().split())


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


def load_vocabulary(path: str) -> Vocabulary:
    """Read a one-token-per-line vocabulary file; token id = line number.

    Args:
        path: UTF-8 text file, one token per line (a line may be a lone space);
            a line ends at "\n" only, as in every other text input.  The
            last token is the blank.

    Returns:
        The validated Vocabulary.
    """
    lines = read_text(path).split("\n")
    if lines[-1] == "":  # the final line's newline
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty vocabulary file")
    for i, tok in enumerate(lines):
        if tok == "":
            raise InvalidValueError(f"{path}: empty token at line {i + 1}")
    return Vocabulary(tokens=tuple(lines), blank_id=len(lines) - 1)


def load_logprobs(path: str) -> LogProbMatrix:
    """Load a log-prob matrix from its binary container.

    Layout: "CTCL" magic, u8 version (=1), u8 flags (bit 0 = normalized),
    u16 reserved (=0), u32 frames, u32 vocab size, then frames*vocab
    little-endian float32 values in row-major order.

    The payload is read straight into the returned matrix's own writeable
    array, the one whole-matrix allocation of a load.  A read-only view
    over the file's bytes would cost a second copy downstream, since
    `np.argmax` copies a read-only array whole.  The payload size is
    checked against the file size before that array is allocated, so a
    corrupt header is a FormatError, never a MemoryError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != _MAGIC:
            raise FormatError(f"{path}: not a CTCL matrix file")
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        _, version, flags, _, frames, vocab = _HEADER.unpack(head)
        if version != _FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        expected = frames * vocab * 4
        if payload != expected:
            raise FormatError(f"{path}: payload is {payload} bytes, expected {expected}")
        values = np.empty((frames, vocab), dtype="<f4")
        got = fh.readinto(values)
        if got != expected:  # the file shrank after fstat
            raise FormatError(f"{path}: payload is {got} bytes, expected {expected}")
    return LogProbMatrix(values=values, normalized=bool(flags & _FLAG_NORMALIZED))


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
