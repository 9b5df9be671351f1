"""Word-level alignment of the greedy CTC decode, and transducer alignments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BOUNDARY_MARKER,
    LogProbMatrix,
    SpotterConfig,
    Vocabulary,
    finite_number,
    read_jsonl,
)
from .errors import (
    DimensionMismatchError,
    FormatError,
    InvalidValueError,
    OverlappingWordsError,
)


@dataclass(frozen=True)
class AlignedWord:
    """A decoded word with its closed frame interval and weighted score."""

    word: str
    start_frame: int
    end_frame: int
    score: float


@dataclass(frozen=True)
class WordAlignment:
    """Non-overlapping words in frame order over a matrix of `frames` frames."""

    words: tuple[AlignedWord, ...]
    frames: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        prev_end = -1
        for w in self.words:
            if not w.word:
                raise InvalidValueError("alignment contains an empty word")
            if not 0 <= w.start_frame <= w.end_frame < self.frames:
                raise InvalidValueError(
                    f"{w.word!r}: interval [{w.start_frame}, {w.end_frame}] "
                    f"outside 0..{self.frames - 1}"
                )
            if w.start_frame <= prev_end:
                raise OverlappingWordsError(f"{w.word!r}: word intervals overlap or are unsorted")
            prev_end = w.end_frame

    @property
    def text(self) -> str:
        return " ".join(w.word for w in self.words)


def greedy_ctc_align(
    logprobs: LogProbMatrix, vocab: Vocabulary, ctc_w: float = SpotterConfig.ctc_w
) -> WordAlignment:
    """Word alignment of the greedy (argmax) CTC decode.

    Frames decode to their argmax token (ties to the lowest id); consecutive
    repeats collapse into one emission run and blank runs are dropped.  Runs
    group into words at boundary-marker pieces, or at space tokens for a
    character-level inventory.  A word spans the first frame of its first run
    through the last frame of its last run; its score is ctc_w times the sum
    of argmax log-probs over all frames of its runs, repeats included.
    ctc_w must be finite and > 0 (at 0 a zero-probability word scores NaN).
    """
    if not 0 < ctc_w < math.inf:
        raise InvalidValueError(f"ctc_w must be finite and > 0, got {ctc_w}")
    if logprobs.vocab_size != vocab.size:
        raise DimensionMismatchError(
            f"matrix has {logprobs.vocab_size} columns, vocabulary has {vocab.size} tokens"
        )
    frames = logprobs.frames
    ids = np.argmax(logprobs.values, axis=1)
    top_lp = logprobs.values[np.arange(frames), ids].astype(np.float64)

    # collapse into (token, first frame, last frame, summed log-prob) runs;
    # bounds holds every run's first frame, then `frames`
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), frames] if frames else []
    tokens = ids.tolist()
    top = top_lp.tolist()
    runs: list[tuple[int, int, int, float]] = []
    for a, b in zip(bounds, bounds[1:]):
        if tokens[a] == vocab.blank_id:
            continue
        # the sum equals top_lp[a:b].sum() bit for bit: numpy adds fewer than
        # 8 values in order onto 0.0, as this loop does, and 8 or more pairwise
        if b - a < 8:
            total = 0.0
            for lp in top[a:b]:
                total += lp
        else:
            total = float(top_lp[a:b].sum())
        runs.append((tokens[a], a, b - 1, total))

    bpe = vocab.has_marker_tokens
    space = vocab.space_id
    words: list[AlignedWord] = []
    group: list[tuple[int, int, int, float]] = []

    def close_group() -> None:
        if not group:
            return
        text = "".join(vocab.tokens[r[0]] for r in group)
        if bpe and text.startswith(BOUNDARY_MARKER):
            text = text[len(BOUNDARY_MARKER):]
        if text:  # a lone marker piece carries no word
            words.append(
                AlignedWord(
                    word=text,
                    start_frame=group[0][1],
                    end_frame=group[-1][2],
                    score=ctc_w * sum(r[3] for r in group),
                )
            )
        group.clear()

    for run in runs:
        tok = run[0]
        if bpe:
            if vocab.tokens[tok].startswith(BOUNDARY_MARKER):
                close_group()
            group.append(run)
        elif tok == space:
            close_group()
        else:
            group.append(run)
    close_group()
    return WordAlignment(words=tuple(words), frames=frames)


def load_transducer_alignment(path: str) -> WordAlignment:
    """Read a transducer word alignment: JSON lines sorted by start frame.

    Each row is {"word", "start_frame", "end_frame", "score"?}: frames are
    JSON integers and a score, when present, a finite number (booleans are
    neither).  A missing score becomes -inf.  Overlapping, unsorted, or
    negative intervals are rejected.
    """
    words: list[AlignedWord] = []
    for where, row in read_jsonl(path, frozenset({"word", "start_frame", "end_frame"})):
        word = row["word"]
        if not isinstance(word, str) or not word:
            raise InvalidValueError(f"{where}: empty word")
        start, end = row["start_frame"], row["end_frame"]
        if type(start) is not int or type(end) is not int:  # bool is an int subclass
            raise FormatError(f"{where}: frames must be integers")
        score = row.get("score")
        score = -math.inf if score is None else finite_number(score)
        if score is None:
            raise FormatError(f"{where}: score must be a finite number")
        words.append(AlignedWord(word=word, start_frame=start, end_frame=end, score=score))
    frames = max((w.end_frame for w in words), default=-1) + 1
    return WordAlignment(words=tuple(words), frames=frames)
