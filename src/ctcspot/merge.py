"""Splicing accepted candidates into greedy or transducer transcripts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .align import AlignedWord, WordAlignment
from .errors import DimensionMismatchError
from .spotter import SpottedCandidate


@dataclass(frozen=True)
class MergeDecision:
    """One candidate's comparison against the words it would displace.

    greedy_score_sum is the threshold actually used: the overlapped words'
    score sum, or the weighted blank mass of the interval when nothing
    overlaps (+inf when that mass is unavailable, so nothing is inserted
    into unscored silence).
    """

    candidate: SpottedCandidate
    overlapped_words: tuple[AlignedWord, ...]
    greedy_score_sum: float
    accepted: bool


@dataclass(frozen=True)
class MergeResult:
    """Final transcript after candidate splicing."""

    text: str
    decisions: tuple[MergeDecision, ...]
    words: tuple[AlignedWord, ...]


def merge_ctc(
    alignment: WordAlignment,
    candidates: Sequence[SpottedCandidate],
    blank_scores: Sequence[float] | None = None,
) -> MergeResult:
    """Accept each candidate iff it outscores the greedy words it overlaps.

    Candidates (non-overlapping, e.g. find_best_hyps output) are processed
    left to right against the current word list: an accepted candidate
    removes every word its closed interval touches and takes their place.  A
    candidate overlapping no words is compared against the blank mass of its
    interval (`blank_scores`: per-frame ctc_w-weighted blank log-probs).
    """
    return _result(alignment.words, _decide(alignment, candidates, blank_scores))


def merge_transducer(
    transducer_alignment: WordAlignment,
    ctc_alignment: WordAlignment,
    candidates: Sequence[SpottedCandidate],
    blank_scores: Sequence[float] | None = None,
) -> MergeResult:
    """Filter candidates against the CTC greedy alignment, then splice winners.

    Acceptance decisions are made exactly as in merge_ctc (the transducer's
    own scores never enter the comparison); every accepted candidate then
    unconditionally replaces the transducer words its interval touches.

    Raises:
        DimensionMismatchError: a transducer word ends at or after the CTC
            alignment's last frame, so the two do not share a frame rate.
    """
    words = transducer_alignment.words
    if words and words[-1].end_frame >= ctc_alignment.frames:
        raise DimensionMismatchError(
            f"transducer word {words[-1].word!r} ends at frame {words[-1].end_frame}, "
            f"the CTC matrix has {ctc_alignment.frames} frames"
        )
    return _result(words, _decide(ctc_alignment, candidates, blank_scores))


def _decide(
    alignment: WordAlignment,
    candidates: Sequence[SpottedCandidate],
    blank_scores: Sequence[float] | None,
) -> tuple[MergeDecision, ...]:
    """Each candidate's accept/reject decision against a CTC alignment, in frame order."""
    kept = list(alignment.words)
    decisions: list[MergeDecision] = []
    for cand in sorted(candidates, key=lambda c: (c.start_frame, c.end_frame)):
        over = [w for w in kept if _touches(w, cand)]
        if over:
            threshold = sum(w.score for w in over)
        elif blank_scores is not None:
            threshold = float(sum(blank_scores[cand.start_frame:cand.end_frame + 1]))
        else:
            threshold = math.inf
        accepted = cand.score > threshold
        decisions.append(
            MergeDecision(
                candidate=cand,
                overlapped_words=tuple(over),
                greedy_score_sum=threshold,
                accepted=accepted,
            )
        )
        if accepted and over:
            kept = [w for w in kept if not _touches(w, cand)]
    return tuple(decisions)


def _touches(word: AlignedWord, cand: SpottedCandidate) -> bool:
    """True when the closed frame intervals of word and candidate overlap."""
    return word.start_frame <= cand.end_frame and cand.start_frame <= word.end_frame


def _result(words: Sequence[AlignedWord], decisions: tuple[MergeDecision, ...]) -> MergeResult:
    """The words with each accepted candidate replacing the words it touches, in frame order."""
    accepted = [d.candidate for d in decisions if d.accepted]
    kept = [w for w in words if not any(_touches(w, c) for c in accepted)]
    inserted = [
        AlignedWord(word=c.word, start_frame=c.start_frame, end_frame=c.end_frame, score=c.score)
        for c in accepted
    ]
    spliced = tuple(sorted(kept + inserted, key=lambda w: (w.start_frame, w.end_frame)))
    return MergeResult(text=" ".join(w.word for w in spliced), decisions=decisions, words=spliced)
