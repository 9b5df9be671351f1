"""Decoding one utterance: spotting candidates and splicing the accepted ones
into greedy or transducer transcripts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .align import AlignedWord, WordAlignment, greedy_ctc_align
from .core import LogProbMatrix, SpotterConfig, Vocabulary
from .errors import DimensionMismatchError
from .graph import ContextGraph
from .spotter import SpottedCandidate, find_best_hyps, spot


@dataclass(frozen=True)
class MergeDecision:
    """One candidate's comparison against the words it would displace.

    greedy_score_sum is the threshold actually used: the overlapped words'
    score sum, or the weighted blank mass of the interval when nothing
    overlaps.
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


def decode_utterance(
    logprobs: LogProbMatrix,
    vocab: Vocabulary,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
    transducer: WordAlignment | None = None,
) -> tuple[WordAlignment, MergeResult]:
    """Spot the graph's words in one utterance and splice the winners in:
    (greedy CTC alignment, merge result).

    The candidates are judged against the greedy words and blank frames
    weighted by cfg.ctc_w, and spliced into `transducer` when one is given,
    else into the greedy words.  The greedy alignment runs first, so a
    matrix of the wrong width fails with the vocabulary-width message.

    Raises:
        DimensionMismatchError: the matrix is not as wide as the vocabulary,
            or a transducer word lies past its last frame.
    """
    cfg = cfg if cfg is not None else SpotterConfig()
    greedy = greedy_ctc_align(logprobs, vocab, ctc_w=cfg.ctc_w)
    candidates = find_best_hyps(spot(logprobs, graph, cfg))
    blank_scores = cfg.ctc_w * logprobs.values[:, vocab.blank_id].astype(np.float64)
    result = merge_transducer(
        transducer if transducer is not None else greedy, greedy, candidates, blank_scores
    )
    return greedy, result


def merge_ctc(
    alignment: WordAlignment,
    candidates: Sequence[SpottedCandidate],
    blank_scores: Sequence[float],
) -> MergeResult:
    """merge_transducer with the greedy CTC alignment on both sides.

    The frame check cannot fail here: a WordAlignment keeps every word
    inside its own frames.
    """
    return merge_transducer(alignment, alignment, candidates, blank_scores)


def merge_transducer(
    transducer_alignment: WordAlignment,
    ctc_alignment: WordAlignment,
    candidates: Sequence[SpottedCandidate],
    blank_scores: Sequence[float],
) -> MergeResult:
    """Splice candidates that beat the CTC greedy words into the transducer words.

    A candidate is accepted iff it outscores the CTC words it overlaps.
    Candidates (non-overlapping, e.g. find_best_hyps output) are decided left
    to right against the current CTC word list: an accepted candidate removes
    every CTC word its closed interval touches.  A candidate overlapping no
    CTC words is compared against the blank mass of its interval
    (`blank_scores`: per-frame ctc_w-weighted blank log-probs).  The
    transducer's own scores never enter the comparison; every accepted
    candidate unconditionally replaces the transducer words its interval
    touches.

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
    kept = list(ctc_alignment.words)
    decisions: list[MergeDecision] = []
    for cand in sorted(candidates, key=lambda c: (c.start_frame, c.end_frame)):
        over = [w for w in kept if _touches(w, cand)]
        if over:
            threshold = sum(w.score for w in over)
        else:
            threshold = float(sum(blank_scores[cand.start_frame:cand.end_frame + 1]))
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
    return _result(words, tuple(decisions))


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
