"""Word-level scoring: WER, biasing-word precision/recall, list mining."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import canonical_form

logger = logging.getLogger(__name__)

_MIN_TERM_LEN = 3  # mined terms are at least this many characters
_MAX_ACCURACY = 0.5  # and recognized in at most this share of their occurrences


@dataclass(frozen=True)
class EditOp:
    """One step of a word alignment.

    kind is "match", "sub", "del" (ref word missing from hyp), or "ins"
    (hyp word with no ref counterpart).  The absent side is None.
    """

    kind: str
    ref: str | None
    hyp: str | None


def align_words(ref: Sequence[str], hyp: Sequence[str]) -> list[EditOp]:
    """Minimum-edit alignment of two word sequences.

    Ties are broken match > sub > del > ins, decided left to right, so the
    op list is deterministic.
    """
    n, m = len(ref), len(hyp)
    # dist[i][j] = edit distance between ref[i:] and hyp[j:]; filling from
    # the suffixes lets the forward walk below read its tie-break locally.
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][m] = n - i
    for j in range(m + 1):
        dist[n][j] = m - j
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            step = dist[i + 1][j + 1] + (ref[i] != hyp[j])
            dist[i][j] = min(step, dist[i + 1][j] + 1, dist[i][j + 1] + 1)
    ops: list[EditOp] = []
    i = j = 0
    while i < n or j < m:
        d = dist[i][j]
        if i < n and j < m and ref[i] == hyp[j] and d == dist[i + 1][j + 1]:
            ops.append(EditOp(kind="match", ref=ref[i], hyp=hyp[j]))
            i += 1
            j += 1
        elif i < n and j < m and d == dist[i + 1][j + 1] + 1:
            ops.append(EditOp(kind="sub", ref=ref[i], hyp=hyp[j]))
            i += 1
            j += 1
        elif i < n and d == dist[i + 1][j] + 1:
            ops.append(EditOp(kind="del", ref=ref[i], hyp=None))
            i += 1
        else:
            ops.append(EditOp(kind="ins", ref=None, hyp=hyp[j]))
            j += 1
    return ops


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    return sum(1 for op in align_words(ref, hyp) if op.kind != "match")


def _words(text: str) -> list[str]:
    """A transcript's words in canonical_form: the one way a score reads text."""
    return canonical_form(text).split()


def wer(pairs: Iterable[tuple[str, str]]) -> float:
    """Corpus word error rate in percent: 100 * edits / reference words.

    Both sides are read through canonical_form, so case and whitespace runs
    are not errors.  An empty corpus (no reference words at all) scores 0.0
    when every hypothesis is empty too, else 100 per stray hypothesis word.
    """
    errors = 0
    ref_words = 0
    stray = 0
    for ref_text, hyp_text in pairs:
        ref = _words(ref_text)
        hyp = _words(hyp_text)
        errors += edit_distance(ref, hyp)
        ref_words += len(ref)
        stray += len(hyp)
    if ref_words == 0:
        if stray:
            logger.warning("empty reference with %d hypothesis words", stray)
            return 100.0 * stray
        return 0.0
    return 100.0 * errors / ref_words


def fscore(precision: float, recall: float) -> float:
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fuse_phrases(words: Sequence[str], phrases: Iterable[str]) -> list[str]:
    """Rewrite multi-word phrases as single tokens, longest phrase first.

    "geforce rtx" in the phrase set turns ["the", "geforce", "rtx"] into
    ["the", "geforce rtx"] so downstream counting sees one unit.
    """
    multi = [p.split() for p in phrases if len(p.split()) >= 2]
    multi.sort(key=lambda parts: (-len(parts), " ".join(parts)))
    out = list(words)
    for parts in multi:
        k = len(parts)
        fused: list[str] = []
        i = 0
        while i < len(out):
            if out[i : i + k] == parts:
                fused.append(" ".join(parts))
                i += k
            else:
                fused.append(out[i])
                i += 1
        out = fused
    return out


def score_context_words(
    ops: Iterable[EditOp], biasing_words: Iterable[str]
) -> dict[str, dict[str, int]]:
    """Per-word hit/miss counts restricted to the biasing list.

    A listed word matched in the hypothesis is a hit.  Otherwise a listed
    reference word is a miss and a listed hypothesis word a false alarm, so
    a substitution between two listed words charges both.
    """
    targets = set(biasing_words)
    counts: dict[str, dict[str, int]] = {}

    def bump(word: str, key: str) -> None:
        row = counts.setdefault(word, {"tp": 0, "fp": 0, "fn": 0})
        row[key] += 1

    for op in ops:
        if op.kind == "match":
            if op.ref in targets:
                bump(op.ref, "tp")
        else:
            if op.ref in targets:
                bump(op.ref, "fn")
            if op.hyp in targets:
                bump(op.hyp, "fp")
    return counts


@dataclass(frozen=True)
class EvalReport:
    """Corpus scores plus the per-word breakdown."""

    wer: float
    precision: float
    recall: float
    fscore: float
    per_word: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    num_utterances: int = 0
    num_ref_words: int = 0

    def as_dict(self) -> dict:
        return {
            "wer": self.wer,
            "precision": self.precision,
            "recall": self.recall,
            "fscore": self.fscore,
            "num_utterances": self.num_utterances,
            "num_ref_words": self.num_ref_words,
            "per_word": {w: dict(row) for w, row in sorted(self.per_word.items())},
        }


def evaluate(
    pairs: Sequence[tuple[str, str]],
    biasing_words: Iterable[str],
) -> EvalReport:
    """Score a corpus of (reference, hypothesis) text pairs.

    WER, precision/recall and the per-word counts all read words through
    canonical_form, as do the biasing words.  Precision/recall count the
    biasing words over every pair's phrase-fused words, so a multi-word
    entry counts once.
    """
    targets = [w for w in map(canonical_form, biasing_words) if w]
    phrases = [w for w in targets if " " in w]  # the only entries that can fuse

    def fused(text: str) -> list[str]:
        return fuse_phrases(_words(text), phrases)

    per_word = score_context_words(
        (op for ref, hyp in pairs for op in align_words(fused(ref), fused(hyp))), targets
    )
    tp = sum(row["tp"] for row in per_word.values())
    fp = sum(row["fp"] for row in per_word.values())
    fn = sum(row["fn"] for row in per_word.values())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(
        wer=wer(pairs),
        precision=precision,
        recall=recall,
        fscore=fscore(precision, recall),
        per_word=per_word,
        num_utterances=len(pairs),
        num_ref_words=sum(len(_words(ref)) for ref, _ in pairs),
    )


def mine_biasing_list(pairs: Sequence[tuple[str, str]]) -> list[tuple[str, int, int]]:
    """Find reference terms the hypotheses keep getting wrong.

    Counts every reference word and every adjacent word pair, read and
    returned in canonical_form, so a hypothesis differing only in case
    matches; a term is kept when its recognition accuracy (exact matches
    over occurrences) is at most _MAX_ACCURACY (0.5) and it is at least
    _MIN_TERM_LEN (3) characters.
    Returns (term, occurrences, matches) sorted by frequency, most
    frequent first, ties alphabetical.
    """
    occurrences: dict[str, int] = {}
    matches: dict[str, int] = {}
    for ref_text, hyp_text in pairs:
        ref = _words(ref_text)
        hyp = _words(hyp_text)
        ops = [op for op in align_words(ref, hyp) if op.kind != "ins"]
        # ops is now positional with ref: op k consumed ref[k]
        hit = [op.kind == "match" for op in ops]
        for k, word in enumerate(ref):
            occurrences[word] = occurrences.get(word, 0) + 1
            matches[word] = matches.get(word, 0) + int(hit[k])
            if k + 1 < len(ref):
                term = f"{word} {ref[k + 1]}"
                occurrences[term] = occurrences.get(term, 0) + 1
                matches[term] = matches.get(term, 0) + int(hit[k] and hit[k + 1])
    mined = [
        (term, total, matches[term])
        for term, total in occurrences.items()
        if len(term) >= _MIN_TERM_LEN and matches[term] <= _MAX_ACCURACY * total
    ]
    mined.sort(key=lambda row: (-row[1], row[0]))
    return mined
