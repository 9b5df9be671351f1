"""Brute-force references the fast decoders are tested against.

Everything here favors obviousness over speed: paths are enumerated one by
one and the greedy decoder is a plain loop.  Nothing is shared with the
production modules.
"""

from __future__ import annotations

from ctcspot import BOUNDARY_MARKER, LogProbMatrix, Vocabulary

# Enumeration is exponential in the interval length; this cap keeps a stray
# call from hanging the suite while still covering multi-word fixtures.
MAX_INTERVAL = 25


def best_path_score(
    logprobs: LogProbMatrix,
    interval: tuple[int, int],
    labels: tuple[int, ...] | list[int],
    cb_w: float,
    blank_id: int,
    anchor_start: bool = True,
) -> float | None:
    """Max score over explicit CTC frame paths emitting `labels` on an interval.

    A path assigns one token (a label or the blank) to every frame of the
    closed interval [start, end].  It is valid when collapsing consecutive
    repeats and then removing blanks yields exactly `labels`, and the final
    frame emits the final label.  With anchor_start (the default, matching
    the spotter's per-frame seeding) the first frame must emit the first
    label; pass False for the trailing-anchor-only variant.

    Score of a path = sum of the emitted log-probs + cb_w per non-blank frame.

    Returns:
        The maximum path score, or None when no valid path exists.
    """
    start, end = interval
    assert 0 <= start <= end < logprobs.frames, "interval outside the matrix"
    assert end - start + 1 <= MAX_INTERVAL, "oracle is exponential; keep intervals small"
    labels = tuple(int(x) for x in labels)
    assert labels, "labels must be non-empty"
    assert blank_id not in labels, "labels may not contain the blank"

    rows = [
        [float(v) for v in logprobs.values[t]] for t in range(start, end + 1)
    ]
    width = end - start + 1
    symbols = [blank_id]
    for lab in labels:
        if lab not in symbols:
            symbols.append(lab)
    total = len(labels)
    best: float | None = None

    def walk(offset: int, last_raw: int, matched: int, score: float) -> None:
        nonlocal best
        if offset == width:
            if matched == total and last_raw == labels[-1]:
                if best is None or score > best:
                    best = score
            return
        remaining = width - offset
        needed = total - matched
        if matched < total and last_raw == labels[matched]:
            needed += 1  # a separating blank before re-emitting the same label
        if remaining < needed:
            return
        for sym in symbols:
            if sym == blank_id:
                walk(offset + 1, sym, matched, score + rows[offset][sym])
            elif sym == last_raw:
                # run continuation: same label on consecutive frames collapses
                walk(offset + 1, sym, matched, score + rows[offset][sym] + cb_w)
            elif matched < total and labels[matched] == sym:
                walk(offset + 1, sym, matched + 1, score + rows[offset][sym] + cb_w)
            # any other symbol makes the collapse deviate from labels

    if anchor_start:
        first = labels[0]
        walk(1, first, 1, rows[0][first] + cb_w)
    else:
        walk(0, -1, 0, 0.0)
    return best


def count_paths(
    length: int,
    labels: tuple[int, ...] | list[int],
    blank_id: int,
    anchor_start: bool = True,
) -> int:
    """Number of valid frame paths for `labels` over `length` frames.

    Same validity rules as best_path_score; counts by explicit enumeration,
    so tests can compare it against the closed-form trellis count.
    """
    assert length <= MAX_INTERVAL
    labels = tuple(int(x) for x in labels)
    assert labels and blank_id not in labels
    symbols = [blank_id]
    for lab in labels:
        if lab not in symbols:
            symbols.append(lab)
    total = len(labels)
    count = 0

    def walk(offset: int, last_raw: int, matched: int) -> None:
        nonlocal count
        if offset == length:
            if matched == total and last_raw == labels[-1]:
                count += 1
            return
        remaining = length - offset
        needed = total - matched
        if matched < total and last_raw == labels[matched]:
            needed += 1
        if remaining < needed:
            return
        for sym in symbols:
            if sym == blank_id:
                walk(offset + 1, sym, matched)
            elif sym == last_raw:
                walk(offset + 1, sym, matched)
            elif matched < total and labels[matched] == sym:
                walk(offset + 1, sym, matched + 1)

    if anchor_start:
        if length >= 1:
            walk(1, labels[0], 1)
    else:
        walk(0, -1, 0)
    return count


def reference_greedy_decode(
    logprobs: LogProbMatrix, vocab: Vocabulary
) -> tuple[list[int], str]:
    """Independent argmax / collapse-repeats / strip-blanks decoder.

    Shares no code with the aligner: argmax by linear scan, word splitting by
    string surgery on the concatenated pieces.

    Returns:
        (collapsed non-blank token ids, space-joined word text).
    """
    collapsed: list[int] = []
    prev = -1
    for t in range(logprobs.frames):
        row = logprobs.values[t]
        arg = 0
        top = float(row[0])
        for v in range(1, vocab.size):
            x = float(row[v])
            if x > top:  # ties keep the lowest index
                top = x
                arg = v
        if arg != prev and arg != vocab.blank_id:
            collapsed.append(arg)
        prev = arg
    raw = "".join(vocab.tokens[i] for i in collapsed)
    text = " ".join(raw.replace(BOUNDARY_MARKER, " ").split())
    return collapsed, text


def levenshtein_distance(ref: list[str], hyp: list[str]) -> int:
    """Textbook quadratic word edit distance (insert/delete/substitute at cost 1)."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if r == h else 1),
            )
        prev = cur
    return prev[len(hyp)]


def exhaustive_segmentations(word: str, pieces: list[str]) -> list[tuple[str, ...]]:
    """Every way to write `word` as a concatenation of the given pieces."""
    assert len(word) <= 16, "exponential; keep test words short"
    out: list[tuple[str, ...]] = []

    def walk(pos: int, acc: tuple[str, ...]) -> None:
        if pos == len(word):
            out.append(acc)
            return
        for p in pieces:
            if word.startswith(p, pos):
                walk(pos + len(p), acc + (p,))

    walk(0, ())
    return out

