"""Frame-synchronous word spotting over a context graph.

Each frame seeds one fresh empty hypothesis at the trie root; live
hypotheses advance with CTC moves (re-emit and stay, blank and stay, emit a
child's token and move).  Reaching an end-of-word node reports a candidate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import LogProbMatrix, SpotterConfig
from .errors import DimensionMismatchError
from .graph import ROOT, ContextGraph


class SpottedCandidate(NamedTuple):
    """A detected biasing entry spanning the closed frame interval."""

    entry_id: int
    word: str
    start_frame: int
    end_frame: int
    score: float


def spot(
    logprobs: LogProbMatrix,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
) -> list[SpottedCandidate]:
    """Search the matrix for every biasing entry in the graph.

    Returns raw candidates, deduplicated to the best score per
    (entry, start_frame, end_frame) and sorted by frame interval; overlap
    resolution is find_best_hyps' job.  With cfg.pruning_enabled False the
    search is exhaustive (no beam or state pruning, no thresholds) and the
    best score per candidate equals the brute-force oracle's.

    A live state is a list [node, blank_seen, score, start].  With pruning
    states merge on the int key node << 1 | blank_seen, as in beam search;
    without it the key is (node, blank_seen, start), which merges only
    hypotheses with identical futures and keeps exhaustive mode exact yet
    polynomial.  A merge keeps the best score, ties to the earlier start;
    a candidate keeps its best score, and -inf scores (some emission had
    probability zero) are never recorded.

    The search walks graph.nodes as given, children in dict order.  The
    result does not depend on the order moves are made in: merges and
    records keep a best, the beam is a max and a filter, and the output is
    sorted by (start, end, entry).

    Two shortcuts leave the pruned result unchanged.  The first-token gate
    selects the admitted root children with one vectorized comparison,
    made in float64 as the scalar test was (NumPy 2 would compare a
    float32 row with a Python float in float32).  And a move is offered
    for merging only if it scores at least lo = max(0, best score offered
    so far this frame) - beam_thr, the fresh empty hypothesis counting as
    0; end-of-word moves are recorded whatever their score.  This is
    lossless because lo never exceeds the frame's final beam cutoff, which
    is the final lo, so a dropped move would have been filtered by the
    beam or lost its merge to a higher score.  Without pruning the beam is
    infinite and lo stays -inf.
    """
    if cfg is None:
        cfg = SpotterConfig()
    blank = graph.blank_id
    values = logprobs.values
    frames, width = values.shape
    if graph.max_token_id >= width or blank >= width:
        raise DimensionMismatchError(
            f"graph tokens need {max(graph.max_token_id, blank) + 1} columns, matrix has {width}"
        )
    # flat row-major view, no copy for a C-contiguous matrix; reads give Python floats
    lps = memoryview(values.reshape(-1))

    nodes = graph.nodes
    root_children = nodes[ROOT].children
    root_tokens = np.fromiter(root_children.keys(), dtype=np.intp, count=len(root_children))
    root_nodes = list(root_children.values())

    pruning = cfg.pruning_enabled
    cb_w = cfg.cb_w
    beta = cfg.beta_thr
    # without pruning every first token is admitted and no move is discarded
    gamma = cfg.gamma_thr if pruning else -math.inf
    beam = cfg.beam_thr if pruning else math.inf

    # (start, end, entry_id) -> best score seen for that candidate
    spotted: dict[tuple[int, int, int], float] = {}
    active: list[list] = []

    # offer and record act on the frame's current, best and lo, set in the loop
    def offer(node: int, blank_seen: bool, score: float, start: int) -> None:
        nonlocal best, lo
        key = node << 1 | blank_seen if pruning else (node, blank_seen, start)
        state = current.get(key)
        if state is None:
            current[key] = [node, blank_seen, score, start]
        elif score > state[2] or (score == state[2] and start < state[3]):
            state[2] = score
            state[3] = start
        if score > best:
            best = score
            lo = score - beam

    def record(entry: int, start: int, end: int, score: float) -> None:
        if math.isinf(score):
            return  # unreachable path (some emission had probability zero)
        key = (start, end, entry)
        prev = spotted.get(key)
        if prev is None or score > prev:
            spotted[key] = score

    for t in range(frames):
        off = t * width
        blank_lp = lps[off + blank]
        seed = not (pruning and blank_lp > beta)
        if not active and not seed:
            continue  # nothing alive and the empty hypothesis sits this frame out
        current = {}
        best = 0.0
        lo = best - beam

        if seed:
            # expand the fresh empty hypothesis into the admitted first tokens
            first = values[t, root_tokens].astype(np.float64)
            admitted = np.flatnonzero(first >= gamma)
            for i, lp in zip(admitted.tolist(), first[admitted].tolist()):
                child = root_nodes[i]
                score = lp + cb_w
                if score >= lo:
                    offer(child, False, score, t)
                entry = nodes[child].entry_id
                if entry >= 0:
                    record(entry, t, t, score)

        for node, blank_seen, base, start in active:
            score = base + blank_lp
            if score >= lo:
                offer(node, True, score, start)
            at = nodes[node]
            tok = at.token_id
            if not blank_seen:
                # re-emit and stay: continues the current emission run
                score = base + lps[off + tok] + cb_w
                if score >= lo:
                    offer(node, False, score, start)
                if at.entry_id >= 0:
                    record(at.entry_id, start, t, score)
            for ctok, child in at.children.items():
                if ctok == tok and not blank_seen:
                    continue  # a repeated label needs a separating blank
                score = base + lps[off + ctok] + cb_w
                if score >= lo:
                    offer(child, False, score, start)
                entry = nodes[child].entry_id
                if entry >= 0:
                    record(entry, start, t, score)

        # the final lo is the beam cutoff max(0, frame best) - beam_thr
        active = [state for state in current.values() if state[2] >= lo]

    canonicals = graph.canonicals
    return [
        SpottedCandidate(entry_id=e, word=canonicals[e], start_frame=s, end_frame=f, score=sc)
        for (s, f, e), sc in sorted(spotted.items())
    ]


def find_best_hyps(candidates: list[SpottedCandidate]) -> list[SpottedCandidate]:
    """Resolve overlaps: one winner per transitive overlap cluster.

    Closed intervals [s1,e1] and [s2,e2] overlap iff s1 <= e2 and s2 <= e1;
    clusters are the transitive closure of that relation.  The winner has the
    highest score, ties broken by longer interval, then lexicographic word;
    of equal ranks the first is kept.  Output is sorted by start frame.
    """
    # clusters are disjoint and met in (start, end) order, so their winners
    # come out sorted by start frame
    winners: list[SpottedCandidate] = []
    for cand in sorted(candidates, key=lambda c: (c.start_frame, c.end_frame)):
        entry, word, start, end, score = cand
        rank = (-score, start - end, word, start, entry)  # longer interval first
        if winners and start <= reach:
            if rank < best_rank:
                winners[-1] = cand
                best_rank = rank
            reach = max(reach, end)
        else:
            winners.append(cand)
            best_rank = rank
            reach = end
    return winners
