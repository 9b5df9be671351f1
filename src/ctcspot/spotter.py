"""Frame-synchronous word spotting over a context graph.

Each frame seeds one fresh empty hypothesis at the trie root; live
hypotheses advance with CTC moves (re-emit and stay, blank and stay, emit a
child's token and move).  Reaching an end-of-word node reports a candidate.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from .core import LogProbMatrix, SpotterConfig
from .errors import DimensionMismatchError
from .graph import ContextGraph

# The search bounds, in the natural-log domain.  spot reads them on each
# call, so the tests can patch them off for the exhaustive search.  The
# fresh empty hypothesis sits out a frame whose blank log-prob is above
# _BETA_THR, and seeds only the first tokens at least _GAMMA_THR likely.
_BETA_THR = math.log(0.80)
_GAMMA_THR = math.log(0.001)
# the beam: states further than this below the frame's best score are dropped
_BEAM_THR = 7.0
# histogram pruning, as in the max_active option of WFST decoders: with a
# finite beam, at most this many states stay live after each frame.  64 is
# above every live-state peak measured on the long_bpe and cli_corpus
# benchmark workloads, so it binds only on dense high-entropy input.
_MAX_ACTIVE = 64


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
    resolution is find_best_hyps' job.  cfg gives the bonus cb_w; the
    search bounds are the module constants _BETA_THR, _GAMMA_THR, _BEAM_THR
    and _MAX_ACTIVE.  With the first three off (0, -inf and inf, as the
    tests patch them) the search is exhaustive (a beta of 0 skips no frame,
    as no log-prob is above 0) and the best score per candidate equals the
    brute-force oracle's.

    A live state is a list [node, blank_seen, score, start].  With a
    finite beam states merge on the int key node << 1 | blank_seen, as in
    beam search; with an infinite beam the key is (node, blank_seen, start),
    which merges only hypotheses with identical futures and keeps the
    unbounded search exact yet polynomial.  A merge keeps the best score,
    ties to the earlier start; a candidate keeps its best score, and -inf
    scores (some emission had probability zero) are never recorded.

    The search walks each node's children in ascending token order.  The
    result does not depend on the order moves are made in: merges and
    records keep a best, the beam is a max and a filter, and the output is
    sorted by (start, end, entry).

    The fresh empty hypothesis sits out a frame whose blank log-prob is
    above _BETA_THR, and seeds only the root children whose log-prob is at
    least _GAMMA_THR.  Both tests run once for the whole matrix, before the
    frame loop, and both compare in float64 as a scalar test on Python
    floats would (NumPy 2 would compare a float32 column with a Python
    float in float32).

    With a finite beam, once the beam has filtered a frame's states, at
    most _MAX_ACTIVE of them stay live (histogram pruning): the best score
    first, then the earlier start, the smaller node, and blank_seen False
    before True.  States are unique per (node, blank_seen), so the order is
    total and the kept set does not depend on the order moves are made in.
    With an infinite beam there is no cap, so the exhaustive search stays
    exact.

    One shortcut leaves the result unchanged: a move is offered for
    merging only if it scores at least lo = max(0, best score offered so
    far this frame) - _BEAM_THR, the fresh empty hypothesis counting as 0;
    end-of-word moves are recorded whatever their score.  This is lossless
    because lo never exceeds the frame's final beam cutoff, which is the
    final lo, so a dropped move would have been filtered by the beam or
    lost its merge to a higher score.  The states that survive the beam
    are therefore the same with or without the shortcut, and the cap ranks
    only those.  With an infinite beam lo stays -inf.
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

    token_ids, entry_ids, first_child = graph.token_ids, graph.entry_ids, graph.first_child
    # the root is node 0 and its children are nodes 1 .. first_child[1] - 1
    root_tokens = np.array(token_ids[1:first_child[1]], dtype=np.intp)

    cb_w = cfg.cb_w
    beam = _BEAM_THR
    # a beam bounds the live states by merging equal ones; with no beam
    # there is no bound to keep, and hypotheses stay apart per start
    merge_starts = beam < math.inf
    max_active = _MAX_ACTIVE if merge_starts else math.inf

    # the blank-skip test and the first-token gate for every frame at once
    seeded = np.flatnonzero(~(values[:, blank].astype(np.float64) > _BETA_THR))
    first = values[np.ix_(seeded, root_tokens)].astype(np.float64)
    rows, cols = np.nonzero(first >= _GAMMA_THR)
    gate_lps = first[rows, cols].tolist()
    gate_nodes = (cols + 1).tolist()
    # frame t seeds gate_nodes[cuts[t]:cuts[t + 1]], in root-children order
    cuts = np.searchsorted(seeded[rows], np.arange(frames + 1)).tolist()

    # (start, end, entry_id) -> best score seen for that candidate
    spotted: dict[tuple[int, int, int], float] = {}
    active: list[list] = []

    # offer and record act on the frame's current, best and lo, set in the loop
    def offer(node: int, blank_seen: bool, score: float, start: int) -> None:
        nonlocal best, lo
        key = node << 1 | blank_seen if merge_starts else (node, blank_seen, start)
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
        # a -inf score (some emission had probability zero) beats no default
        key = (start, end, entry)
        if score > spotted.get(key, -math.inf):
            spotted[key] = score

    for t in range(frames):
        a, b = cuts[t], cuts[t + 1]
        if a == b and not active:
            continue  # nothing alive and the empty hypothesis seeds nothing
        first_moves = zip(gate_nodes[a:b], gate_lps[a:b])
        off = t * width
        blank_lp = lps[off + blank]
        current = {}
        best = 0.0
        lo = best - beam

        # expand the fresh empty hypothesis into the admitted first tokens
        for child, lp in first_moves:
            score = lp + cb_w
            if score >= lo:
                offer(child, False, score, t)
            entry = entry_ids[child]
            if entry >= 0:
                record(entry, t, t, score)

        for node, blank_seen, base, start in active:
            score = base + blank_lp
            if score >= lo:
                offer(node, True, score, start)
            tok = token_ids[node]
            if not blank_seen:
                # re-emit and stay: continues the current emission run
                score = base + lps[off + tok] + cb_w
                if score >= lo:
                    offer(node, False, score, start)
                entry = entry_ids[node]
                if entry >= 0:
                    record(entry, start, t, score)
            for child in range(first_child[node], first_child[node + 1]):
                ctok = token_ids[child]
                if ctok == tok and not blank_seen:
                    continue  # a repeated label needs a separating blank
                score = base + lps[off + ctok] + cb_w
                if score >= lo:
                    offer(child, False, score, start)
                entry = entry_ids[child]
                if entry >= 0:
                    record(entry, start, t, score)

        # the final lo is the beam cutoff max(0, frame best) - _BEAM_THR
        active = [state for state in current.values() if state[2] >= lo]
        if len(active) > max_active:
            active = heapq.nlargest(max_active, active, key=_rank)

    canonicals = graph.canonicals
    return [
        SpottedCandidate(e, canonicals[e], s, f, sc)
        for (s, f, e), sc in sorted(spotted.items())
    ]


def _rank(state: list) -> tuple:
    """Cap order of a live state [node, blank_seen, score, start], larger first:
    higher score, earlier start, smaller node, blank_seen False."""
    node, blank_seen, score, start = state
    return score, -start, -node, not blank_seen


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
