"""Frame-synchronous word spotting over a context graph.

Each frame seeds one fresh empty hypothesis at the trie root; live
hypotheses advance with CTC moves (re-emit and stay, blank and stay, emit a
child's token and move).  Reaching an end-of-word node reports a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LogProbMatrix, SpotterConfig
from .errors import DimensionMismatchError, InvalidValueError
from .graph import ROOT, ContextGraph


@dataclass(slots=True)
class Hypothesis:
    """A live search state inside the context graph."""

    node: int
    score: float
    start_frame: int  # frame the hypothesis was seeded (= its first emission)
    blank_seen: bool  # last emission was a blank


@dataclass(frozen=True)
class SpottedCandidate:
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

    The search walks graph.nodes as given, children in dict order.  The
    result does not depend on the order moves are made in: state merging
    keeps the best score per key (ties to the earlier start), candidates
    keep the best score per key, the beam is a max and a filter, and the
    output is sorted by (start, end, entry).

    Two shortcuts leave the pruned result unchanged.  The first-token gate
    selects the admitted root children with one vectorized comparison,
    made in float64 as the scalar test was (NumPy 2 would compare a
    float32 row with a Python float in float32).  And since the fresh
    empty hypothesis scores 0, a frame's beam cutoff is never below
    -beam_thr: a move scoring less is never offered for state merging,
    which it could only lose or win with a score the beam then drops.
    End-of-word moves are recorded either way.
    """
    if cfg is None:
        cfg = SpotterConfig()
    blank = graph.blank_id
    if blank is None:
        raise InvalidValueError("graph has no blank id; build it with blank_id set")
    values = logprobs.values
    frames, width = values.shape
    if graph.max_token_id >= width or blank >= width:
        raise DimensionMismatchError(
            f"graph tokens need {max(graph.max_token_id, blank) + 1} columns, matrix has {width}"
        )

    nodes = graph.nodes
    root_children = nodes[ROOT].children
    root_tokens = np.fromiter(root_children.keys(), dtype=np.intp, count=len(root_children))
    root_nodes = list(root_children.values())

    pruning = cfg.pruning_enabled
    cb_w = cfg.cb_w
    beta = cfg.beta_thr
    beam = cfg.beam_thr
    # without pruning every first token is admitted and no move is discarded
    gamma = cfg.gamma_thr if pruning else -math.inf
    floor = -beam if pruning else -math.inf

    # (entry_id, start, end) -> best score seen for that candidate
    spotted: dict[tuple[int, int, int], float] = {}
    active: dict[tuple, Hypothesis] = {}

    for t in range(frames):
        row = values[t]
        blank_lp = float(row[blank])
        if not active and pruning and blank_lp > beta:
            continue  # nothing alive and the empty hypothesis sits this frame out
        current: dict[tuple, Hypothesis] = {}

        if not (pruning and blank_lp > beta):
            # expand the fresh empty hypothesis into the admitted first tokens
            first = row[root_tokens].astype(np.float64)
            admitted = np.flatnonzero(first >= gamma)
            for i, lp in zip(admitted.tolist(), first[admitted].tolist()):
                child = root_nodes[i]
                score = lp + cb_w
                if score >= floor:
                    _offer(current, pruning, child, False, score, t)
                entry = nodes[child].entry_id
                if entry >= 0:
                    _record(spotted, entry, t, t, score)

        for hyp in active.values():
            node = hyp.node
            base = hyp.score
            start = hyp.start_frame
            score = base + blank_lp
            if score >= floor:
                _offer(current, pruning, node, True, score, start)
            at = nodes[node]
            tok = at.token_id
            if not hyp.blank_seen:
                # re-emit and stay: continues the current emission run
                score = base + float(row[tok]) + cb_w
                if score >= floor:
                    _offer(current, pruning, node, False, score, start)
                if at.entry_id >= 0:
                    _record(spotted, at.entry_id, start, t, score)
            for ctok, child in at.children.items():
                if ctok == tok and not hyp.blank_seen:
                    continue  # a repeated label needs a separating blank
                score = base + float(row[ctok]) + cb_w
                if score >= floor:
                    _offer(current, pruning, child, False, score, start)
                entry = nodes[child].entry_id
                if entry >= 0:
                    _record(spotted, entry, start, t, score)

        if pruning and current:
            # the fresh empty hypothesis (score 0) joins the comparison
            best = 0.0
            for hyp in current.values():
                if hyp.score > best:
                    best = hyp.score
            cutoff = best - beam
            active = {k: h for k, h in current.items() if h.score >= cutoff}
        else:
            active = current

    canonicals = graph.canonicals
    out = [
        SpottedCandidate(entry_id=e, word=canonicals[e], start_frame=s, end_frame=f, score=sc)
        for (e, s, f), sc in spotted.items()
    ]
    out.sort(key=lambda c: (c.start_frame, c.end_frame, c.entry_id))
    return out


def _offer(
    current: dict,
    pruning: bool,
    node: int,
    blank_seen: bool,
    score: float,
    start: int,
) -> None:
    """State-merge a transition: keep the best score, ties to the earlier start.

    With pruning the key is (node, blank_seen) as in beam search; without it
    the start frame joins the key, which merges only hypotheses with
    identical futures and keeps exhaustive mode exact yet polynomial.
    """
    key = (node, blank_seen) if pruning else (node, blank_seen, start)
    prev = current.get(key)
    if prev is None:
        current[key] = Hypothesis(node=node, score=score, start_frame=start, blank_seen=blank_seen)
    elif score > prev.score or (score == prev.score and start < prev.start_frame):
        prev.score = score
        prev.start_frame = start


def _record(spotted: dict, entry: int, start: int, end: int, score: float) -> None:
    if math.isinf(score):
        return  # unreachable path (some emission had probability zero)
    key = (entry, start, end)
    prev = spotted.get(key)
    if prev is None or score > prev:
        spotted[key] = score


def find_best_hyps(candidates: list[SpottedCandidate]) -> list[SpottedCandidate]:
    """Resolve overlaps: one winner per transitive overlap cluster.

    Closed intervals [s1,e1] and [s2,e2] overlap iff s1 <= e2 and s2 <= e1;
    clusters are the transitive closure of that relation.  The winner has the
    highest score, ties broken by longer interval, then lexicographic word.
    Output is sorted by start frame.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda c: (c.start_frame, c.end_frame))
    clusters: list[list[SpottedCandidate]] = []
    cluster = [ordered[0]]
    reach = ordered[0].end_frame
    for cand in ordered[1:]:
        if cand.start_frame <= reach:
            cluster.append(cand)
            reach = max(reach, cand.end_frame)
        else:
            clusters.append(cluster)
            cluster = [cand]
            reach = cand.end_frame
    clusters.append(cluster)
    winners = [
        min(
            cl,
            key=lambda c: (
                -c.score,
                c.start_frame - c.end_frame,  # longer interval first
                c.word,
                c.start_frame,
                c.entry_id,
            ),
        )
        for cl in clusters
    ]
    winners.sort(key=lambda c: c.start_frame)
    return winners
