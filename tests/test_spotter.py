"""Frame-synchronous spotting against the brute-force path oracle."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import EXHAUSTIVE, log_softmax_rows, one_hot_matrix, random_matrix, search_bounds
from ctcspot import (
    BiasingEntry,
    ContextGraph,
    DimensionMismatchError,
    LogProbMatrix,
    SpotterConfig,
    SpottedCandidate,
    Vocabulary,
    build_graph,
    find_best_hyps,
    load_logprobs,
    spot,
    spotter,
)
from oracle import best_path_score

CB_W = SpotterConfig().cb_w


def probs_matrix(rows: list[list[float]]) -> LogProbMatrix:
    return LogProbMatrix(values=log_softmax_rows(np.log(np.array(rows))), normalized=True)


def entries_graph(*seqs: tuple[int, ...]):
    entries = [
        BiasingEntry(canonical=f"w{i}", transcriptions=(tuple(s),)) for i, s in enumerate(seqs)
    ]
    return entries, build_graph(entries, blank_id=0)


def exhaustive_spot(
    lp: LogProbMatrix, graph: ContextGraph, cfg: SpotterConfig | None = None
) -> list[SpottedCandidate]:
    """spot with every search bound off."""
    with search_bounds(**EXHAUSTIVE):
        return spot(lp, graph, cfg)


class TestAgainstOracle:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_unpruned_equals_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 6))
        width = int(rng.integers(2, 5))
        lp = random_matrix(rng, frames, width)
        cb_w = float(rng.choice([0.0, 1.5, 3.0]))

        seen: set[tuple[int, ...]] = set()
        entries: list[BiasingEntry] = []
        for i in range(int(rng.integers(1, 3))):
            trs = []
            for _ in range(int(rng.integers(1, 3))):
                n = int(rng.integers(1, 4))
                seq = tuple(int(rng.integers(1, width)) for _ in range(n))
                if seq not in seen:
                    seen.add(seq)
                    trs.append(seq)
            if trs:
                entries.append(BiasingEntry(canonical=f"w{i}", transcriptions=tuple(trs)))
        if not entries:
            entries = [BiasingEntry(canonical="w0", transcriptions=((1,),))]
        graph = build_graph(entries, blank_id=0)

        cfg = SpotterConfig(cb_w=cb_w)
        got = {
            (c.entry_id, c.start_frame, c.end_frame): c.score
            for c in exhaustive_spot(lp, graph, cfg)
        }

        expect: dict[tuple[int, int, int], float] = {}
        for eid, ent in enumerate(entries):
            for s in range(frames):
                for e in range(s, frames):
                    scores = [
                        best_path_score(lp, (s, e), labels, cb_w, blank_id=0)
                        for labels in ent.transcriptions
                    ]
                    finite = [x for x in scores if x is not None]
                    if finite:
                        expect[(eid, s, e)] = max(finite)

        assert set(got) == set(expect)
        for key, want in expect.items():
            assert got[key] == pytest.approx(want, abs=1e-6)

    def test_multiple_transcriptions_take_the_best(self):
        # [1,2] scores higher than [1] on this matrix; the single entry
        # reports one candidate per interval with the max over both
        lp = probs_matrix([[0.1, 0.6, 0.2, 0.1], [0.1, 0.1, 0.7, 0.1]])
        entries = [BiasingEntry(canonical="w", transcriptions=((1,), (1, 2)))]
        graph = build_graph(entries, blank_id=0)
        got = {(c.start_frame, c.end_frame): c.score for c in exhaustive_spot(lp, graph)}
        one = best_path_score(lp, (0, 1), [1], CB_W, 0)
        two = best_path_score(lp, (0, 1), [1, 2], CB_W, 0)
        assert got[(0, 1)] == pytest.approx(max(one, two))

    def test_repeated_label_needs_separating_blank(self):
        _, graph = entries_graph((1, 1))
        assert exhaustive_spot(one_hot_matrix([1, 1], width=2), graph) == []
        cands = exhaustive_spot(one_hot_matrix([1, 0, 1], width=2), graph)
        assert [(c.start_frame, c.end_frame) for c in cands] == [(0, 2)]
        # log 1 + cb_w, blank log 1, log 1 + cb_w
        assert cands[0].score == pytest.approx(2 * CB_W)


class TestPruning:
    def test_blank_skip_suppresses_fresh_starts(self):
        lp = probs_matrix([[0.9, 0.1]])  # blank at 0.9 > 0.8
        _, graph = entries_graph((1,))
        assert spot(lp, graph, SpotterConfig()) == []
        full = exhaustive_spot(lp, graph)
        assert [(c.start_frame, c.end_frame) for c in full] == [(0, 0)]

    def test_blank_below_threshold_still_seeds(self):
        lp = probs_matrix([[0.7, 0.3]])
        _, graph = entries_graph((1,))
        assert len(spot(lp, graph, SpotterConfig())) == 1

    def test_first_token_gate(self):
        lp = probs_matrix([[0.5, 1e-6, 0.499999]])
        _, graph = entries_graph((1,))
        assert spot(lp, graph, SpotterConfig()) == []
        assert len(exhaustive_spot(lp, graph)) == 1

    def test_gate_applies_only_to_first_tokens(self):
        # the second token of [2, 1] dips below the first-token gate but must survive
        lp = probs_matrix([[0.2, 0.05, 0.75], [0.6, 1e-6, 0.399999]])
        _, graph = entries_graph((2, 1))
        got = [(c.start_frame, c.end_frame) for c in spot(lp, graph, SpotterConfig())]
        assert (0, 1) in got

    def test_beam_drops_weak_hypotheses_after_recording(self):
        # "b" seeds above the first-token gate, is recorded immediately, then
        # decays below the fresh-hypothesis baseline of 0 minus the beam while
        # waiting through frame 1, so it is gone before "c" lights up
        lp = probs_matrix(
            [
                [0.95, 0.002, 0.001, 0.047],
                [0.99, 1e-9, 1e-9, 0.01],
                [0.005, 1e-9, 0.98, 0.015],
            ]
        )
        vocab = Vocabulary(tokens=("a", "b", "c", "<b>"), blank_id=3)
        entries = [
            BiasingEntry(canonical="b", transcriptions=((1,),)),
            BiasingEntry(canonical="bc", transcriptions=((1, 2),)),
        ]
        graph = build_graph(entries, blank_id=vocab.blank_id)
        pruned = {(c.word, c.start_frame, c.end_frame) for c in spot(lp, graph, SpotterConfig())}
        full = {(c.word, c.start_frame, c.end_frame) for c in exhaustive_spot(lp, graph)}
        assert ("b", 0, 0) in pruned
        assert ("bc", 0, 2) in full
        assert ("bc", 0, 2) not in pruned
        # with no beam the floor is -inf too and discards nothing
        with search_bounds(beam=math.inf):
            wide = spot(lp, graph)
        assert ("bc", 0, 2) in {(c.word, c.start_frame, c.end_frame) for c in wide}

    @pytest.mark.parametrize("nudge", [1e-9, -1e-9])
    def test_first_token_gate_compares_in_float64(self, nudge):
        # float32 cannot tell the log-prob from the gate; float64 can, and
        # admits the token exactly when it is not below the threshold
        lp32 = np.float32(-3.0)
        gamma = float(lp32) + nudge
        assert np.float32(gamma) == lp32
        values = np.array([[math.log(0.5), lp32]], dtype=np.float32)
        _, graph = entries_graph((1,))
        with search_bounds(gamma=gamma):
            got = spot(LogProbMatrix(values=values), graph)
        assert len(got) == (1 if float(lp32) >= gamma else 0)

    @pytest.mark.parametrize("nudge", [1e-9, -1e-9])
    def test_blank_skip_compares_in_float64(self, nudge):
        # float32 cannot tell the blank log-prob from beta; float64 can,
        # and the empty hypothesis sits the frame out exactly when the blank
        # log-prob is above the threshold
        lp32 = np.float32(-0.5)
        beta = float(lp32) + nudge
        assert np.float32(beta) == lp32
        values = np.array([[lp32, -1.0]], dtype=np.float32)
        _, graph = entries_graph((1,))
        with search_bounds(beta=beta):
            got = spot(LogProbMatrix(values=values), graph)
        assert len(got) == (0 if float(lp32) > beta else 1)

    def test_floor_discard_keeps_end_of_word_records(self):
        # both candidates score below minus the beam: the moves that end them
        # are never offered to the next frame, yet each is still reported
        cfg = SpotterConfig(cb_w=0.0)
        lp = probs_matrix([[0.4, 0.6 - 1e-5, 1e-5], [0.5, 0.5 - 1e-6, 1e-6]])
        _, graph = entries_graph((2,), (1, 2))
        with search_bounds(gamma=-math.inf):
            got = {(c.entry_id, c.start_frame, c.end_frame): c.score
                   for c in spot(lp, graph, cfg)}
        for key, labels in (((0, 0, 0), [2]), ((1, 0, 1), [1, 2])):
            assert got[key] < -spotter._BEAM_THR
            want = best_path_score(lp, key[1:], labels, cfg.cb_w, blank_id=0)
            assert got[key] == pytest.approx(want)

    def test_move_exactly_on_the_beam_cutoff_survives(self):
        # the frame-0 move scores -2.0, exactly max(0, best) - beam; the
        # beam keeps a score equal to its cutoff, so the word completes
        values = np.array([[-1.0, -2.0, -5.0], [-5.0, -5.0, 0.0]], dtype=np.float32)
        _, graph = entries_graph((1, 2))
        with search_bounds(beam=2.0, gamma=-math.inf):
            got = spot(LogProbMatrix(values=values), graph, SpotterConfig(cb_w=0.0))
        assert [(c.start_frame, c.end_frame, c.score) for c in got] == [(0, 1, -2.0)]

    def test_merge_tie_keeps_the_earlier_start(self):
        # with no bonus every path scores 0: the run started at frame 0 and
        # the fresh start at frame 1 tie in the same state, and the earlier
        # start survives; exhaustive mode keeps both
        lp = one_hot_matrix([1, 1, 2], width=3)
        _, graph = entries_graph((1, 2))
        cfg = SpotterConfig(cb_w=0.0)
        pruned = [(c.start_frame, c.end_frame) for c in spot(lp, graph, cfg)]
        assert pruned == [(0, 2)]
        full = exhaustive_spot(lp, graph, cfg)
        assert [(c.start_frame, c.end_frame) for c in full] == [(0, 2), (1, 2)]

    @pytest.mark.parametrize(
        "p1, p3, kept",
        [(0.5, 0.4, "w0"), (0.4, 0.5, "w1"), (0.45, 0.45, "w0")],  # a tie: the smaller node
    )
    def test_cap_keeps_the_best_states(self, p1, p3, kept):
        # frame 0 leaves two live states, the first tokens of w0 = [1, 2] and
        # w1 = [3, 4]; a cap of 1 lets only the better one finish on frame 1
        lp = probs_matrix(
            [[0.09, p1, 0.005, p3, 1 - 0.095 - p1 - p3], [0.1, 0.01, 0.44, 0.01, 0.44]]
        )
        _, graph = entries_graph((1, 2), (3, 4))

        def found(k):
            with search_bounds(cap=k):
                cands = spot(lp, graph, SpotterConfig())
            return {(c.word, c.start_frame, c.end_frame) for c in cands}

        assert found(2) == {("w0", 0, 1), ("w1", 0, 1)}
        assert found(1) == {(kept, 0, 1)}

    def test_cap_is_not_applied_with_an_infinite_beam(self):
        rng = np.random.default_rng(11)
        lp = random_matrix(rng, 12, 5)
        _, graph = entries_graph((1, 2), (3,), (2, 4, 1), (1, 3))

        def found(beam, cap):
            with search_bounds(**{**EXHAUSTIVE, "beam": beam}, cap=cap):
                return spot(lp, graph)

        assert found(math.inf, 1) == found(math.inf, None)
        # the same cap binds on this input once the beam is finite
        assert found(7.0, 1) != found(7.0, None)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        lp = random_matrix(rng, 12, 5)
        _, graph = entries_graph((1, 2), (3,), (2, 4, 1))
        assert spot(lp, graph) == spot(lp, graph)
        assert exhaustive_spot(lp, graph) == exhaustive_spot(lp, graph)


def reference_spot(
    lp: LogProbMatrix, graph: ContextGraph, cb_w: float,
    beta: float, gamma: float, beam: float, cap: int,
) -> list[tuple]:
    """The documented rule, written plainly: the fresh hypothesis sits out a
    frame whose blank is above beta and seeds first tokens at least gamma
    likely; every move scoring at least -beam is offered to state merging
    (best score, ties to the earlier start; states that started on different
    frames stay apart when the beam is infinite), then the frame's states
    are filtered by the beam and, with a finite beam, the first `cap` of
    them kept in the order best score, earlier start, smaller node,
    blank_seen False first."""
    token_ids, entry_ids, first_child = graph.token_ids, graph.entry_ids, graph.first_child
    blank = graph.blank_id
    keep_starts = math.isinf(beam)

    def children(node: int) -> range:
        return range(first_child[node], first_child[node + 1])

    spotted: dict[tuple[int, int, int], float] = {}
    active: dict[tuple, tuple[float, int]] = {}
    for t, row in enumerate(lp.values.tolist()):
        moves = []  # (node, blank_seen, score, start)
        if not row[blank] > beta:
            for child in children(0):
                if row[token_ids[child]] >= gamma:
                    moves.append((child, False, row[token_ids[child]] + cb_w, t))
        for (node, seen, *_), (base, start) in active.items():
            moves.append((node, True, base + row[blank], start))
            tok = token_ids[node]
            if not seen:
                moves.append((node, False, base + row[tok] + cb_w, start))
            for child in children(node):
                ctok = token_ids[child]
                if ctok != tok or seen:
                    moves.append((child, False, base + row[ctok] + cb_w, start))
        current: dict[tuple, tuple[float, int]] = {}
        for node, seen, score, start in moves:
            entry = entry_ids[node]
            if not seen and entry >= 0 and score > -math.inf:
                key = (entry, start, t)
                spotted[key] = max(score, spotted.get(key, -math.inf))
            if score < -beam:
                continue
            key = (node, seen, start) if keep_starts else (node, seen)
            if key not in current or (-score, start) < (-current[key][0], current[key][1]):
                current[key] = (score, start)
        cutoff = max([0.0] + [score for score, _ in current.values()]) - beam
        active = {k: v for k, v in current.items() if v[0] >= cutoff}
        if not keep_starts:
            ranked = sorted(active.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
            active = dict(ranked[:cap])
    return sorted((s, e, entry, score) for (entry, s, e), score in spotted.items())


class TestAgainstReference:
    """spot equals the plain-rule reference on random tries and matrices.

    Integer-valued matrices make exact ties and moves scoring exactly on
    the beam cutoff common, so the merge tie-break and the comparison
    against the running bound are both exercised.
    """

    @seed(6110)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_spot_equals_reference(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        blank = 27
        seqs = {
            tuple(int(x) for x in rng.integers(0, 27 if rng.random() < 0.5 else 4, size=n))
            for n in rng.integers(1, 7, size=int(rng.integers(3, 41)))
        }
        entries = [
            BiasingEntry(canonical=f"w{i}", transcriptions=(seq,))
            for i, seq in enumerate(sorted(seqs))
        ]
        graph = build_graph(entries, blank_id=blank)
        frames = int(rng.integers(1, 17))
        if data.draw(st.booleans()):
            values = -rng.integers(0, 5, size=(frames, 28)).astype(np.float32)
            values[rng.random(size=values.shape) < 0.05] = -np.inf
            lp = LogProbMatrix(values=values)
        else:
            lp = random_matrix(rng, frames, 28, scale=float(rng.uniform(0.5, 4.0)))
        cb_w = data.draw(st.sampled_from([0.0, 1.0, 3.0]))
        bounds = {
            "beta": data.draw(st.sampled_from([math.log(0.8), -0.5, 0.0])),
            "gamma": data.draw(st.sampled_from([math.log(0.001), -2.0, -math.inf])),
            "beam": data.draw(st.sampled_from([1.0, 2.0, 3.0, 7.0, math.inf])),
            "cap": data.draw(st.sampled_from([1, 2, 4, 64])),
        }
        want = reference_spot(lp, graph, cb_w, **bounds)
        with search_bounds(**bounds):
            got = spot(lp, graph, SpotterConfig(cb_w=cb_w))
        assert [(c.start_frame, c.end_frame, c.entry_id, c.score) for c in got] == want
        assert all(c.word == graph.canonicals[c.entry_id] for c in got)


class TestEntryOrder:
    """Entry order decides entry ids only: the trie and what spot finds stay."""

    @seed(6111)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_permuted_entries_give_the_same_trie_and_candidates(self, data):
        seqs = data.draw(
            st.lists(
                st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple),
                min_size=1,
                max_size=24,
                unique=True,
            )
        )
        # deal the distinct transcriptions out, so no entry loses one to first-wins
        count = data.draw(st.integers(1, len(seqs)))
        entries = [
            BiasingEntry(canonical=f"w{k}", transcriptions=tuple(seqs[k::count]))
            for k in range(count)
        ]
        perm = data.draw(st.permutations(range(count)))  # new entry j is old entry perm[j]
        graph = build_graph(entries, blank_id=6)
        permuted = build_graph([entries[k] for k in perm], blank_id=6)
        new_id = {old: new for new, old in enumerate(perm)}
        assert permuted.token_ids == graph.token_ids
        assert permuted.first_child == graph.first_child
        assert permuted.entry_ids == [new_id.get(e, -1) for e in graph.entry_ids]

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        lp = random_matrix(rng, int(rng.integers(1, 13)), 7, scale=float(rng.uniform(0.5, 4.0)))
        cb_w, bounds = data.draw(st.sampled_from([(1.0, {}), (CB_W, EXHAUSTIVE)]))
        cfg = SpotterConfig(cb_w=cb_w)
        # a cap of 2 binds often, so its tie order decides which states live
        with search_bounds(cap=data.draw(st.sampled_from([2, 64])), **bounds):
            want = [(c.start_frame, c.end_frame, c.entry_id, c.word, c.score)
                    for c in spot(lp, graph, cfg)]
            got = [(c.start_frame, c.end_frame, perm[c.entry_id], c.word, c.score)
                   for c in spot(lp, permuted, cfg)]
        assert sorted(got) == want


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class TestGolden:
    """Pruned candidates recorded by tests/data/make_spot_golden.py stay identical."""

    @pytest.mark.parametrize("case", ["bpe", "char", "dense", "dense_capped"])
    def test_pruned_candidates_unchanged(self, case):
        # dense_capped is the dense case's search again, under its own cap
        name, _, capped = case.partition("_")
        with open(os.path.join(GOLDEN, "spot_golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)[name]
        run = golden["capped"] if capped else golden
        entries = [
            BiasingEntry(canonical=word, transcriptions=(tuple(seq),))
            for word, seq in golden["entries"]
        ]
        graph = build_graph(entries, blank_id=golden["blank_id"])
        lp = load_logprobs(os.path.join(GOLDEN, golden["matrix"]))
        config = golden["config"]
        with search_bounds(beta=config["beta_thr"], gamma=config["gamma_thr"],
                           beam=config["beam_thr"], cap=run["max_active"]):
            got = spot(lp, graph, SpotterConfig(cb_w=config["cb_w"]))
        assert [[c.entry_id, c.start_frame, c.end_frame, c.score] for c in got] == (
            run["candidates"]
        )


class TestValidation:
    def test_token_id_exceeds_width(self):
        _, graph = entries_graph((4,))
        with pytest.raises(DimensionMismatchError):
            spot(one_hot_matrix([1], width=3), graph)

    def test_blank_id_exceeds_width(self):
        entries = [BiasingEntry(canonical="w", transcriptions=((0,),))]
        graph = build_graph(entries, blank_id=5)
        with pytest.raises(DimensionMismatchError):
            spot(one_hot_matrix([0], width=2), graph)

    def test_zero_frames(self):
        lp = LogProbMatrix(values=np.zeros((0, 3), dtype=np.float32))
        _, graph = entries_graph((1,))
        assert spot(lp, graph) == []

    def test_empty_graph(self):
        graph = build_graph([], blank_id=0)
        assert spot(one_hot_matrix([1, 0, 1], width=2), graph) == []


def cand(word: str, start: int, end: int, score: float, entry_id: int = 0) -> SpottedCandidate:
    return SpottedCandidate(
        entry_id=entry_id, word=word, start_frame=start, end_frame=end, score=score
    )


def cluster_min_sort_reference(candidates: list[SpottedCandidate]) -> list[SpottedCandidate]:
    """Overlap resolution in three passes: cluster lists, a min per cluster, a sort."""
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda c: (c.start_frame, c.end_frame))
    clusters = [[ordered[0]]]
    reach = ordered[0].end_frame
    for c in ordered[1:]:
        if c.start_frame <= reach:
            clusters[-1].append(c)
            reach = max(reach, c.end_frame)
        else:
            clusters.append([c])
            reach = c.end_frame
    winners = [
        min(cl, key=lambda c: (-c.score, c.start_frame - c.end_frame, c.word, c.start_frame,
                               c.entry_id))
        for cl in clusters
    ]
    return sorted(winners, key=lambda c: c.start_frame)


class TestFindBestHyps:
    @seed(4043)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_cluster_min_sort_reference(self, data):
        # narrow ranges give repeated intervals, equal scores and equal words
        raw = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "ab"]),
                st.integers(0, 20),
                st.integers(0, 4),
                st.sampled_from([-2.0, -1.0, 0.0, 0.5]),
                st.integers(0, 3),
            ),
            max_size=25,
        ))
        cands = [cand(w, s, s + n, sc, entry_id=e) for w, s, n, sc, e in raw]
        assert find_best_hyps(cands) == cluster_min_sort_reference(cands)

    def test_empty(self):
        assert find_best_hyps([]) == []

    def test_disjoint_candidates_all_survive(self):
        a = cand("a", 5, 6, 1.0)
        b = cand("b", 0, 1, 2.0, entry_id=1)
        assert find_best_hyps([a, b]) == [b, a]

    def test_touching_intervals_overlap(self):
        # closed intervals: [0,2] and [2,4] share frame 2
        a = cand("a", 0, 2, 1.0)
        b = cand("b", 2, 4, 2.0, entry_id=1)
        assert find_best_hyps([a, b]) == [b]

    def test_transitive_chain_is_one_cluster(self):
        a = cand("a", 0, 2, 5.0)
        b = cand("b", 2, 4, 9.0, entry_id=1)
        c = cand("c", 4, 6, 7.0, entry_id=2)
        # a and c never overlap directly, yet b chains the three together
        assert find_best_hyps([a, b, c]) == [b]

    def test_score_wins(self):
        a = cand("a", 0, 5, 3.0)
        b = cand("b", 2, 3, 3.5, entry_id=1)
        assert find_best_hyps([a, b]) == [b]

    def test_score_tie_prefers_longer_interval(self):
        short = cand("a", 2, 3, 3.0)
        long = cand("b", 0, 5, 3.0, entry_id=1)
        assert find_best_hyps([short, long]) == [long]

    def test_full_tie_prefers_lexicographic_word(self):
        x = cand("beta", 0, 3, 1.0, entry_id=0)
        y = cand("alpha", 1, 4, 1.0, entry_id=1)
        assert find_best_hyps([x, y]) == [y]

    def test_output_sorted_by_start(self):
        winners = find_best_hyps(
            [cand("z", 10, 11, 1.0), cand("a", 0, 1, 1.0, entry_id=1)]
        )
        assert [c.start_frame for c in winners] == [0, 10]


class TestSpotterScores:
    def test_uniform_matrix_scores_are_linear_in_length(self):
        # every frame emission costs ln(1/4) and earns cb_w, so a k-token
        # candidate with no blanks scores exactly k * (ln 0.25 + cb_w)
        lp = probs_matrix([[0.25] * 4] * 3)
        _, graph = entries_graph((1,), (1, 2), (1, 2, 3))
        got = {
            (c.entry_id, c.start_frame, c.end_frame): c.score
            for c in exhaustive_spot(lp, graph)
        }
        unit = math.log(0.25) + CB_W
        assert got[(0, 0, 0)] == pytest.approx(unit)
        assert got[(1, 0, 1)] == pytest.approx(2 * unit)
        assert got[(2, 0, 2)] == pytest.approx(3 * unit)
