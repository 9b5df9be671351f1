"""The brute-force references are themselves checked against closed forms."""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import char_vocab, log_softmax_rows, random_matrix
from ctcspot import LogProbMatrix, Vocabulary
from oracle import (
    best_path_score,
    count_paths,
    exhaustive_segmentations,
    levenshtein_distance,
    reference_greedy_decode,
)

BLANK = 0


def collapse(path, blank):
    out = []
    prev = -1
    for sym in path:
        if sym != prev and sym != blank:
            out.append(sym)
        prev = sym
    return out


def enumerated_best(lp, interval, labels, cb_w, blank, anchor_start):
    """Max score over every |V|^T raw path, validity checked via collapse."""
    s, e = interval
    best = None
    for path in itertools.product(range(lp.vocab_size), repeat=e - s + 1):
        if collapse(path, blank) != list(labels):
            continue
        if path[-1] != labels[-1]:
            continue
        if anchor_start and path[0] != labels[0]:
            continue
        score = sum(float(lp.values[s + i, sym]) for i, sym in enumerate(path))
        score += cb_w * sum(1 for sym in path if sym != blank)
        if best is None or score > best:
            best = score
    return best


def trellis_count(length, labels, anchored):
    """Closed-form path count: DP over (labels matched, last symbol kind)."""
    total = len(labels)
    counts: dict[tuple[int, str], int] = {}
    if anchored:
        if length == 0:
            return 0
        counts[(1, "label")] = 1
        done = 1
    else:
        counts[(0, "blank")] = 1
        done = 0
    for _ in range(done, length):
        nxt: dict[tuple[int, str], int] = {}

        def bump(key, c):
            nxt[key] = nxt.get(key, 0) + c

        for (m, last), c in counts.items():
            bump((m, "blank"), c)
            if last == "label":
                bump((m, "label"), c)  # keep emitting the same label
            if m < total and (last == "blank" or labels[m] != labels[m - 1]):
                bump((m + 1, "label"), c)
        counts = nxt
    return counts.get((total, "label"), 0)


label_lists = st.lists(st.integers(1, 3), min_size=1, max_size=4)


@given(length=st.integers(0, 6), labels=label_lists, anchored=st.booleans())
@settings(max_examples=300, deadline=None)
def test_count_paths_matches_trellis(length, labels, anchored):
    assert count_paths(length, labels, BLANK, anchor_start=anchored) == trellis_count(
        length, labels, anchored
    )


def test_count_paths_examples():
    # one label, two frames: anchored only [a,a]; unanchored adds [blank,a]
    assert count_paths(2, [1], BLANK) == 1
    assert count_paths(2, [1], BLANK, anchor_start=False) == 2
    # a repeated label needs a separating blank: three frames leave one path
    assert count_paths(3, [1, 1], BLANK) == 1
    assert count_paths(2, [1, 1], BLANK) == 0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_best_path_score_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    frames = int(rng.integers(1, 6))
    width = int(rng.integers(2, 5))
    lp = random_matrix(rng, frames, width)
    n_labels = int(rng.integers(1, 4))
    labels = [int(rng.integers(1, width)) for _ in range(n_labels)]
    cb_w = float(rng.choice([0.0, 1.5, 3.0]))
    anchored = bool(rng.integers(0, 2))
    start = int(rng.integers(0, frames))
    end = int(rng.integers(start, frames))
    got = best_path_score(lp, (start, end), labels, cb_w, BLANK, anchor_start=anchored)
    want = enumerated_best(lp, (start, end), labels, cb_w, BLANK, anchored)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-9)


def test_best_path_score_hand_cases():
    lp = random_matrix(np.random.default_rng(7), 4, 3)
    v = lp.values
    # one label on one frame: the label is emitted there, nothing else fits
    got = best_path_score(lp, (2, 2), [1], 3.0, BLANK)
    assert math.isclose(got, float(v[2, 1]) + 3.0, abs_tol=1e-9)
    # single label over two frames: the run [a,a] is the only anchored path
    got = best_path_score(lp, (1, 2), [1], 3.0, BLANK)
    assert math.isclose(got, float(v[1, 1]) + float(v[2, 1]) + 6.0, abs_tol=1e-9)
    # repeated label over three frames forces label, blank, label
    got = best_path_score(lp, (0, 2), [2, 2], 3.0, BLANK)
    want = float(v[0, 2]) + float(v[1, 0]) + float(v[2, 2]) + 6.0
    assert math.isclose(got, want, abs_tol=1e-9)
    # two distinct labels cannot fit one frame
    assert best_path_score(lp, (3, 3), [1, 2], 3.0, BLANK) is None


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_best_path_score_nonpositive_without_bonus(seed):
    rng = np.random.default_rng(seed)
    lp = random_matrix(rng, 4, 3)
    got = best_path_score(lp, (0, 3), [1, 2], 0.0, BLANK)
    assert got is None or got <= 0.0


def test_unanchored_never_below_anchored():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = random_matrix(rng, 5, 3)
        anchored = best_path_score(lp, (0, 4), [1, 2], 2.0, BLANK)
        free = best_path_score(lp, (0, 4), [1, 2], 2.0, BLANK, anchor_start=False)
        if anchored is not None:
            assert free is not None and free >= anchored


def test_reference_greedy_decode_char_vocab():
    vocab = char_vocab("ab")  # tokens a, b, space, blank
    lp = LogProbMatrix(
        values=log_softmax_rows(
            np.array(
                [
                    [5.0, 0.0, 0.0, 0.0],  # a
                    [5.0, 0.0, 0.0, 0.0],  # a (repeat collapses)
                    [0.0, 0.0, 0.0, 5.0],  # blank
                    [0.0, 0.0, 5.0, 0.0],  # space
                    [0.0, 5.0, 0.0, 0.0],  # b
                ]
            )
        ),
        normalized=True,
    )
    ids, text = reference_greedy_decode(lp, vocab)
    assert ids == [0, 2, 1]
    assert text == "a b"


def test_reference_greedy_decode_marker_vocab():
    vocab = Vocabulary(tokens=("▁a", "x", "▁b", "<b>"), blank_id=3)
    lp = LogProbMatrix(
        values=log_softmax_rows(
            np.array(
                [
                    [5.0, 0.0, 0.0, 0.0],  # ▁a
                    [0.0, 5.0, 0.0, 0.0],  # x
                    [0.0, 0.0, 0.0, 5.0],  # blank
                    [0.0, 0.0, 5.0, 0.0],  # ▁b
                ]
            )
        ),
        normalized=True,
    )
    ids, text = reference_greedy_decode(lp, vocab)
    assert ids == [0, 1, 2]
    assert text == "ax b"


def test_reference_greedy_decode_argmax_ties_take_lowest_id():
    vocab = char_vocab("ab")
    lp = LogProbMatrix(values=np.full((3, 4), math.log(0.25), dtype=np.float32),
                       normalized=True)
    ids, text = reference_greedy_decode(lp, vocab)
    assert ids == [0]
    assert text == "a"


def test_levenshtein_examples():
    assert levenshtein_distance([], []) == 0
    assert levenshtein_distance(["a"], []) == 1
    assert levenshtein_distance("a b c".split(), "a x c".split()) == 1
    assert levenshtein_distance("a b".split(), "b a".split()) == 2
    assert levenshtein_distance("x y z".split(), "x z".split()) == 1


def test_exhaustive_segmentations():
    got = set(exhaustive_segmentations("abc", ["a", "b", "c", "ab", "bc", "abc"]))
    assert got == {("a", "b", "c"), ("ab", "c"), ("a", "bc"), ("abc",)}
    assert exhaustive_segmentations("abc", ["a", "c"]) == []

