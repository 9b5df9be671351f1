"""Record the golden `spot` fixture that tests/test_spotter.py replays.

Writes three normalized matrices and one JSON file next to this script:

- spot_golden_bpe.bin: 200 frames over an 80-token marker-piece (BPE-style)
  inventory, blank-dominated between planted clean and garbled biasing
  words and fillers.
- spot_golden_char.bin: 40 high-entropy frames over 28 character tokens.
- spot_golden_dense.bin: 48 high-entropy character frames with planted
  words, searched with a 2500-entry trie, in the shape of the benchmark's
  dense_char workload.
- spot_golden.json: per case, the matrix file, the biasing entries as
  token-id sequences, the blank id, the bonus and the search bounds
  (`spotter._BETA_THR`, `_GAMMA_THR` and `_BEAM_THR`, recorded as
  beta_thr, gamma_thr and beam_thr), the live-state cap searched with
  (`spotter._MAX_ACTIVE`) and the pruned `spot`
  candidates as (entry id, start frame, end frame, score).  Each case is
  searched with a cap above its peak, so the cap never binds; the dense
  case also holds, under `capped`, its search again at the module's cap,
  which binds on 20 of its 48 frames.

The matrices are stored rather than regenerated so that the replay does
not depend on how a platform rounds `exp` and `log`.  The bpe and char
candidates were recorded with the spotter that looped over every root
child in Python and offered every move to state merging, the dense ones
with the spotter that offered every move scoring at least -beam_thr, and
the capped dense ones with the first spotter that capped the live states; a later
spotter must reproduce them exactly.  Run from the repository root:

    PYTHONPATH=src python tests/data/make_spot_golden.py
"""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np

from ctcspot import (
    BiasingEntry,
    LogProbMatrix,
    SpotterConfig,
    Vocabulary,
    build_graph,
    load_logprobs,
    spot,
    tokenize,
    spotter,
    write_logprobs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
LETTERS = "abcdefghijklmnopqrstuvwxyz"
MARKER = "▁"
# a live-state cap above the peaks per frame of the bpe, char and dense
# cases (262, 580 and 284), so it leaves their recorded candidates as they were
UNCAPPED = 1024


def _normalize(probs: np.ndarray) -> np.ndarray:
    values = np.log(probs)
    values -= np.logaddexp.reduce(values, axis=1, keepdims=True)
    return values.astype(np.float32)


def _words(rng, count: int, lo: int, hi: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        n = int(rng.integers(lo, hi + 1))
        word = "".join(LETTERS[i] for i in rng.integers(0, 26, size=n))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _entries(words: list[str], vocab: Vocabulary) -> list[BiasingEntry]:
    seen: set[tuple[int, ...]] = set()
    out = []
    for word in words:
        seq = tuple(tokenize(word, vocab))
        if seq not in seen:
            seen.add(seq)
            out.append(BiasingEntry(canonical=word, transcriptions=(seq,)))
    return out


def _plant(rng, probs, blank: int, at: int, seq, garble: bool) -> int:
    """Write one word's token frames into `probs` from frame `at`; return the next frame."""
    width = probs.shape[1]
    for k, tok in enumerate(seq):
        if k and tok == seq[k - 1]:
            at += 1  # the silence row already between repeats
        for _ in range(int(rng.integers(1, 3))):
            peak = float(rng.uniform(0.45, 0.95))
            row = rng.exponential(size=width)
            row[blank] = 0.0
            row[tok] = 0.0
            row *= (1.0 - peak - 0.04) / row.sum()
            row[blank] = 0.04
            target = tok
            if garble and k == len(seq) // 2:
                target = int(rng.integers(0, blank))
                row[tok] += peak * 0.3
                peak *= 0.7
            row[target] += peak
            probs[at] = row
            at += 1
    return at


def bpe_case(rng) -> tuple[np.ndarray, list[BiasingEntry], int]:
    bigrams = [a + b for a in LETTERS for b in LETTERS]
    picks = rng.choice(len(bigrams), 27, replace=False)
    tokens = [MARKER + c for c in LETTERS] + list(LETTERS)
    tokens += [bigrams[i] for i in picks[:20]] + [MARKER + bigrams[i] for i in picks[20:]]
    tokens.append("<b>")
    vocab = Vocabulary(tokens=tuple(tokens), blank_id=len(tokens) - 1)
    blank = vocab.blank_id
    entries = _entries(_words(rng, 200, 4, 9), vocab)
    fillers = _words(rng, 200, 2, 6)

    frames = 200
    probs = np.empty((frames, len(tokens)))
    for t in range(frames):  # silence: blank-dominated rows
        row = rng.exponential(size=len(tokens))
        row[blank] = 0.0
        row *= 0.06 / row.sum()
        row[blank] = 0.94
        probs[t] = row
    at = 2
    while at < frames - 30:
        pick = rng.random()
        if pick < 0.4:
            seq = entries[int(rng.integers(0, len(entries)))].transcriptions[0]
        else:
            seq = tokenize(fillers[int(rng.integers(0, len(fillers)))], vocab)
        at = _plant(rng, probs, blank, at, seq, garble=0.2 < pick < 0.4)
        at += int(rng.integers(1, 8))
    return _normalize(probs), entries, blank


def char_case(rng) -> tuple[np.ndarray, list[BiasingEntry], int]:
    vocab = Vocabulary(tokens=tuple(LETTERS) + (" ", "<b>"), blank_id=27)
    entries = _entries(_words(rng, 500, 3, 6), vocab)
    frames = 40
    logits = rng.normal(size=(frames, 28)) * 2.0
    logits[:, 27] += 1.0
    return _normalize(np.exp(logits)), entries, vocab.blank_id


def dense_case(rng) -> tuple[np.ndarray, list[BiasingEntry], int]:
    """High-entropy character frames with planted words, as bench's dense_char."""
    vocab = Vocabulary(tokens=tuple(LETTERS) + (" ", "<b>"), blank_id=27)
    entries = _entries(_words(rng, 2500, 3, 9), vocab)
    frames = 48
    probs = rng.lognormal(sigma=1.5, size=(frames, 28))
    probs /= probs.sum(axis=1, keepdims=True)
    at = 1
    while at < frames - 10:
        seq = entries[int(rng.integers(0, len(entries)))].transcriptions[0]
        for tok in seq:
            for _ in range(int(rng.integers(1, 3))):
                if at < frames:
                    peak = float(rng.uniform(0.30, 0.55))
                    probs[at] *= 1.0 - peak
                    probs[at, tok] += peak
                    at += 1
        at += int(rng.integers(1, 4))
    return _normalize(probs), entries, vocab.blank_id


def _search(lp: LogProbMatrix, graph, cfg: SpotterConfig, cap: int) -> dict:
    with mock.patch.object(spotter, "_MAX_ACTIVE", cap):
        cands = spot(lp, graph, cfg)
    return {"max_active": cap,
            "candidates": [[c.entry_id, c.start_frame, c.end_frame, c.score] for c in cands]}


def main() -> None:
    cfg = SpotterConfig()
    cases = {}
    for name, build, seed in (
        ("bpe", bpe_case, 2406),
        ("char", char_case, 7096),
        ("dense", dense_case, 611),
    ):
        values, entries, blank = build(np.random.default_rng(seed))
        path = os.path.join(HERE, f"spot_golden_{name}.bin")
        write_logprobs(LogProbMatrix(values=values, normalized=True), path)
        graph = build_graph(entries, blank_id=blank)
        lp = load_logprobs(path)
        cases[name] = case = {
            "matrix": os.path.basename(path),
            "blank_id": blank,
            "config": {
                "cb_w": cfg.cb_w,
                "beta_thr": spotter._BETA_THR,
                "gamma_thr": spotter._GAMMA_THR,
                "beam_thr": spotter._BEAM_THR,
            },
            "entries": [[e.canonical, list(e.transcriptions[0])] for e in entries],
            **_search(lp, graph, cfg, UNCAPPED),
        }
        if name == "dense":
            case["capped"] = _search(lp, graph, cfg, spotter._MAX_ACTIVE)
        print(f"{name}: {values.shape[0]}x{values.shape[1]}, {len(entries)} entries, "
              f"{len(case['candidates'])} candidates"
              + (f", {len(case['capped']['candidates'])} capped" if "capped" in case else ""))
    with open(os.path.join(HERE, "spot_golden.json"), "w", encoding="utf-8") as fh:
        json.dump(cases, fh, ensure_ascii=False, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
