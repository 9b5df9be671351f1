"""Seeded input generators for the benchmark workloads.

Each generator writes one self-contained input directory (vocabulary,
context list, optional ranked word list, matrix files, manifest with
reference texts) and returns the input's shape, so a reader can check that
a workload still has the property it was chosen for.  The same seed always
gives byte-identical inputs.  Only the public ``ctcspot`` API is used.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from ctcspot import LogProbMatrix, Vocabulary, tokenize, write_logprobs

LETTERS = "abcdefghijklmnopqrstuvwxyz"
MARKER = "▁"


@dataclass(frozen=True)
class Size:
    """How much input a workload generates."""

    utterances: int  # distinct utterances in the pool the timed loop cycles over
    list_size: int  # biasing-list entries
    cli_subset: int  # utterances the traced run decodes through the CLI
    min_timed: int  # per-utterance samples a run collects at least


# Full sizes keep at least 100 timed utterances per run so utt_ms_p90 has ten
# samples beyond it; the tiny sizes only exercise every code path.
SIZES = {
    "long_bpe": {"full": Size(32, 1000, 6, 100), "tiny": Size(3, 100, 2, 3)},
    "dense_char": {"full": Size(150, 10000, 6, 100), "tiny": Size(4, 400, 2, 4)},
    "cli_corpus": {"full": Size(2000, 24, 2000, 100), "tiny": Size(40, 12, 40, 40)},
}

# Which transcript each workload splices into: greedy CTC or transducer.
MODES = {"long_bpe": "ctc", "dense_char": "ctc", "cli_corpus": "transducer"}


def generate(workload: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """Write the inputs of `workload` for `seed` into `out_dir`; return its shape."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    shape = _GENERATORS[workload](rng, size, out_dir)
    shape.update(workload=workload, seed=seed, utterances=size.utterances,
                 list_size=size.list_size)
    with open(os.path.join(out_dir, "shape.json"), "w", encoding="utf-8") as fh:
        json.dump(shape, fh, indent=1)
    return shape


# ---------------------------------------------------------------- helpers


def _random_words(rng, count: int, lo: int, hi: int, exclude=()) -> list[str]:
    """`count` distinct lowercase strings of lo..hi letters, none in `exclude`."""
    taken = set(exclude)
    out: list[str] = []
    while len(out) < count:
        n = int(rng.integers(lo, hi + 1))
        word = "".join(LETTERS[i] for i in rng.integers(0, 26, size=n))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _frames_from_plan(rng, plan, vocab_size: int, blank: int, rest_sigma: float,
                      rest_mass: float | None = None):
    """Normalized log-probs for a per-frame plan of (target, peak, rival, rival_p).

    target -1 is a silence frame whose blank takes `peak`.  On a token frame
    the other tokens share `rest_mass` and the blank the remainder; without
    `rest_mass` the blank takes 0.04 and the others the remainder.  The
    shared mass is spread with log-normal weights, so every row is a proper
    distribution.
    """
    frames = len(plan)
    rows = np.arange(frames)
    cols = np.array(plan, dtype=np.float64)
    target, peak = cols[:, 0].astype(np.int64), cols[:, 1]
    rival, rival_p = cols[:, 2].astype(np.int64), cols[:, 3]
    tok, has_rival = target >= 0, rival >= 0
    weights = np.exp(rest_sigma * rng.standard_normal((frames, vocab_size)))
    weights[:, blank] = 0.0
    weights[rows[tok], target[tok]] = 0.0
    weights[rows[has_rival], rival[has_rival]] = 0.0
    token_rest = 1.0 - peak - rival_p - 0.04 if rest_mass is None else np.full(frames, rest_mass)
    rest = np.where(tok, token_rest, 1.0 - peak)
    probs = weights * (rest / weights.sum(axis=1))[:, None]
    probs[rows[tok], target[tok]] = peak[tok]
    probs[rows[has_rival], rival[has_rival]] = rival_p[has_rival]
    probs[:, blank] = np.where(tok, 1.0 - peak - rival_p - rest, peak)
    values = np.log(probs)
    values -= np.logaddexp.reduce(values, axis=1, keepdims=True)
    return values.astype(np.float32)


def _write_matrix(values: np.ndarray, path: str) -> int:
    """Write a normalized .bin matrix (validated on construction); return its size."""
    write_logprobs(LogProbMatrix(values=values, normalized=True), path)
    return os.path.getsize(path)


def _manifest_row(uid: str, text: str, **extra) -> str:
    row = {"id": uid, "logprobs": f"{uid}.bin", "text": text}
    row.update(extra)
    return json.dumps(row, ensure_ascii=False)


# ------------------------------------------------------------- long_bpe


def bpe_tokens() -> list[str]:
    """1024-token marker-piece inventory; the same for every seed."""
    fixed = np.random.default_rng(1024)
    bigrams = [a + b for a in LETTERS for b in LETTERS]
    picks = sorted(fixed.choice(len(bigrams), 1023 - 52 - len(bigrams), replace=False))
    return ([MARKER + c for c in LETTERS] + list(LETTERS) + bigrams
            + [MARKER + bigrams[i] for i in picks] + ["<b>"])


def _bpe_words(rng, vocab: Vocabulary, count: int, lo: int, hi: int, exclude=()) -> list[str]:
    """Random words whose tokenization starts with a marker piece.

    The tokenizer falls back to a bare piece at a word start when that gives
    fewer pieces; such a word would fuse with its left neighbour in the
    greedy decode, which real marker-piece models do not do.
    """
    words: list[str] = []
    taken = set(exclude)
    while len(words) < count:
        for word in _random_words(rng, count - len(words), lo, hi, exclude=taken):
            taken.add(word)
            if vocab.tokens[tokenize(word, vocab)[0]].startswith(MARKER):
                words.append(word)
    return words


def _gen_long_bpe(rng, size: Size, out: str) -> dict:
    """1000-frame x 1024-token normalized matrices, about 25% non-blank frames.

    Each utterance holds 56 words: 3 clean and 3 garbled biasing words, 3
    garbled filler words (errors no biasing can repair) and 47 clean fillers.
    A garbled word loses one interior piece to a rival the greedy decode
    prefers.  planted.json records every biasing word's frame interval.
    """
    tokens = bpe_tokens()
    vocab = Vocabulary(tokens=tuple(tokens), blank_id=len(tokens) - 1)
    blank = vocab.blank_id
    plain_pieces = [i for i, tok in enumerate(tokens[:-1]) if not tok.startswith(MARKER)]
    biasing = _bpe_words(rng, vocab, size.list_size, 5, 10)
    fillers = _bpe_words(rng, vocab, 2000, 2, 8, exclude=biasing)
    _write_lines(os.path.join(out, "vocab.txt"), tokens)
    _write_lines(os.path.join(out, "context.txt"), biasing)

    frames_per_utt, words_per_utt = 1000, 56
    kinds = ["clean_bias"] * 3 + ["garbled_bias"] * 3 + ["garbled_filler"] * 3
    kinds += ["filler"] * (words_per_utt - len(kinds))
    planted: dict[str, list] = {}
    nonblank = total_frames = total_bytes = 0
    with open(os.path.join(out, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        for u in range(size.utterances):
            uid = f"bpe{u:04d}"
            order = [kinds[i] for i in rng.permutation(len(kinds))]
            words: list[tuple[str, str, list[int]]] = []
            for kind in order:
                pool = biasing if kind.endswith("bias") else fillers
                while True:
                    word = pool[int(rng.integers(0, len(pool)))]
                    seq = tokenize(word, vocab)
                    if not kind.startswith("garbled") or len(seq) >= 2:
                        break
                words.append((kind, word, seq))
            # per-word token frames: 1-2 frames per piece, a blank between repeats
            spans = []
            for kind, word, seq in words:
                plan = []
                garble_at = int(rng.integers(1, len(seq))) if kind.startswith("garbled") else -1
                for k, tok in enumerate(seq):
                    if k and tok == seq[k - 1]:
                        plan.append((-1, 0.97, -1, 0.0))
                    rival = -1
                    if k == garble_at:
                        rival = tok
                        while rival == tok:
                            rival = plain_pieces[int(rng.integers(0, len(plain_pieces)))]
                    for _ in range(int(rng.integers(1, 3))):
                        if rival >= 0:
                            plan.append((tok, 0.30, rival, 0.50))
                        else:
                            plan.append((tok, float(rng.uniform(0.75, 0.95)), -1, 0.0))
                spans.append(plan)
            silence = frames_per_utt - sum(len(p) for p in spans)
            gaps = 4 + rng.multinomial(silence - 4 * (len(spans) + 1),
                                       np.full(len(spans) + 1, 1.0 / (len(spans) + 1)))
            plan, marks = [], []
            for i, word_plan in enumerate(spans):
                plan.extend((-1, float(rng.uniform(0.90, 0.99)), -1, 0.0)
                            for _ in range(gaps[i]))
                kind, word, _ = words[i]
                if kind.endswith("bias"):
                    marks.append([word, len(plan), len(plan) + len(word_plan) - 1,
                                  kind == "garbled_bias"])
                plan.extend(word_plan)
            plan.extend((-1, float(rng.uniform(0.90, 0.99)), -1, 0.0) for _ in range(gaps[-1]))
            values = _frames_from_plan(rng, plan, vocab.size, blank, rest_sigma=1.0)
            nonblank += int((values.argmax(axis=1) != blank).sum())
            total_frames += len(plan)
            total_bytes += _write_matrix(values, os.path.join(out, f"{uid}.bin"))
            planted[uid] = marks
            fh.write(_manifest_row(uid, " ".join(w for _, w, _ in words)) + "\n")
    with open(os.path.join(out, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump(planted, fh)
    return {"frames": total_frames, "nonblank_share": nonblank / total_frames,
            "matrix_bytes": total_bytes, "vocab_size": vocab.size}


# ----------------------------------------------------------- character data

CHAR_TOKENS = tuple(LETTERS) + (" ", "<b>")


def _char_plan(rng, words, peak_range, char_frames=(2, 3), garble_interior=None):
    """Frame plan for a character utterance; `garble_interior` is a set of word indexes."""
    ids = {c: i for i, c in enumerate(CHAR_TOKENS)}
    space = ids[" "]
    garbled = garble_interior or set()
    plan = [(-1, 0.97, -1, 0.0)] * int(rng.integers(1, 3))
    intervals = []
    for w_i, word in enumerate(words):
        if w_i:
            plan.extend([(space, 0.9, -1, 0.0)] * int(rng.integers(1, 3)))
        start = len(plan)
        for c_i, ch in enumerate(word):
            tok = ids[ch]
            n = int(rng.integers(char_frames[0], char_frames[1] + 1))
            if w_i in garbled and 0 < c_i < len(word) - 1 and rng.random() < 0.7:
                rival = ids[LETTERS[(LETTERS.index(ch) + 1) % 26]]
                plan.extend([(tok, 0.30, rival, 0.45)] * n)
            else:
                plan.extend([(tok, float(rng.uniform(*peak_range)), -1, 0.0)
                             for _ in range(n)])
            if c_i + 1 < len(word) and word[c_i + 1] == ch:
                plan.append((-1, 0.97, -1, 0.0))
        intervals.append((start, len(plan) - 1))
        plan.extend([(-1, 0.97, -1, 0.0)] * int(rng.integers(1, 3)))
    return plan, intervals


def _biasing_list(rng, parts, count, compound_share, short_share, exclude=()) -> list[str]:
    """Compounds of two `parts` words, short 3-4 letter words, then 5-9 letter words."""
    taken = set(parts) | set(exclude)
    words: list[str] = []
    while len(words) < int(count * compound_share):
        a, b = (parts[int(i)] for i in rng.integers(0, len(parts), size=2))
        if a + b not in taken:
            taken.add(a + b)
            words.append(a + b)
    words += _random_words(rng, int(count * short_share), 3, 4, exclude=taken)
    taken.update(words)
    words += _random_words(rng, count - len(words), 5, 9, exclude=taken)
    return [words[i] for i in rng.permutation(len(words))]


def _write_char_vocab(out: str) -> None:
    _write_lines(os.path.join(out, "vocab.txt"), CHAR_TOKENS)


# ----------------------------------------------------------- dense_char


def _gen_dense_char(rng, size: Size, out: str) -> dict:
    """High-entropy 28-token character matrices against a ~10 000-word list.

    The list mixes compounds of ranked-word-list words (compound splits),
    short words (abbreviation splits) and plain words, so expansion and the
    trie are large.  Frames carry a modest peak over a wide log-normal rest,
    so many tokens pass the start gate and the beam stays full.
    """
    blank = len(CHAR_TOKENS) - 1
    ranked = _random_words(rng, max(200, size.list_size // 3), 2, 6)
    fillers = ranked[: len(ranked) // 2]
    biasing = _biasing_list(rng, ranked[len(fillers):], size.list_size, compound_share=0.35,
                            short_share=0.25, exclude=ranked)
    _write_char_vocab(out)
    _write_lines(os.path.join(out, "context.txt"), biasing)
    _write_lines(os.path.join(out, "wordlist.txt"), ranked)

    nonblank = total_frames = total_bytes = 0
    with open(os.path.join(out, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        for u in range(size.utterances):
            uid = f"chr{u:04d}"
            words = [biasing[int(i)] for i in rng.integers(0, len(biasing), size=2)]
            words.insert(int(rng.integers(0, 3)), fillers[int(rng.integers(0, len(fillers)))])
            plan, _ = _char_plan(rng, words, peak_range=(0.30, 0.55), char_frames=(1, 2))
            values = _frames_from_plan(rng, plan, len(CHAR_TOKENS), blank, rest_sigma=1.5)
            nonblank += int((values.argmax(axis=1) != blank).sum())
            total_frames += len(plan)
            total_bytes += _write_matrix(values, os.path.join(out, f"{uid}.bin"))
            fh.write(_manifest_row(uid, " ".join(words)) + "\n")
    return {"frames": total_frames, "nonblank_share": nonblank / total_frames,
            "matrix_bytes": total_bytes, "vocab_size": len(CHAR_TOKENS)}


# ----------------------------------------------------------- cli_corpus


def _gen_cli_corpus(rng, size: Size, out: str) -> dict:
    """Thousands of short peaky character utterances with transducer alignments.

    The make_synthetic_data.py shape with 2-5 filler words; every other
    utterance carries a biasing word and 60% of those are garbled in the
    matrix and in the transducer transcript.  The transducer also misreads
    every 20th filler, which no biasing repairs.
    """
    blank = len(CHAR_TOKENS) - 1
    # The word lists are the same for every seed; seeds vary the utterances.
    # With 24 entries, a per-seed list would make its own composition the
    # main source of spread in WER, F1 and search time across seeds.
    fixed = np.random.default_rng(2406)
    ranked = _random_words(fixed, 400, 2, 6)
    fillers = ranked[:150]
    # compounds come from words no utterance speaks, so their splits cannot
    # match two spoken fillers in a row
    biasing = _biasing_list(fixed, ranked[150:], size.list_size, compound_share=0.7,
                            short_share=0.0, exclude=ranked)
    _write_char_vocab(out)
    _write_lines(os.path.join(out, "context.txt"), biasing)
    _write_lines(os.path.join(out, "wordlist.txt"), ranked)

    filler_count = itertools.count()
    nonblank = total_frames = total_bytes = 0
    with open(os.path.join(out, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        for u in range(size.utterances):
            uid = f"cli{u:05d}"
            # 2-5 fillers: with 2-4, exactly half the utterances would have at most
            # three words, and the median utterance time would sit in the gap
            # between the three- and four-word utterances
            words = [fillers[int(i)] for i in rng.integers(0, len(fillers), size=rng.integers(2, 6))]
            garble = set()
            if u % 2 == 0:  # exact shares, so seeds differ in words, not in counts
                at = int(rng.integers(0, len(words) + 1))
                words.insert(at, biasing[int(rng.integers(0, len(biasing)))])
                if (u // 2) % 5 < 3:
                    garble.add(at)
            plan, intervals = _char_plan(rng, words, peak_range=(0.85, 0.92),
                                         garble_interior=garble)
            values = _frames_from_plan(rng, plan, len(CHAR_TOKENS), blank, rest_sigma=0.3,
                                       rest_mass=0.015)
            nonblank += int((values.argmax(axis=1) != blank).sum())
            total_frames += len(plan)
            total_bytes += _write_matrix(values, os.path.join(out, f"{uid}.bin"))
            with open(os.path.join(out, f"{uid}.ali.jsonl"), "w", encoding="utf-8") as ali:
                for w_i, (word, (s, e)) in enumerate(zip(words, intervals)):
                    if w_i in garble:
                        heard = word[0] + "".join(LETTERS[(LETTERS.index(c) + 1) % 26]
                                                  for c in word[1:-1]) + word[-1]
                    elif next(filler_count) % 20 == 19:
                        heard = fillers[int(rng.integers(0, len(fillers)))]
                    else:
                        heard = word
                    ali.write(json.dumps({"word": heard, "start_frame": s, "end_frame": e,
                                          "score": round(-0.2 * (e - s + 1), 3)}) + "\n")
            fh.write(_manifest_row(uid, " ".join(words),
                                   transducer_alignment=f"{uid}.ali.jsonl") + "\n")
    return {"frames": total_frames, "nonblank_share": nonblank / total_frames,
            "matrix_bytes": total_bytes, "vocab_size": len(CHAR_TOKENS)}


_GENERATORS = {
    "long_bpe": _gen_long_bpe,
    "dense_char": _gen_dense_char,
    "cli_corpus": _gen_cli_corpus,
}
