"""Library-path measurement of one workload, run in a fresh process.

Sets the graph up several times, then decodes the utterance pool closed
loop (one utterance at a time) until the time budget is spent, every
utterance has run once and enough samples exist.  Writes one JSON result
file; run.py turns it into metrics.  With --trace 1 every
utterance also runs once more under span recording, in alternating order,
so the tracing overhead is measured against the untraced runs.

Usage (from the repository root; run.py does this):
    python3 bench/worker.py --input DIR --mode ctc --seconds 30 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from ctcspot import (  # noqa: E402
    LogProbMatrix,
    SpotterConfig,
    build_graph,
    evaluate,
    expand_entries,
    find_best_hyps,
    greedy_ctc_align,
    load_context_list,
    load_graph,
    load_logprobs,
    load_manifest,
    load_transducer_alignment,
    load_vocabulary,
    load_wordlist,
    merge_ctc,
    merge_transducer,
    save_graph,
    spot,
)
from spans import NullTracer, Tracer  # noqa: E402

# How far past --seconds the loop may run to decode every utterance once and
# collect --min-timed samples; keeps a whole run under three minutes.
HARD_EXTRA_S = 60.0


def set_up(input_dir: str, tracer) -> dict:
    """Vocabulary, context list, expansion and trie: the work counted as setup_s."""
    wordlist = os.path.join(input_dir, "wordlist.txt")
    with tracer.span("bench.setup"):
        t0 = time.perf_counter()
        with tracer.span("core.load_vocabulary"):
            vocab = load_vocabulary(os.path.join(input_dir, "vocab.txt"))
        with tracer.span("alts.load_context_list"):
            rows = load_context_list(os.path.join(input_dir, "context.txt"))
        dictionary = None
        if os.path.exists(wordlist):
            with tracer.span("alts.load_wordlist"):
                dictionary = load_wordlist(wordlist)
        t1 = time.perf_counter()
        with tracer.span("alts.expand_entries"):
            entries = expand_entries([c for c, _ in rows], vocab, dictionary=dictionary)
        t2 = time.perf_counter()
        with tracer.span("graph.build_graph"):
            graph = build_graph(entries, blank_id=vocab.blank_id)
        t3 = time.perf_counter()
    return {"vocab": vocab, "words": [c for c, _ in rows], "entries": entries, "graph": graph,
            "setup_s": t3 - t0, "expand_s": t2 - t1, "build_s": t3 - t2}


def run_utterance(record, vocab, graph, cfg, mode: str, tracer):
    """load_logprobs -> spot -> find_best_hyps -> greedy_ctc_align -> merge."""
    uid = record.utterance_id
    with tracer.span("bench.utterance", uid):
        with tracer.span("core.load_logprobs", uid):
            lp = load_logprobs(record.logprob_path)
        if mode == "transducer":
            with tracer.span("align.load_transducer_alignment", uid):
                transducer = load_transducer_alignment(record.transducer_alignment_path)
        with tracer.span("spotter.spot", uid):
            raw = spot(lp, graph, cfg)
        with tracer.span("spotter.find_best_hyps", uid):
            best = find_best_hyps(raw)
        with tracer.span("align.greedy_ctc_align", uid):
            greedy = greedy_ctc_align(lp, vocab, ctc_w=cfg.ctc_w)
        blank_scores = cfg.ctc_w * lp.values[:, vocab.blank_id].astype(np.float64)
        with tracer.span("merge.merge", uid):
            if mode == "transducer":
                result = merge_transducer(transducer, greedy, best, blank_scores)
            else:
                result = merge_ctc(greedy, best, blank_scores)
    return lp, raw, best, greedy, result


def fingerprint(result) -> tuple:
    """What must not change between runs: candidates, decisions and merged text."""
    return (result.text, tuple(
        (d.candidate.word, d.candidate.start_frame, d.candidate.end_frame,
         f"{d.candidate.score:.4f}", d.accepted)
        for d in result.decisions))


def tally_planted(stats: dict, uid: str, marks, raw, kept: set) -> None:
    """Count how spot and find_best_hyps treated each clean planted word.

    exact: spot's best-scoring occurrence of the word over its frames is at
    the planted interval; shifted: at another interval; missed: not found.
    kept: find_best_hyps returned the exact interval.
    """
    for word, start, end, garbled in marks:
        if garbled:
            continue
        hits = [c for c in raw
                if c.word == word and c.start_frame <= end and start <= c.end_frame]
        top = max(hits, key=lambda c: c.score, default=None)
        if top is None:
            kind = "missed"
        elif (top.start_frame, top.end_frame) == (start, end):
            kind = "exact"
        else:
            kind = "shifted"
        stats[kind] += 1
        stats["kept"] += (word, start, end) in kept
        if kind != "exact" and len(stats["examples"]) < 10:
            found = [top.start_frame, top.end_frame] if top else []
            stats["examples"].append([uid, word, start, end, kind, *found])


class DecodeLoop:
    """Closed-loop decoding of the utterance pool, resumable across chunks.

    Untraced, each step decodes one utterance.  Traced, it decodes the
    utterance twice, once under spans and once not, alternating the order.
    The first pass over each utterance is kept for the checks, the counts
    and the digest; later passes must reproduce it.
    """

    def __init__(self, records, vocab, graph, mode: str, tracer, planted: dict) -> None:
        self.records, self.vocab, self.graph, self.mode = records, vocab, graph, mode
        self.cfg = SpotterConfig()
        self.tracer = tracer
        self.null = NullTracer()
        self.traced = isinstance(tracer, Tracer)
        self.planted = planted
        self.utt_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.validate_ms: list[float] = []
        self.first: dict[int, tuple] = {}
        self.planted_stats = {"exact": 0, "shifted": 0, "missed": 0, "kept": 0, "examples": []}
        self.counts = {"raw": 0, "resolved": 0, "words": 0, "accepted": 0}
        self.repeats_identical = True
        self.errors: list[str] = []
        self.attempted = self.failed = self.frames_timed = self.steps = 0
        self.loop_s = 0.0

    def run(self, seconds: float, min_timed: int = 0) -> None:
        """Decode for `seconds`; with `min_timed`, go on until every utterance
        ran once and that many are timed, or until HARD_EXTRA_S more passed."""
        start = time.perf_counter()
        while True:
            spent = time.perf_counter() - start
            if spent >= seconds and (not min_timed or (
                    self.steps >= len(self.records) and len(self.utt_ms) >= min_timed)):
                break
            if spent >= seconds + HARD_EXTRA_S:
                break  # too slow to collect the samples; run.py reports the shortfall
            self.step()
        self.loop_s += time.perf_counter() - start

    def step(self) -> None:
        idx = self.steps % len(self.records)
        record = self.records[idx]
        self.steps += 1
        self.attempted += 1
        if not self.traced:
            order = (self.null,)
        else:  # alternate which copy runs first, so neither always finds a warm cache
            order = (self.null, self.tracer) if self.steps % 2 else (self.tracer, self.null)
        try:
            for tr in order:
                t0 = time.perf_counter()
                lp, raw, best, greedy, result = run_utterance(
                    record, self.vocab, self.graph, self.cfg, self.mode, tr)
                elapsed = 1000.0 * (time.perf_counter() - t0)
                if tr is self.null:
                    self.utt_ms.append(elapsed)
                    self.frames_timed += lp.frames
                else:
                    self.traced_ms.append(elapsed)
                    with tr.span("core.validate", record.utterance_id):
                        t0 = time.perf_counter()
                        LogProbMatrix(values=lp.values, normalized=lp.normalized)
                        self.validate_ms.append(1000.0 * (time.perf_counter() - t0))
        except Exception as exc:  # one failing utterance is counted, the loop goes on
            self.failed += 1
            self.errors.append(f"{record.utterance_id}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return
        fp = fingerprint(result)
        if idx in self.first:
            self.repeats_identical &= self.first[idx] == fp
            return
        self.first[idx] = fp
        kept = {(c.word, c.start_frame, c.end_frame) for c in best}
        tally_planted(self.planted_stats, record.utterance_id,
                      self.planted.get(record.utterance_id, ()), raw, kept)
        self.counts["raw"] += len(raw)
        self.counts["resolved"] += len(best)
        self.counts["words"] += len(greedy.words)
        self.counts["accepted"] += sum(d.accepted for d in result.decisions)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", required=True, help="workload input directory")
    ap.add_argument("--mode", choices=("ctc", "transducer"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="timed-loop budget")
    ap.add_argument("--chunked", action="store_true",
                    help="after set-up print 'ready', then for each stdin line decode for "
                         "that many seconds and print 'ok'; run.py interleaves CLI runs")
    ap.add_argument("--min-timed", type=int, default=1, help="fewest timed utterances")
    ap.add_argument("--setup-reps", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="result JSON to write")
    args = ap.parse_args(argv)
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    out: dict = {"checks": {}}

    setups = [set_up(args.input, tracer) for _ in range(args.setup_reps)]
    setup = setups[-1]
    vocab, graph = setup["vocab"], setup["graph"]
    out["setup_s"] = [s["setup_s"] for s in setups]
    out["expand_s"] = [s["expand_s"] for s in setups]
    out["build_s"] = [s["build_s"] for s in setups]
    out["transcriptions"] = sum(len(e.transcriptions) for e in setup["entries"])
    out["graph_nodes"] = graph.num_nodes
    del setups

    if traced:
        # graph file I/O, and the file the CLI decodes with in the traced run
        path = os.path.join(args.input, "library.graph")
        save_s, load_s = [], []
        for _ in range(args.setup_reps):
            with tracer.span("graph.save_graph"):
                t0 = time.perf_counter()
                save_graph(graph, path, vocab)
                save_s.append(time.perf_counter() - t0)
            with tracer.span("graph.load_graph"):
                t0 = time.perf_counter()
                loaded = load_graph(path, vocab)
                load_s.append(time.perf_counter() - t0)
        out["save_s"], out["load_s"] = save_s, load_s
        out["checks"]["graph_roundtrip"] = (
            loaded.canonicals == graph.canonicals
            and [(n.token_id, n.parent, n.is_end_of_word, n.entry_id) for n in loaded.nodes]
            == [(n.token_id, n.parent, n.is_end_of_word, n.entry_id) for n in graph.nodes])

    with tracer.span("core.load_manifest"):
        records = load_manifest(os.path.join(args.input, "manifest.jsonl"))
    planted_path = os.path.join(args.input, "planted.json")
    planted: dict[str, list] = {}
    if os.path.exists(planted_path):
        with open(planted_path, encoding="utf-8") as fh:
            planted = json.load(fh)
    loop = DecodeLoop(records, vocab, graph, args.mode, tracer, planted)
    run_utterance(records[0], vocab, graph, loop.cfg, args.mode, loop.null)  # warm-up, untimed
    if args.chunked:
        print("ready", flush=True)
        for line in sys.stdin:
            loop.run(float(line))
            print("ok", flush=True)
    loop.run(0.0 if args.chunked else args.seconds, args.min_timed)

    out["checks"]["repeat_passes_identical"] = loop.repeats_identical
    out["checks"]["every_utterance_decoded"] = len(loop.first) == len(records)
    if planted:
        # Clean planted words: did spot report each with its best score at the
        # exact interval, and did find_best_hyps keep it?  Reported, not checked:
        # the seed code's beam loses some of them (see bench/README.md).
        out["planted"] = loop.planted_stats

    first = loop.first
    merged = {records[idx].utterance_id: fp[0] for idx, fp in first.items()}
    pairs = [(rec.text, merged[rec.utterance_id]) for rec in records
             if rec.utterance_id in merged]
    with tracer.span("metrics.evaluate"):
        t0 = time.perf_counter()
        report = evaluate(pairs, setup["words"])
        out["evaluate_s"] = time.perf_counter() - t0

    digest = hashlib.sha256()
    for idx in sorted(first):
        digest.update(json.dumps([records[idx].utterance_id, first[idx]]).encode("utf-8"))
    out.update(
        errors=loop.errors, utt_ms=loop.utt_ms, traced_ms=loop.traced_ms, validate_ms=loop.validate_ms,
        loop_s=loop.loop_s, frames_timed=loop.frames_timed, counts=loop.counts,
        attempted=loop.attempted, failed=loop.failed,
        wer=report.wer, fscore=report.fscore, digest=digest.hexdigest(), merged=merged,
        bytes_read=sum(os.path.getsize(r.logprob_path) for r in records),
    )
    if traced:
        out["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
