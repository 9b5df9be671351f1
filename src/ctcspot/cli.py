"""Batch command line: build graphs, decode manifests, score, mine lists.

Exit codes: 0 success, 1 usage error, 2 data error, 3 some utterances or
entries failed while the rest were processed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence, TextIO

import numpy as np

from .align import WordAlignment, greedy_ctc_align, load_transducer_alignment
from .alts import (
    WordCostDictionary,
    collect_alts,
    expand_entries,
    load_context_list,
    load_wordlist,
    spelling_variants,
)
from .core import (
    DEFAULT_BOUNDARY_MARKER,
    SpotterConfig,
    UtteranceRecord,
    Vocabulary,
    finite_number,
    load_logprobs,
    load_manifest,
    load_vocabulary,
    read_jsonl,
)
from .errors import DataError, InvalidValueError
from .graph import ContextGraph, build_graph, load_graph, save_graph
from .merge import merge_ctc, merge_transducer
from .metrics import DEFAULT_MAX_ACCURACY, DEFAULT_MIN_TERM_LEN, evaluate, mine_biasing_list
from .spotter import find_best_hyps, spot

logger = logging.getLogger("ctcspot")

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

_DEFAULTS = SpotterConfig()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for data errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", required=True, help="token-per-line vocabulary file")
    p.add_argument("--blank-id", type=int, default=None,
                   help="blank token id (default: last token)")
    p.add_argument("--boundary-marker", default=DEFAULT_BOUNDARY_MARKER,
                   help="prefix marking word-initial pieces")


def _add_alt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wordlist", default=None,
                   help="frequency-ranked word list enabling compound splits")
    p.add_argument("--manual-alts", default=None,
                   help="extra alternative spellings, word[TAB alt]+ per line")
    p.add_argument("--no-auto-alts", action="store_true",
                   help="disable abbreviation and compound variants")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctcspot",
                     description="CTC word spotting and transcript biasing")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-graph", help="compile a context list into a graph file")
    _add_vocab_args(p)
    p.add_argument("--context-list", required=True, help="biasing words, one per line")
    p.add_argument("--output", required=True, help="graph file to write")
    _add_alt_args(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("decode", help="spot biasing words and merge them into transcripts")
    _add_vocab_args(p)
    p.add_argument("--manifest", required=True, help="JSONL utterance manifest")
    p.add_argument("--output", required=True, help="JSONL results file to write")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", default=None, help="prebuilt graph file")
    src.add_argument("--context-list", default=None, help="biasing words to compile in-memory")
    _add_alt_args(p)
    p.add_argument("--mode", choices=("ctc", "transducer"), default="ctc",
                   help="transcript source the candidates are spliced into")
    p.add_argument("--workers", type=int, default=1, help="parallel utterance workers")
    p.add_argument("--cb-w", type=float, default=_DEFAULTS.cb_w,
                   help="per-emission word bonus")
    p.add_argument("--ctc-w", type=float, default=_DEFAULTS.ctc_w,
                   help="weight on greedy word scores")
    p.add_argument("--beta-thr", type=float, default=_DEFAULTS.beta_thr,
                   help="log blank prob above which empty hypotheses skip the frame")
    p.add_argument("--gamma-thr", type=float, default=_DEFAULTS.gamma_thr,
                   help="log prob gate on a word's first token")
    p.add_argument("--beam-thr", type=float, default=_DEFAULTS.beam_thr,
                   help="beam width below the frame-best score")
    p.add_argument("--no-pruning", action="store_true",
                   help="exhaustive search: no beam, state, or threshold pruning")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score decode results against manifest references")
    p.add_argument("--results", required=True, help="decode output JSONL")
    p.add_argument("--manifest", required=True, help="manifest holding reference text")
    p.add_argument("--context-list", required=True, help="biasing words scored for P/R/F")
    p.add_argument("--output", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine-list", help="mine poorly recognized terms from greedy decodes")
    _add_vocab_args(p)
    p.add_argument("--manifest", required=True, help="manifest holding reference text")
    p.add_argument("--output", required=True, help="mined term list to write")
    p.add_argument("--min-len", type=int, default=DEFAULT_MIN_TERM_LEN,
                   help="minimum term length in characters")
    p.add_argument("--max-acc", type=float, default=DEFAULT_MAX_ACCURACY,
                   help="keep terms recognized at most this fraction of the time")
    p.set_defaults(func=cmd_mine_list)

    p = sub.add_parser("gen-alts", help="write a context list expanded with alternative spellings")
    p.add_argument("--context-list", required=True, help="biasing words, one per line")
    p.add_argument("--output", required=True, help="expanded context list to write")
    _add_alt_args(p)
    p.set_defaults(func=cmd_gen_alts)

    return parser


@contextlib.contextmanager
def _replace_on_success(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file written beside path and moved over it when the block
    completes, so a run that fails midway leaves an earlier output as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_vocab(args: argparse.Namespace) -> Vocabulary:
    return load_vocabulary(
        args.vocab,
        blank_id=args.blank_id,
        word_boundary_marker=args.boundary_marker,
    )


def _read_lists(
    args: argparse.Namespace,
) -> tuple[list[str], dict[str, tuple[str, ...]], WordCostDictionary | None]:
    """The context list's words in first-seen order, their manual spellings
    and the cost dictionary.

    A word's manual spellings are its context-list alternatives, accumulated
    over repeated rows, then those from --manual-alts.
    """
    rows = load_context_list(args.context_list)
    extra = load_context_list(args.manual_alts) if args.manual_alts else []
    dictionary = load_wordlist(args.wordlist) if args.wordlist else None
    return list(dict.fromkeys(c for c, _ in rows)), collect_alts(rows + extra), dictionary


def _entries_from_args(args: argparse.Namespace, vocab: Vocabulary):
    """Context-list words and their spellings, expanded to entries."""
    words, manual, dictionary = _read_lists(args)
    entries = expand_entries(
        words,
        vocab,
        dictionary=dictionary,
        manual_alts=manual,
        auto_alts=not args.no_auto_alts,
    )
    return entries, len(words)


def cmd_build_graph(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args)
    entries, requested = _entries_from_args(args, vocab)
    graph = build_graph(entries, blank_id=vocab.blank_id)
    save_graph(graph, args.output, vocab)
    transcriptions = sum(len(e.transcriptions) for e in entries)
    print(
        f"graph: {graph.num_nodes} nodes, {len(entries)} entries, "
        f"{transcriptions} transcriptions -> {args.output}"
    )
    if len(entries) < requested:
        logger.error("%d of %d entries were unsegmentable and dropped",
                     requested - len(entries), requested)
        return EXIT_PARTIAL
    return 0


_WORK: dict = {}  # per-process decode state, set once by _init_worker


def _init_worker(vocab: Vocabulary, graph: ContextGraph, cfg: SpotterConfig, mode: str) -> None:
    _WORK["vocab"] = vocab
    _WORK["graph"] = graph
    _WORK["cfg"] = cfg
    _WORK["mode"] = mode


def _decode_task(record: UtteranceRecord):
    try:
        row, elapsed = _decode_utterance(
            record, _WORK["vocab"], _WORK["graph"], _WORK["cfg"], _WORK["mode"]
        )
        return row, elapsed, None
    except Exception as exc:  # one bad utterance must not kill the batch
        return None, 0.0, f"{record.utterance_id}: {exc}"


def _decode_utterance(
    record: UtteranceRecord,
    vocab: Vocabulary,
    graph: ContextGraph,
    cfg: SpotterConfig,
    mode: str,
) -> tuple[str, float]:
    """Run the pipeline on one utterance; returns (JSON row, decode seconds).

    The timer covers alignment, which checks the matrix width before the
    search, spotting, and merging; file loads stay outside it.
    """
    lp = load_logprobs(record.logprob_path)
    transducer: WordAlignment | None = None
    if mode == "transducer":
        if not record.transducer_alignment_path:
            raise InvalidValueError("transducer mode needs a transducer_alignment path")
        transducer = load_transducer_alignment(record.transducer_alignment_path)

    t0 = time.perf_counter()
    greedy = greedy_ctc_align(lp, vocab, ctc_w=cfg.ctc_w)
    candidates = find_best_hyps(spot(lp, graph, cfg))
    blank_scores = cfg.ctc_w * lp.values[:, vocab.blank_id].astype(np.float64)
    if transducer is not None:
        result = merge_transducer(transducer, greedy, candidates, blank_scores)
    else:
        result = merge_ctc(greedy, candidates, blank_scores)
    elapsed = time.perf_counter() - t0

    row: dict = {"id": record.utterance_id, "greedy_text": greedy.text}
    if transducer is not None:
        row["transducer_text"] = transducer.text
    row["merged_text"] = result.text
    row["candidates"] = [
        {
            "word": d.candidate.word,
            "start_frame": d.candidate.start_frame,
            "end_frame": d.candidate.end_frame,
            "score": d.candidate.score,
            "accepted": d.accepted,
            # null: no overlap and no blank mass to compare against
            "greedy_score_sum": None if math.isinf(d.greedy_score_sum) else d.greedy_score_sum,
            "overlapped_words": [w.word for w in d.overlapped_words],
        }
        for d in result.decisions
    ]
    return json.dumps(row, ensure_ascii=False), elapsed


def cmd_decode(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args)
    try:
        cfg = SpotterConfig(
            cb_w=args.cb_w,
            ctc_w=args.ctc_w,
            beta_thr=args.beta_thr,
            gamma_thr=args.gamma_thr,
            beam_thr=args.beam_thr,
            pruning_enabled=not args.no_pruning,
        )
    except InvalidValueError as exc:
        print(f"ctcspot decode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.graph:
        graph = load_graph(args.graph, vocab)
    else:
        entries, _ = _entries_from_args(args, vocab)
        graph = build_graph(entries, blank_id=vocab.blank_id)
    records = load_manifest(args.manifest)

    failures: list[str] = []
    done = 0
    total_seconds = 0.0
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_replace_on_success(args.output))
        if args.workers <= 1:
            _init_worker(vocab, graph, cfg, args.mode)
            results = map(_decode_task, records)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=args.workers,
                initializer=_init_worker,
                initargs=(vocab, graph, cfg, args.mode),
            ))
            results = pool.map(_decode_task, records)
        # map and pool.map both yield results in manifest order
        for row, elapsed, error in results:
            if error is not None:
                failures.append(error)
            else:
                out.write(row + "\n")
                done += 1
                total_seconds += elapsed

    # timing lives beside the results so the results stay byte-stable
    with _replace_on_success(args.output + ".meta.json") as fh:
        json.dump({"decode_seconds": total_seconds, "utterances": done}, fh)
        fh.write("\n")
    print(f"decoded {done}/{len(records)} utterances in {total_seconds:.3f} s "
          "(spotting and merging; file loads excluded)")
    for msg in failures:
        logger.error("%s", msg)
    return EXIT_PARTIAL if failures else 0


def cmd_eval(args: argparse.Namespace) -> int:
    hyps: dict[str, str] = {}
    for where, row in read_jsonl(args.results, frozenset({"id", "merged_text"})):
        if not isinstance(row["id"], str) or not isinstance(row["merged_text"], str):
            raise InvalidValueError(f"{where}: 'id' and 'merged_text' must be strings")
        if row["id"] in hyps:
            raise InvalidValueError(f"{where}: duplicate result id {row['id']!r}")
        hyps[row["id"]] = row["merged_text"]

    pairs: list[tuple[str, str]] = []
    unscored = 0
    for record in load_manifest(args.manifest):
        if record.text is None or record.utterance_id not in hyps:
            unscored += 1
            continue
        pairs.append((record.text, hyps[record.utterance_id]))
    if not pairs:
        raise InvalidValueError("nothing to score: no manifest row has both text and a result")
    if unscored:
        logger.warning("skipping %d utterances without reference text or results", unscored)

    biasing = [c for c, _ in load_context_list(args.context_list)]
    decode_seconds = 0.0
    meta_path = args.results + ".meta.json"
    if os.path.exists(meta_path):
        for where, meta in read_jsonl(meta_path, frozenset()):
            decode_seconds = finite_number(meta.get("decode_seconds", 0.0))
            if decode_seconds is None:
                raise InvalidValueError(f"{where}: 'decode_seconds' must be a finite number")

    report = evaluate(pairs, biasing, decode_seconds=decode_seconds)
    payload = json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n"
    if args.output:
        with _replace_on_success(args.output) as fh:
            fh.write(payload)
        print(f"wer {report.wer:.2f}  fscore {report.fscore:.4f} "
              f"({report.precision:.4f}/{report.recall:.4f})  "
              f"decode_seconds {report.decode_seconds:.3f} -> {args.output}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_mine_list(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args)
    records = load_manifest(args.manifest)
    if not records:
        raise InvalidValueError(f"{args.manifest}: empty manifest")
    pairs: list[tuple[str, str]] = []
    failures: list[str] = []
    for record in records:
        try:
            if record.text is None:
                raise InvalidValueError("no reference text")
            lp = load_logprobs(record.logprob_path)
            pairs.append((record.text, greedy_ctc_align(lp, vocab).text))
        except Exception as exc:
            failures.append(f"{record.utterance_id}: {exc}")
    if not pairs:
        raise InvalidValueError("no utterance had both reference text and a readable matrix")
    mined = mine_biasing_list(pairs, min_len=args.min_len, max_accuracy=args.max_acc)
    with _replace_on_success(args.output) as fh:
        for term, _, _ in mined:
            fh.write(term + "\n")
    print(f"mined {len(mined)} terms from {len(pairs)} utterances -> {args.output}")
    for msg in failures:
        logger.error("%s", msg)
    return EXIT_PARTIAL if failures else 0


def cmd_gen_alts(args: argparse.Namespace) -> int:
    words, manual, dictionary = _read_lists(args)
    auto_alts = not args.no_auto_alts
    with _replace_on_success(args.output) as fh:
        for word in words:
            variants = spelling_variants(word, dictionary, manual.get(word, ()), auto_alts)
            fh.write("\t".join(variants) + "\n")
    print(f"wrote {len(words)} entries -> {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
