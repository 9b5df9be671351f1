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
from typing import Iterator, Sequence

from .align import greedy_ctc_align, load_transducer_alignment
from .alts import (
    WordCostDictionary,
    expand_entries,
    load_context_list,
    load_wordlist,
    spelling_variants,
)
from .core import (
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
from .merge import decode_utterance
from .metrics import evaluate, mine_biasing_list

logger = logging.getLogger("ctcspot")

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for data errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", required=True, help="token-per-line vocabulary file")
    p.add_argument("--blank-id", type=int, default=None,
                   help="blank token id (default: last token)")


def _add_alt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wordlist", default=None,
                   help="frequency-ranked word list enabling compound splits")


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
    p.add_argument("--graph", required=True, help="graph file written by build-graph")
    p.add_argument("--mode", choices=("ctc", "transducer"), default="ctc",
                   help="transcript source the candidates are spliced into")
    p.add_argument("--workers", type=int, default=1, help="parallel utterance workers")
    p.add_argument("--cb-w", type=float, default=SpotterConfig.cb_w,
                   help="per-emission word bonus")
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
    p.set_defaults(func=cmd_mine_list)

    p = sub.add_parser("gen-alts", help="write a context list expanded with alternative spellings")
    p.add_argument("--context-list", required=True, help="biasing words, one per line")
    p.add_argument("--output", required=True, help="expanded context list to write")
    _add_alt_args(p)
    p.set_defaults(func=cmd_gen_alts)

    return parser


class _UsageError(Exception):
    """A bad flag value, reported on one stderr line as argparse words it (exit 1)."""


@contextlib.contextmanager
def _replace_on_success(path: str) -> Iterator[str]:
    """A temporary path beside path, moved over it when the block completes,
    so a run that fails midway leaves an earlier output as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    open(tmp, "x").close()  # claim the name: a file already there is never overwritten
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_lists(
    args: argparse.Namespace,
) -> tuple[list[str], dict[str, tuple[str, ...]], WordCostDictionary | None]:
    """The context list's words in first-seen order, their manual spellings
    (the list's alternatives) and the cost dictionary."""
    rows = load_context_list(args.context_list)
    dictionary = load_wordlist(args.wordlist) if args.wordlist else None
    return [w for w, _ in rows], dict(rows), dictionary


def _load_vocab(args: argparse.Namespace) -> Vocabulary:
    """The --vocab file with the --blank-id override; a faulty file is a data
    error, a blank id outside the file's tokens a usage error."""
    vocab = load_vocabulary(args.vocab)
    if args.blank_id is None:
        return vocab
    if not 0 <= args.blank_id < vocab.size:
        raise _UsageError(f"--blank-id must be in [0, {vocab.size - 1}], got {args.blank_id}")
    return Vocabulary(tokens=vocab.tokens, blank_id=args.blank_id)


def cmd_build_graph(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args)
    words, manual, dictionary = _read_lists(args)
    entries = expand_entries(words, vocab, dictionary=dictionary, manual_alts=manual)
    dropped = len(words) - len(entries)
    if dropped:
        logger.error("%d of %d entries were unsegmentable and dropped", dropped, len(words))
    graph = build_graph(entries, blank_id=vocab.blank_id)
    with _replace_on_success(args.output) as tmp:
        save_graph(graph, tmp, vocab)
    transcriptions = sum(len(e.transcriptions) for e in entries)
    print(
        f"graph: {graph.num_nodes} nodes, {len(entries)} entries, "
        f"{transcriptions} transcriptions -> {args.output}"
    )
    return EXIT_PARTIAL if dropped else 0


_WORK: tuple = ()  # (vocab, graph, cfg, mode) of this process, set by _init_worker


def _init_worker(vocab: Vocabulary, graph: ContextGraph, cfg: SpotterConfig, mode: str) -> None:
    global _WORK
    _WORK = (vocab, graph, cfg, mode)


def _failure(record: UtteranceRecord, exc: Exception) -> str:
    """The log line naming a failed utterance and why it failed."""
    return f"{record.utterance_id}: {type(exc).__name__}: {exc}"


def _decode_task(record: UtteranceRecord) -> tuple[str | None, float, str | None]:
    """Run decode_utterance on one utterance: (JSON row, decode seconds, None),
    or (None, 0.0, failure line) when it fails.

    The timer covers decode_utterance (alignment, which checks the matrix
    width before the search, spotting, and merging); file loads stay outside it.
    """
    vocab, graph, cfg, mode = _WORK
    try:
        lp = load_logprobs(record.logprob_path)
        transducer = None
        if mode == "transducer":
            if not record.transducer_alignment_path:
                raise InvalidValueError("transducer mode needs a transducer_alignment path")
            transducer = load_transducer_alignment(record.transducer_alignment_path)

        t0 = time.perf_counter()
        greedy, result = decode_utterance(lp, vocab, graph, cfg, transducer)
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
                # null: the threshold is -inf, because a greedy word or blank frame
                # it was judged against has zero probability
                "greedy_score_sum": None if math.isinf(d.greedy_score_sum) else d.greedy_score_sum,
                "overlapped_words": [w.word for w in d.overlapped_words],
            }
            for d in result.decisions
        ]
        # a score that overflowed to inf fails its utterance: Infinity is not JSON
        return json.dumps(row, ensure_ascii=False, allow_nan=False), elapsed, None
    except Exception as exc:  # one bad utterance must not kill the batch
        return None, 0.0, _failure(record, exc)


def cmd_decode(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    try:
        cfg = SpotterConfig(cb_w=args.cb_w)
    except InvalidValueError as exc:
        raise _UsageError(exc) from None
    vocab = _load_vocab(args)
    graph = load_graph(args.graph, vocab)
    if not graph.canonicals:
        logger.warning("%s has no entries: biasing is off", args.graph)
    records = load_manifest(args.manifest)
    # a pool starts all its processes at the first task: no more than there are utterances
    workers = min(args.workers, len(records))

    failed = done = 0
    total_seconds = 0.0
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(_replace_on_success(args.output))
        out = stack.enter_context(open(tmp, "w", encoding="utf-8"))
        if workers <= 1:
            _init_worker(vocab, graph, cfg, args.mode)
            results = map(_decode_task, records)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(vocab, graph, cfg, args.mode),
            ))
            # the manifest goes out in about 16 chunks per worker, so the IPC
            # round trip is paid per chunk and not per utterance
            results = pool.map(
                _decode_task, records, chunksize=max(1, len(records) // (workers * 16))
            )
        # map and pool.map both yield results in manifest order
        for row, elapsed, error in results:
            if error is not None:
                logger.error("%s", error)
                failed += 1
            else:
                out.write(row + "\n")
                done += 1
                total_seconds += elapsed

    # timing lives beside the results so the results stay byte-stable
    with _replace_on_success(args.output + ".meta.json") as tmp, \
            open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"decode_seconds": total_seconds, "utterances": done}, fh)
        fh.write("\n")
    print(f"decoded {done}/{len(records)} utterances in {total_seconds:.3f} s "
          "(spotting and merging; file loads excluded)")
    return EXIT_PARTIAL if failed else 0


def cmd_eval(args: argparse.Namespace) -> int:
    hyps: dict[str, tuple[str, str | None]] = {}
    for where, row in read_jsonl(args.results, frozenset({"id", "merged_text"})):
        if not isinstance(row["id"], str) or not isinstance(row["merged_text"], str):
            raise InvalidValueError(f"{where}: 'id' and 'merged_text' must be strings")
        # the transcript the merge repaired: the transducer's, else the greedy CTC text
        baseline = row["transducer_text"] if "transducer_text" in row else row.get("greedy_text")
        if baseline is not None and not isinstance(baseline, str):
            raise InvalidValueError(f"{where}: 'transducer_text' and 'greedy_text' must be strings")
        if row["id"] in hyps:
            raise InvalidValueError(f"{where}: duplicate result id {row['id']!r}")
        hyps[row["id"]] = (row["merged_text"], baseline)

    pairs: list[tuple[str, str]] = []
    baseline_pairs: list[tuple[str, str]] = []
    records = load_manifest(args.manifest)
    for record in records:
        if record.text is not None and record.utterance_id in hyps:
            merged, baseline = hyps[record.utterance_id]
            pairs.append((record.text, merged))
            if baseline is not None:
                baseline_pairs.append((record.text, baseline))
    if not pairs:
        raise InvalidValueError("nothing to score: no manifest row has both text and a result")
    if len(pairs) < len(records):
        logger.warning("skipping %d utterances without reference text or results",
                       len(records) - len(pairs))
    stray = len(hyps.keys() - {record.utterance_id for record in records})
    if stray:
        logger.warning("skipping %d results with no manifest row", stray)

    biasing = [c for c, _ in load_context_list(args.context_list)]
    decode_seconds = 0.0
    meta_path = args.results + ".meta.json"
    if os.path.exists(meta_path):
        for where, meta in read_jsonl(meta_path, frozenset()):
            decode_seconds = finite_number(meta.get("decode_seconds", 0.0))
            if decode_seconds is None:
                raise InvalidValueError(f"{where}: 'decode_seconds' must be a finite number")

    report = evaluate(pairs, biasing)
    # a baseline over fewer rows than the merged scores would score another corpus
    base = evaluate(baseline_pairs, biasing) if len(baseline_pairs) == len(pairs) else None
    baseline_keys = {f"baseline_{key}": None if base is None else getattr(base, key)
                     for key in ("wer", "precision", "recall", "fscore")}
    payload = json.dumps({**report.as_dict(), **baseline_keys, "decode_seconds": decode_seconds},
                         ensure_ascii=False, indent=2) + "\n"
    if args.output:
        with _replace_on_success(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wer {report.wer:.2f}  fscore {report.fscore:.4f} "
              f"({report.precision:.4f}/{report.recall:.4f})  "
              f"decode_seconds {decode_seconds:.3f} -> {args.output}")
    else:
        sys.stdout.write(payload)
    return 0


def cmd_mine_list(args: argparse.Namespace) -> int:
    vocab = _load_vocab(args)
    records = load_manifest(args.manifest)
    if not records:
        raise InvalidValueError(f"{args.manifest}: empty manifest")
    pairs: list[tuple[str, str]] = []
    failed = 0
    for record in records:
        try:
            if record.text is None:
                raise InvalidValueError("no reference text")
            lp = load_logprobs(record.logprob_path)
            pairs.append((record.text, greedy_ctc_align(lp, vocab).text))
        except Exception as exc:
            logger.error("%s", _failure(record, exc))
            failed += 1
    if not pairs:
        raise InvalidValueError("no utterance had both reference text and a readable matrix")
    mined = mine_biasing_list(pairs)
    with _replace_on_success(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for term, _, _ in mined:
            fh.write(term + "\n")
    print(f"mined {len(mined)} terms from {len(pairs)} utterances -> {args.output}")
    return EXIT_PARTIAL if failed else 0


def cmd_gen_alts(args: argparse.Namespace) -> int:
    words, manual, dictionary = _read_lists(args)
    with _replace_on_success(args.output) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for word in words:
            variants = spelling_variants(word, dictionary, manual.get(word, ()))
            fh.write("\t".join(variants) + "\n")
    print(f"wrote {len(words)} entries -> {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"ctcspot {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
