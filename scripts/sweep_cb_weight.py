#!/usr/bin/env python3
"""Decode a corpus at several word-bonus values and tabulate the metrics.

Compiles the context list once with the `build-graph` subcommand, runs
`decode` on that graph and `eval` once per bonus value, and prints one table
row each, so the precision/recall trade-off is visible at a glance.  The
subcommands' own status lines are kept off stdout; their errors still go to
stderr.

Example:
    python3 scripts/sweep_cb_weight.py --data-dir /tmp/demo --out-dir /tmp/sweep
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from ctcspot.cli import main as ctcspot_main


def cli_main(argv: list[str]) -> int:
    """Run one subcommand without its stdout status line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ctcspot_main(argv)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", required=True,
                    help="corpus directory holding manifest.jsonl, vocab.txt, context.txt")
    ap.add_argument("--out-dir", required=True, help="directory for decode/eval outputs")
    ap.add_argument("--cb-w", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    data = Path(args.data_dir)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = out / "context.graph"
    rc = cli_main([
        "build-graph",
        "--vocab", str(data / "vocab.txt"),
        "--context-list", str(data / "context.txt"),
        "--output", str(graph),
    ])
    if rc != 0:
        return rc

    print(f"{'cb_w':>6} {'wer':>8} {'precision':>10} {'recall':>8} {'fscore':>8} {'seconds':>8}")
    for w in args.cb_w:
        decoded = out / f"decode_cb{w:g}.jsonl"
        rc = cli_main([
            "decode",
            "--vocab", str(data / "vocab.txt"),
            "--manifest", str(data / "manifest.jsonl"),
            "--graph", str(graph),
            "--output", str(decoded),
            "--cb-w", str(w),
            "--workers", str(args.workers),
        ])
        if rc != 0:
            return rc
        report_path = out / f"eval_cb{w:g}.json"
        rc = cli_main([
            "eval",
            "--results", str(decoded),
            "--manifest", str(data / "manifest.jsonl"),
            "--context-list", str(data / "context.txt"),
            "--output", str(report_path),
        ])
        if rc != 0:
            return rc
        rep = json.loads(report_path.read_text(encoding="utf-8"))
        print(f"{w:6.2f} {rep['wer']:8.2f} {rep['precision']:10.4f} "
              f"{rep['recall']:8.4f} {rep['fscore']:8.4f} {rep['decode_seconds']:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
