#!/usr/bin/env python3
"""ctcspot benchmark: seeded workloads timed from outside the library.

Generates the workload's inputs from --seed, runs it closed loop from this
one process, checks the outputs and prints every metric by name with its
unit.  The library path runs in a fresh worker process (worker.py); the CLI
path runs ``python -m ctcspot.cli`` as users do.

    python3 bench/run.py --workload long_bpe --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics.  --trace 1 records a span around
every call into a layer and prints the per-layer metrics, each layer's self
time and the tracing overhead; the spans are written to
.bench_work/traces/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A failed output check prints
correct=false and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5  # setup_s is the median of this many set-ups per run
STARTUP_REPS = 3  # cli.startup_s is the median of this many empty decodes
CLI_WORKERS = 2
WORKER_CHUNK_S = 1.5  # cli_corpus: library decoding between two timed CLI decodes
PROCESS_TIMEOUT_S = 170.0

E2E_UNITS = {
    "utt_ms_p50": "ms",
    "utt_ms_p90": "ms",
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wer": "%",
    "bias_f1": "ratio",
}

LAYERS = ("core", "alts", "graph", "spotter", "align", "merge", "metrics", "cli")
UTTERANCE_LAYERS = ("core", "spotter", "align", "merge")

LAYER_UNITS = {
    "core.load_ms": "ms",
    "core.validate_ms": "ms",
    "core.bytes_read": "bytes",
    "spotter.spot_ms": "ms",
    "spotter.raw_candidates": "count",
    "spotter.find_best_hyps_ms": "ms",
    "spotter.resolved_candidates": "count",
    "alts.expand_s": "s",
    "alts.transcriptions": "count",
    "graph.build_s": "s",
    "graph.nodes": "count",
    "graph.save_s": "s",
    "graph.load_s": "s",
    "align.greedy_ms": "ms",
    "align.words": "count",
    "merge.merge_ms": "ms",
    "merge.accepted": "count",
    "merge.accept_ratio": "ratio",
    "metrics.evaluate_s": "s",
    "cli.startup_s": "s",
    "cli.decode_seconds": "s",
    "cli.outside_decode_s": "s",
    "cli.decode_wall_s.w1": "s",
    "cli.decode_wall_s.w2": "s",
    "cli.parallel_speedup": "ratio",
    "cli.overhead_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.utt_share": "ratio" for layer in UTTERANCE_LAYERS},
    "trace.overhead_pct": "%",
}


@dataclass
class Proc:
    """A finished child process: exit code, wall-clock and peak memory."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


class Child:
    """A child process started in the checkout with ``src`` on PYTHONPATH.

    ``wait`` reaps it and returns its exit code, wall-clock and peak RSS;
    the RSS covers the child and every process it waited for.  With
    ``interactive`` its stdin and stdout are pipes the caller talks over.
    """

    def __init__(self, cmd: list[str], log_dir: Path, name: str, interactive: bool = False):
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.err_path = log_dir / f"{name}.err"
        self.out_file = open(log_dir / f"{name}.out", "wb")
        self.err_file = open(self.err_path, "wb")
        pipe = subprocess.PIPE if interactive else None
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=pipe or subprocess.DEVNULL, stdout=pipe or self.out_file,
            stderr=self.err_file, env=env, cwd=ROOT, text=interactive)
        self.watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()

    def wait(self) -> Proc:
        proc = self.proc
        try:
            if proc.stdin:
                proc.stdin.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            self.watchdog.cancel()
            self.out_file.close()
            self.err_file.close()
        wall = time.perf_counter() - self.t0
        if proc.stdout:
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(code=proc.returncode, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                    stderr=self.err_path.read_text(encoding="utf-8", errors="replace"))


def run_process(cmd: list[str], log_dir: Path, name: str) -> Proc:
    return Child(cmd, log_dir, name).wait()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload; collects metrics, checks and notes."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        import workloads  # imports ctcspot, so only after main() has checked src/

        self.args = args
        self.dir = run_dir
        self.inputs = run_dir / "inputs"
        self.size = workloads.SIZES[args.workload]["tiny" if args.tiny else "full"]
        self.mode = workloads.MODES[args.workload]
        self.shape = workloads.generate(args.workload, args.seed, str(self.inputs), args.tiny)
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.tracer = NullTracer()
        self.worker_proc: Proc | None = None

    # ----------------------------------------------------------- processes

    def process(self, cmd: list[str], name: str) -> Proc:
        proc = run_process(cmd, self.dir, name)
        if proc.code != 0:
            self.notes.append(f"{name} exited {proc.code}: {proc.stderr.strip()[-2000:]}")
        return proc

    def cli(self, name: str, *argv: str) -> Proc:
        """``python -m ctcspot.cli <argv>``, inside a cli.<subcommand> span when tracing."""
        with self.tracer.span(f"cli.{argv[0]}"):
            return self.process([sys.executable, "-m", "ctcspot.cli", *argv], name)

    def worker(self, seconds: float, trace: int, between=None) -> dict | None:
        """Run worker.py; with `between`, interleave its decoding with between().

        `between` is called at least twice and until `seconds` have passed;
        before each call the worker decodes for WORKER_CHUNK_S.  Decoding
        stops early if the worker or `between` fails.
        """
        out = self.dir / "worker.json"
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"), "--input", str(self.inputs),
            "--mode", self.mode, "--seconds", str(seconds),
            "--min-timed", str(self.size.min_timed), "--setup-reps", str(SETUP_REPS),
            "--trace", str(trace), "--out", str(out),
        ]
        if between is None:
            proc = self.process(cmd, "worker")
        else:
            child = Child(cmd + ["--chunked"], self.dir, "worker", interactive=True)
            try:
                if child.proc.stdout.readline().strip() == "ready":
                    t0, calls = time.perf_counter(), 0
                    while calls < 2 or time.perf_counter() - t0 < seconds:
                        calls += 1
                        child.proc.stdin.write(f"{WORKER_CHUNK_S}\n")
                        child.proc.stdin.flush()
                        if child.proc.stdout.readline().strip() != "ok" or not between():
                            break
            finally:
                proc = child.wait()
            if proc.code != 0:
                self.notes.append(f"worker exited {proc.code}: {proc.stderr.strip()[-2000:]}")
        self.worker_proc = proc
        self.checks["worker_exit_0"] = proc.code == 0
        if proc.code != 0:
            return None
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.checks.update(res["checks"])
        self.notes.extend(f"utterance failed: {msg}" for msg in res["errors"][:10])
        if "planted" in res:
            pl = res["planted"]
            clean = pl["exact"] + pl["shifted"] + pl["missed"]
            self.notes.append(
                f"clean planted words: {pl['exact']} of {clean} found by spot at the exact "
                f"interval, {pl['shifted']} at another interval, {pl['missed']} missed; "
                f"{pl['kept']} kept by find_best_hyps")
            if pl["examples"]:
                self.notes.append(f"not exact (utt, word, start, end, kind, found): "
                                  f"{pl['examples']}")
        self.checks["enough_samples"] = len(res["utt_ms"]) >= self.size.min_timed
        self.shape.update(transcriptions=res["transcriptions"], graph_nodes=res["graph_nodes"])
        self.notes.append(f"digest {res['digest']} (candidates, decisions, merged text)")
        return res

    def decode(self, name: str, manifest: Path, graph: Path, workers: int) -> tuple[Proc, Path]:
        out = self.dir / f"{name}.jsonl"
        proc = self.cli(name, "decode", "--vocab", str(self.inputs / "vocab.txt"),
                        "--manifest", str(manifest), "--graph", str(graph),
                        "--mode", self.mode, "--workers", str(workers), "--output", str(out))
        if proc.code == 0:
            with open(str(out) + ".meta.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            rows = sum(1 for line in manifest.read_text(encoding="utf-8").splitlines() if line)
            self.attempted += rows
            self.failed += rows - meta["utterances"]
        return proc, out

    def build_graph_cli(self, name: str) -> tuple[Proc, Path]:
        graph = self.inputs / "context.graph"
        proc = self.cli(name, "build-graph", "--vocab", str(self.inputs / "vocab.txt"),
                        "--context-list", str(self.inputs / "context.txt"),
                        "--wordlist", str(self.inputs / "wordlist.txt"), "--output", str(graph))
        return proc, graph

    def check_cli_matches_library(self, out: Path, merged: dict[str, str]) -> None:
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        self.checks["cli_matches_library"] = bool(rows) and all(
            merged.get(row["id"]) == row["merged_text"] for row in rows)

    # ------------------------------------------------------------ end to end

    def end_to_end(self) -> None:
        if self.args.workload == "cli_corpus":
            self.end_to_end_cli()
            return
        res = self.worker(self.args.seconds, trace=0)
        if res is None:
            return
        self.metrics.update(
            utt_ms_p50=statistics.median(res["utt_ms"]),
            utt_ms_p90=p90(res["utt_ms"]),
            frames_per_s=res["frames_timed"] / res["loop_s"],
            setup_s=statistics.median(res["setup_s"]),
            peak_rss_mb=self.worker_proc.peak_rss_mb,
            wer=res["wer"],
            bias_f1=res["fscore"],
        )
        self.notes.append(f"utt_ms samples {len(res['utt_ms'])}")

    def end_to_end_cli(self) -> None:
        builds, digests = [], set()
        for k in range(SETUP_REPS):
            proc, graph = self.build_graph_cli(f"build_graph_{k}")
            builds.append(proc)
            if proc.code == 0:
                digests.add(file_sha256(graph))
        self.checks["build_graph_deterministic"] = len(digests) == 1
        manifest = self.inputs / "manifest.jsonl"
        # the --workers 1 decode also warms the page cache for the timed decodes
        proc1, out1 = self.decode("decode_w1", manifest, graph, 1)
        cli_procs = builds + [proc1]
        walls, first_bytes = [], None
        identical = True

        def timed_decode() -> bool:
            nonlocal first_bytes, identical
            proc, out = self.decode(f"decode_w{CLI_WORKERS}", manifest, graph, CLI_WORKERS)
            cli_procs.append(proc)
            if proc.code != 0:
                return False
            walls.append(proc.wall_s)
            data = out.read_bytes()
            first_bytes = data if first_bytes is None else first_bytes
            identical &= data == first_bytes
            return True

        # library chunks and decodes alternate over the whole timed phase, so
        # both see the same share of the machine's fast and slow spells
        res = self.worker(self.args.seconds, trace=0, between=timed_decode)
        self.checks["cli_runs_identical"] = identical
        self.checks["cli_w1_w2_identical"] = proc1.code == 0 and out1.read_bytes() == first_bytes
        out2 = self.dir / f"decode_w{CLI_WORKERS}.jsonl"
        report_path = self.dir / "eval.json"
        proc_e = self.cli("eval", "eval", "--results", str(out2), "--manifest", str(manifest),
                          "--context-list", str(self.inputs / "context.txt"),
                          "--output", str(report_path))
        cli_procs.append(proc_e)
        self.checks["cli_exit_0"] = all(p.code == 0 for p in cli_procs)
        if not self.checks["cli_exit_0"] or res is None:
            return
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        self.check_cli_matches_library(out2, res["merged"])
        self.checks["eval_matches_library"] = (
            report["wer"] == res["wer"] and report["fscore"] == res["fscore"])
        self.notes.append(f"cli output sha256 {hashlib.sha256(first_bytes).hexdigest()}")
        self.notes.append(f"decode walls (s) {[round(w, 3) for w in walls]}, "
                          f"utt_ms samples {len(res['utt_ms'])}")
        self.metrics.update(
            utt_ms_p50=statistics.median(res["utt_ms"]),
            utt_ms_p90=p90(res["utt_ms"]),
            frames_per_s=self.shape["frames"] * len(walls) / sum(walls),
            setup_s=statistics.median(p.wall_s for p in builds),
            peak_rss_mb=max(p.peak_rss_mb for p in cli_procs),
            wer=report["wer"],
            bias_f1=report["fscore"],
        )

    # ------------------------------------------------------------- per layer

    def per_layer(self) -> None:
        res = self.worker(self.args.seconds, trace=1)
        if res is None:
            return
        tracer = self.tracer = Tracer()
        tracer.extend(res["spans"])
        if self.args.workload == "cli_corpus":
            proc_b, graph = self.build_graph_cli("build_graph")
            cli_procs = [proc_b]
            manifest = self.inputs / "manifest.jsonl"
        else:
            graph = self.inputs / "library.graph"
            cli_procs = []
            manifest = self.inputs / "subset.jsonl"
            lines = (self.inputs / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
            manifest.write_text("\n".join(lines[: self.size.cli_subset]) + "\n", encoding="utf-8")
        empty = self.inputs / "empty.jsonl"
        empty.write_text("", encoding="utf-8")

        startups = []
        for k in range(STARTUP_REPS):
            proc, _ = self.decode(f"decode_empty{k}", empty, graph, CLI_WORKERS)
            cli_procs.append(proc)
            startups.append(proc.wall_s)
        proc1, out1 = self.decode("decode_w1", manifest, graph, 1)
        proc2, out2 = self.decode(f"decode_w{CLI_WORKERS}", manifest, graph, CLI_WORKERS)
        proc_e = self.cli("eval", "eval", "--results", str(out2), "--manifest", str(manifest),
                          "--context-list", str(self.inputs / "context.txt"),
                          "--output", str(self.dir / "eval.json"))
        cli_procs += [proc1, proc2, proc_e]
        self.checks["cli_exit_0"] = all(p.code == 0 for p in cli_procs)
        if not self.checks["cli_exit_0"]:
            return
        self.checks["cli_w1_w2_identical"] = out1.read_bytes() == out2.read_bytes()
        self.check_cli_matches_library(out2, res["merged"])
        with open(str(out2) + ".meta.json", encoding="utf-8") as fh:
            decode_seconds = json.load(fh)["decode_seconds"]

        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(str(trace_path))
        self.notes.append(f"spans written to {trace_path.relative_to(ROOT)}")

        def median_ms(name: str) -> float:
            return 1000.0 * statistics.median(tracer.durations(name))

        counts = res["counts"]
        startup = statistics.median(startups)
        outside = proc2.wall_s - startup - decode_seconds / CLI_WORKERS
        self_all = tracer.self_times()
        self_utt = tracer.self_times(under="bench.utterance")
        utt_total = sum(tracer.durations("bench.utterance"))
        self.metrics.update({
            "core.load_ms": median_ms("core.load_logprobs"),
            "core.validate_ms": statistics.median(res["validate_ms"]),
            "core.bytes_read": res["bytes_read"],
            "spotter.spot_ms": median_ms("spotter.spot"),
            "spotter.raw_candidates": counts["raw"],
            "spotter.find_best_hyps_ms": median_ms("spotter.find_best_hyps"),
            "spotter.resolved_candidates": counts["resolved"],
            "alts.expand_s": statistics.median(res["expand_s"]),
            "alts.transcriptions": res["transcriptions"],
            "graph.build_s": statistics.median(res["build_s"]),
            "graph.nodes": res["graph_nodes"],
            "graph.save_s": statistics.median(res["save_s"]),
            "graph.load_s": statistics.median(res["load_s"]),
            "align.greedy_ms": median_ms("align.greedy_ctc_align"),
            "align.words": counts["words"],
            "merge.merge_ms": median_ms("merge.merge"),
            "merge.accepted": counts["accepted"],
            "merge.accept_ratio": counts["accepted"] / counts["resolved"] if counts["resolved"] else 0.0,
            "metrics.evaluate_s": res["evaluate_s"],
            "cli.startup_s": startup,
            "cli.decode_seconds": decode_seconds,
            "cli.outside_decode_s": outside,
            "cli.decode_wall_s.w1": proc1.wall_s,
            f"cli.decode_wall_s.w{CLI_WORKERS}": proc2.wall_s,
            "cli.parallel_speedup": proc1.wall_s / proc2.wall_s,
            "cli.overhead_share": (startup + outside) / proc2.wall_s,
            **{f"{layer}.self_s": self_all.get(layer, 0.0) for layer in LAYERS},
            **{f"{layer}.utt_share": self_utt.get(layer, 0.0) / utt_total
               for layer in UTTERANCE_LAYERS},
            "trace.overhead_pct": 100.0 * (statistics.median(res["traced_ms"])
                                           / statistics.median(res["utt_ms"]) - 1.0),
        })
        self.notes.append(f"merge accepted {counts['accepted']} of {counts['resolved']} resolved; "
                          f"{len(tracer.spans)} spans")
        self.notes.append(f"cli subset {manifest.name}, startup {startup:.3f} s, "
                          f"decode_seconds {decode_seconds:.3f} s, outside {outside:.3f} s")

    # ---------------------------------------------------------------- output

    def report(self) -> tuple[dict, bool]:
        units = LAYER_UNITS if self.args.trace else E2E_UNITS
        correct = (bool(self.checks) and all(self.checks.values()) and self.failed == 0
                   and set(self.metrics) == set(units))
        shape = " ".join(f"{k}={v}" for k, v in self.shape.items())
        print(f"workload {self.args.workload} seed {self.args.seed} trace {self.args.trace}")
        print(f"shape: {shape}")
        for note in self.notes:
            print(note)
        for name, ok in sorted(self.checks.items()):
            print(f"check {name}: {'ok' if ok else 'FAILED'}")
        for name, unit in units.items():
            if name in self.metrics:
                print(f"{name} = {self.metrics[name]:.6g} {unit}")
        print(f"failed_frac = {self.failed / max(self.attempted, 1):.6g} ratio "
              f"({self.failed} of {self.attempted} utterances failed)")
        metrics = {name: {"value": self.metrics[name], "unit": units[name]}
                   for name in units if name in self.metrics} if correct else {}
        return ({"correct": correct, "attempted": max(self.attempted, 1),
                 "failed": self.failed, "metrics": metrics}, correct)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("long_bpe", "dense_char", "cli_corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs that only exercise every path (smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "ctcspot" / "__init__.py").is_file():
        print(f"bench: no ctcspot sources under {SRC}; run from a ctcspot checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        run = Run(args, run_dir)
        if args.trace:
            run.per_layer()
        else:
            run.end_to_end()
        result, correct = run.report()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
