"""biskit benchmark: analyze and verify verdicts on I4 and the corpus.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze-i4 --seed 1 --seconds 10 --trace 0

Stdlib only, one process, no threads.  Each workload is a closed loop with
one caller: the next verdict starts when the previous one has ended, until
--seconds have passed (at least one verdict).  A verdict is one in-process
`biskit.cli.main([...])` call with stdout captured, or one `verify` pass over
every corpus file, and its output is checked against known answers.

Inputs are generated from --seed by inputs.py and written under bench/out/;
biskit reads only those files.  Workloads (see BENCHMARK.json for why):

    analyze-i4     analyze --format json on I4 (209 elements)
    verify-i4      verify on I4: the law suite on one large structure
    verify-corpus  verify on each of the 18 corpus tables

--trace 0 prints the end-to-end metrics:

    verdict_norm   median of (verdict seconds / mean calibration probe
                   seconds); a probe is a fixed piece of pure-Python table
                   indexing, run just before, during (on a timer signal) and
                   just after each verdict, so the ratio cancels most of the
                   speed drift of a shared machine
    setup_s        median of 2 * SETUP_REPS set-ups, half before the verdicts
                   and half after them: import biskit afresh, generate the
                   seeded inputs, write them to disk.  One set-up is short
                   and the machine's speed swings within a second, so two
                   windows far apart give a steadier median than one
    peak_rss_mib   ru_maxrss of the process when the last verdict has ended

--trace 1 alternates untraced and traced verdicts (tracing.py) and prints the
per-layer metrics, per traced verdict.  The spans go to bench/out/.  The last
line of stdout is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src", "biskit")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5  # set-ups timed before the verdicts, and again after them
PROBE_ROWS = 3  # rows of the calibration table one probe scans: about 0.25 ms
PROBE_INTERVAL = 0.02  # seconds between probes during a verdict
PROBES_AROUND = 5  # probes just before, and again just after, each verdict
CALIB_TABLE = inputs.calibration_table()

LAW_LINE = re.compile(r"^  (\S+): (pass|skip \((.*)\))$", re.M)


def probe_seconds(table):
    """Seconds for one fixed piece of table indexing: an associativity scan
    of the first PROBE_ROWS rows of the calibration table."""
    k = len(table)
    start = perf_counter()
    for a in range(PROBE_ROWS):
        ra = table[a]
        for b in range(k):
            rab, rb = table[ra[b]], table[b]
            for c in range(k):
                if rab[c] != ra[rb[c]]:
                    raise AssertionError("calibration table is not associative")
    return perf_counter() - start


class Calibration:
    """Probes the machine's speed just before, during and just after a verdict.

    While open, a SIGALRM timer runs one probe every PROBE_INTERVAL seconds,
    so the samples cover the whole verdict however long it is; speed on a
    shared machine drifts within seconds, and a few probes at each end miss
    that.  `probe_s` is the mean probe time and `during_s` the probe time
    that fell inside the verdict, which its wall time includes.
    """

    def __init__(self, tracer=None):
        self.samples = []
        self.during_s = 0.0
        self.tracer = tracer  # told of each probe, to keep it out of self times
        self._busy = False

    def _probe(self, _signum, _frame):
        if not self._busy:  # a late signal must not nest a probe in a probe
            self._busy = True
            seconds = probe_seconds(CALIB_TABLE)
            self.samples.append(seconds)
            self.during_s += seconds
            if self.tracer:
                self.tracer.exclude(seconds)
            self._busy = False

    def around(self):
        self.samples += [probe_seconds(CALIB_TABLE) for _ in range(PROBES_AROUND)]

    @contextlib.contextmanager
    def during(self):
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    @property
    def probe_s(self):
        return statistics.mean(self.samples)


class Workload:
    """One workload: its inputs, its CLI calls, and its known answers."""

    def __init__(self, name, make_inputs, command):
        self.name = name
        self.make_inputs = make_inputs
        self.command = command  # argv before the input path

    def setup(self, seed, workdir):
        """Import biskit afresh, generate the inputs and write them.

        Returns (seconds, biskit.cli, {file name: text}, expected report).
        """
        for mod in [m for m in sys.modules if m == "biskit" or m.startswith("biskit.")]:
            del sys.modules[mod]
        start = perf_counter()
        cli = importlib.import_module("biskit.cli")
        if os.path.dirname(os.path.abspath(cli.__file__)) != SRC:
            raise ImportError(f"biskit must come from {SRC}, not {cli.__file__}")
        files, expected = self.make_inputs(seed)
        os.makedirs(workdir, exist_ok=True)
        for fname, text in files.items():
            with open(os.path.join(workdir, fname), "w") as fh:
                fh.write(text)
        return perf_counter() - start, cli, files, expected

    def verdict(self, cli, paths, expected, calib=None):
        """Run one verdict; returns (seconds, correct, output, law results).

        With a Calibration, probes run during each call and their time is
        taken out of the seconds returned.
        """
        seconds, correct, outputs = 0.0, True, []
        for path in paths:
            buf = io.StringIO()
            start = perf_counter()
            try:
                with calib.during() if calib else contextlib.nullcontext():
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main([*self.command, path])
            except SystemExit as e:
                rc = e.code
            except Exception:  # a verdict that raises counts as failed
                traceback.print_exc()
                rc = "raised"
            seconds += perf_counter() - start
            text = buf.getvalue()
            correct = correct and self.check(rc, text, path, expected)
            outputs.append(f"rc={rc}\n{text}")
        output = "".join(outputs)
        if calib:
            seconds -= calib.during_s
        return seconds, correct, output, LAW_LINE.findall(output)

    def check(self, rc, text, path, expected):
        if rc != 0:
            return False
        if self.command[0] == "analyze":
            try:
                report = json.loads(text)
            except ValueError:
                return False
            return all(report.get(key) == value for key, value in expected.items())
        lines = text.splitlines()
        return (
            "FAIL" not in text
            and lines[:1] == [path]
            and len(LAW_LINE.findall(text)) == len(lines) - 1 > 0
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-i4", inputs.i4_inputs, ["analyze", "--format", "json"]),
        Workload("verify-i4", inputs.i4_inputs, ["verify"]),
        Workload("verify-corpus", inputs.corpus_inputs, ["verify"]),
    )
}


def src_lines():
    """Lines per biskit source file; 0 for a module that no longer exists."""
    out = {}
    for m in ("init", *tracing.MODULES, "corpus", "errors"):
        path = os.path.join(SRC, "__init__.py" if m == "init" else f"{m}.py")
        try:
            with open(path) as fh:
                out[f"{m}.src_lines"] = sum(1 for _ in fh)
        except FileNotFoundError:
            out[f"{m}.src_lines"] = 0
    return out


def run(args):
    work = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "inputs", work.name)
    setups, texts = [], set()

    def set_up():
        for _ in range(SETUP_REPS):
            seconds, cli, files, expected = work.setup(args.seed, workdir)
            setups.append(seconds)
            texts.add(json.dumps(files, sort_keys=True))
        return cli, files, expected

    cli, files, expected = set_up()
    paths = [os.path.join(workdir, fname) for fname in files]

    main_s, norms, calibs, failed = [], [], [], 0
    traced_norms, tracers = [], []
    start = perf_counter()
    while True:
        gc.collect()
        calib = Calibration()
        calib.around()
        seconds, ok, output, laws = work.verdict(cli, paths, expected, calib)
        calib.around()
        main_s.append(seconds)
        calibs.append(calib.probe_s)
        norms.append(seconds / calib.probe_s)
        failed += not ok
        if args.trace:
            gc.collect()
            with tracing.Tracer() as tr:
                t_calib = Calibration(tr)
                t_calib.around()
                t_seconds, t_ok, t_output, _ = work.verdict(cli, paths, expected, t_calib)
                t_calib.around()
            tracers.append(tr)
            traced_norms.append(t_seconds / t_calib.probe_s)
            failed += not (t_ok and t_output == output)
        if perf_counter() - start >= args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        set_up()

    attempted = len(main_s) + len(tracers)
    decided = sum(status == "pass" for _key, status, _note in laws)
    skips = [(key, note) for key, status, note in laws if status != "pass"]
    print(
        f"{work.name} seed {args.seed}: {len(main_s)} verdicts, cli.main.s median "
        f"{statistics.median(main_s):.3f} (min {min(main_s):.3f}, max {max(main_s):.3f}), "
        f"probe {statistics.median(calibs) * 1e3:.3f} ms, "
        f"laws decided {decided} skipped {len(skips)}"
    )
    by_note = defaultdict(Counter)
    for key, note in skips:
        by_note[note][key] += 1
    for note, keys in sorted(by_note.items()):
        print(f"  skip ({note}): " + ", ".join(f"{k} x{n}" for k, n in sorted(keys.items())))

    if args.trace:
        metrics = tracing.per_layer_metrics(tracers, {
            "laws.decided": decided,
            "laws.skipped": len(skips),
            "cli.main.s": statistics.median(main_s),
            "bench.calib_s": statistics.median(calibs),
            "bench.trace_overhead_frac": statistics.median(traced_norms) / statistics.median(norms) - 1,
            "bench.error_frac": failed / attempted,
            **src_lines(),
        })
        spans_path = os.path.join(OUT, f"spans-{work.name}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"workload": work.name, "seed": args.seed, "skips": skips,
                       "verdicts": [tr.spans for tr in tracers]}, fh)
        print(f"spans written to {os.path.relpath(spans_path)}")
    else:
        metrics = {
            "verdict_norm": {"value": statistics.median(norms), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": failed == 0 and len(texts) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(p.parse_args(argv))


if __name__ == "__main__":
    main()
