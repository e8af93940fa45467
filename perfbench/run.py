"""Benchmark for hkcurves: seeded workloads of `hk` commands, run in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-prime --seed 1 --seconds 40 --trace 0

Each workload (see workloads.py) is a list of `hk` argv lists made from the
seed.  They go through the public `hkcurves.cli.main(argv)` in this one
process, with `--threads 1 --no-timestamp`.  A pass runs every command of
the workload once; another pass starts only while it is expected to end
within `--seconds`, so a run holds at least one pass.  Outputs are checked
after the passes, outside the timed region.

`--trace 0` prints the end-to-end metrics:

* setup_s: median over 10 fresh interpreters, half started before the
  passes and half after them, of the time from process start until
  `hkcurves.cli` is imported and its parser built;
* wall_s: median time of one pass (every command of the workload);
* command_s.p50, command_s.p90: median and 90th percentile (inclusive
  method) of the latency of one `hk` command over all passes of the run;
  `shallow-corpus` has 107 commands a pass, deep-prime 3 and deep-ext 2;
* peak_rss_mb: this process's own `ru_maxrss`; no machine-wide memory
  measurement is taken.

The error rate is `failed / attempted` of the result line.  A command fails
on an exception, a nonzero exit code, a colength or verdict other than the
pinned or oracle value, or a report or CSV whose digest differs from the
pinned one, from another pass of the run, or from an earlier run with the
same seed in the same checkout.

`--trace 1` runs one untraced pass and then one traced pass (tracer.py),
ignoring `--seconds`, and prints the per-layer metrics of the traced pass
with the tracing overhead (traced minus untraced wall time).  Spans and
counts are written to `.bench_out/trace-<workload>-<seed>.json`.

Seed 1 is the development seed.  Seed 1001 is held out: do not tune against
it; use it to confirm a claimed gain.  `--list` prints the commands of a
workload and seed as JSON instead of running them.

pins.json holds the seed commit's outputs for the deep workloads: the
sample sequences (their deepest values are 50176, 20412 and 36415), the
verdicts 49/16, 28/9 and 7/3, and the SHA-256 of every report and CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 5  # interpreters started before the passes, and again after
DOCUMENTED_EXITS = (0, 2, 3, 4)

# family sweep -> (row param of the base-field member, the deep-prime curve it
# equals by base-change invariance): alpha = 1 in GF(4), lambda = 2 in GF(9)
BASE_CHANGE = {
    "monsky2": ("0,1", workloads.DEEP_PRIME[0]),
    "monsky3": ("0,2", workloads.DEEP_PRIME[1]),
}

READY = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hkcurves.cli as cli; "
    "cli.build_parser(); print('ready', flush=True)"
)


@dataclass
class Outcome:
    cmd: workloads.Command
    code: int | None
    out: str
    err: str
    seconds: float
    error: str = ""  # exception raised by cli.main
    sweeps: list = field(default_factory=list)  # (family, rows) returned inside the command


def measure_setup(src: str) -> list[float]:
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY, src],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return times


def run_pass(cli, cmds, cache: str, sweeps: list, tracer=None) -> tuple[float, list[Outcome]]:
    """Run every command once; returns (wall seconds, outcomes)."""
    if os.path.exists(cache):
        os.remove(cache)
    outcomes = []
    start_pass = perf_counter()
    for i, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        error = ""
        sweeps.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.run_id, tracer.recording = i, True
            start = perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except Exception as exc:
                code, error = None, repr(exc)
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.recording = False
        outcomes.append(Outcome(cmd, code, out.getvalue(), err.getvalue(), seconds, error, list(sweeps)))
    return perf_counter() - start_pass, outcomes


class Checker:
    """Verifies outcomes after the timed passes; collects failure reasons."""

    def __init__(self, workload: str, digest_file: Path):
        self.workload = workload
        self.pins = json.loads((HERE / "pins.json").read_text())
        self.digest_file = digest_file
        self.earlier = json.loads(digest_file.read_text()) if digest_file.exists() else {}
        self.digests: dict[str, str] = {}
        self._naive: dict[tuple, int] = {}

    def naive(self, field_text: str, poly: str, q: int) -> int:
        from hkcurves.engine import colength_naive
        from hkcurves.gf import parse_field
        from hkcurves.poly import parse_poly

        key = (field_text, poly, q)
        if key not in self._naive:
            self._naive[key] = colength_naive(parse_poly(poly, parse_field(field_text)), q).colength
        return self._naive[key]

    def check_pass(self, outcomes: list[Outcome]) -> list[list[str]]:
        first_samples: dict[tuple, list[int]] = {}
        return [self.check(o, first_samples) for o in outcomes]

    def check(self, o: Outcome, first_samples: dict) -> list[str]:
        if o.error:
            return [f"exception: {o.error}"]
        if o.code != 0:
            kind = "documented" if o.code in DOCUMENTED_EXITS else "undocumented"
            last = o.err.strip().splitlines()[-1:] or [""]
            return [f"{kind} exit code {o.code}: {last[0]}"]
        key = " ".join(o.cmd.argv)
        digest = hashlib.sha256(o.out.encode()).hexdigest()
        reasons = []
        for source, seen in (("another pass", self.digests), ("an earlier run", self.earlier)):
            if seen.get(key, digest) != digest:
                reasons.append(f"output digest differs from {source} of this seed")
        self.digests[key] = digest
        try:
            if o.cmd.kind == "family":
                reasons += self.check_family(o, key, digest)
            elif self.workload == "deep-prime":
                reasons += self.check_pinned_report(json.loads(o.out), key, digest)
            else:
                reasons += self.check_corpus_report(o.cmd, json.loads(o.out), first_samples)
        except (ValueError, KeyError, TypeError) as exc:
            reasons.append(f"unreadable output: {exc!r}")
        return reasons

    def check_pinned_report(self, report: dict, key: str, digest: str) -> list[str]:
        pin = self.pins["deep-prime"][key]
        chosen = report["chosen"] or {}
        got = {
            "colengths": [s["colength"] for s in report["samples"]],
            "hkm": _frac(report["hkm"]),
            "case": chosen.get("case"),
            "s": chosen.get("s"),
            "l": chosen.get("l"),
            "sha256": digest,
        }
        return [f"{k} = {got[k]!r}, pinned {pin[k]!r}" for k in got if got[k] != pin[k]]

    def check_family(self, o: Outcome, key: str, digest: str) -> list[str]:
        reasons = []
        rows = list(csv.DictReader(io.StringIO(o.out)))
        bad = [r["param"] for r in rows if r["agree"] == "false"]
        if bad:
            reasons.append(f"agree=false for params {bad}")
        if digest != self.pins["deep-ext"][key]:
            reasons.append("CSV digest differs from the pinned one")
        family = o.cmd.argv[1]
        param, (field_text, poly, nmax) = BASE_CHANGE[family]
        members = [r for name, swept in o.sweeps if name == family for r in swept if r.param == param]
        if len(members) != 1:
            return reasons + [f"no single swept member with param {param}"]
        got = [s.colength for s in members[0].report.samples]
        pin_cmd = workloads.classify_cmd(field_text, poly, nmax)
        want = self.pins["deep-prime"][" ".join(pin_cmd.argv)]["colengths"][: len(got)]
        if got != want:
            reasons.append(f"{family} param {param}: {got} differs from the {field_text} pin {want}")
        return reasons

    def check_corpus_report(self, cmd: workloads.Command, report: dict, first_samples: dict) -> list[str]:
        from hkcurves.engine import oracle_cutoff

        reasons = []
        colengths = [s["colength"] for s in report["samples"]]
        cutoff = oracle_cutoff(report["p"])
        for s in report["samples"]:
            if s["q"] <= cutoff and s["colength"] != self.naive(cmd.field, cmd.poly, s["q"]):
                reasons.append(f"colength at q={s['q']} differs from colength_naive")
        earlier = first_samples.setdefault((cmd.field, cmd.poly), colengths)
        n = min(len(earlier), len(colengths))
        if earlier[:n] != colengths[:n]:
            reasons.append("samples differ from the earlier run of this curve")
        if report["status"] == "classified":
            hkm = _frac(report["hkm"])
            if Fraction(hkm) < Fraction(3 * report["d"], 4):
                reasons.append(f"accepted HKM {hkm} is below 3d/4")
            if cmd.predicted and hkm != cmd.predicted:
                reasons.append(f"accepted HKM {hkm}, family predicts {cmd.predicted}")
        return reasons

    def save(self) -> None:
        self.digest_file.write_text(json.dumps({**self.earlier, **self.digests}, indent=1))


def _frac(value: dict | None) -> str | None:
    return None if value is None else str(Fraction(value["num"], value["den"]))


def _capture_sweeps(sweeps: list) -> list:
    """Record the rows every family sweep returns, for the base-change check."""
    undo = []
    for family in BASE_CHANGE:
        def make(fn, family=family):
            def capture(*args, **kwargs):
                rows = fn(*args, **kwargs)
                sweeps.append((family, rows))
                return rows
            return capture
        undo += tracing.patch_everywhere("hkcurves.families", f"sweep_{family}", make) or []
    return undo


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the generated commands and exit")
    args = parser.parse_args(argv)

    cache = f"{OUT_DIR}/cache-{args.workload}.jsonl"
    cmds = workloads.generate(args.workload, args.seed, cache)
    if args.list:
        print("[\n" + ",\n".join(json.dumps(c.record()) for c in cmds) + "\n]")
        return 0

    root = Path.cwd()
    src = root / "src"
    if not (src / "hkcurves" / "cli.py").is_file():
        sys.stderr.write(f"no hkcurves sources under {src}; run from the root of a checkout\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import hkcurves.cli as cli

    (root / OUT_DIR).mkdir(exist_ok=True)
    checker = Checker(args.workload, root / OUT_DIR / f"digests-{args.workload}-{args.seed}.json")
    sweeps: list = []
    undo = _capture_sweeps(sweeps)
    walls, outcomes = [], []
    try:
        if args.trace:
            wall, first = run_pass(cli, cmds, cache, sweeps)
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_wall, traced = run_pass(cli, cmds, cache, sweeps, tr)
            finally:
                tr.uninstall()
            walls, outcomes = [wall, traced_wall], first + traced
        else:
            # a shared host's speed drifts over tens of seconds, so set-up
            # is sampled on both sides of the passes
            setup = measure_setup(str(src))
            start = perf_counter()
            while True:
                wall, out = run_pass(cli, cmds, cache, sweeps)
                walls.append(wall)
                outcomes += out
                if perf_counter() - start + wall > args.seconds:
                    break
            setup += measure_setup(str(src))
    finally:
        tracing.unpatch(undo)

    reasons = []
    for i in range(0, len(outcomes), len(cmds)):
        reasons += checker.check_pass(outcomes[i:i + len(cmds)])
    checker.save()
    failed = 0
    for o, why in zip(outcomes, reasons):
        if why:
            failed += 1
            sys.stderr.write(f"FAIL hk {' '.join(o.cmd.argv)}: {'; '.join(why)}\n")

    times = [o.seconds for o in outcomes]
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} pass(es) of "
          f"{len(cmds)} commands; {len(outcomes)} attempted, {failed} failed, "
          f"error_rate {failed / len(outcomes):.4g}")
    if args.trace:
        metrics, absent = tr.layer_metrics()
        own = tr.self_times()
        metrics.update({
            "trace.wall_s": walls[1],
            "trace.untraced_wall_s": walls[0],
            "trace.overhead_s": walls[1] - walls[0],
            "trace.self_sum_s": sum(own),
            "trace.spans": len(tr.spans),
        })
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        for name, reason in absent.items():
            print(f"absent {name}: {reason}")
        print(f"self times sum to {sum(own):.4f} s of the traced wall {walls[1]:.4f} s; "
              f"tracing overhead {walls[1] - walls[0]:+.4f} s")
        tr.dump(str(root / OUT_DIR / f"trace-{args.workload}-{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "metrics": metrics, "absent": absent})
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "command_s.p50": statistics.median(times),
            "command_s.p90": _p90(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        print(f"command latencies: {len(times)} samples")
    result = {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()}
    for name, m in result.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": result}))
    return 0


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
