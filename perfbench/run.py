"""The invlat benchmark: end-to-end analysis time, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs run back to back by one single-threaded caller, a closed
loop, each pass in a fresh interpreter started by perfbench/worker.py):

  catalog            the 11 built-in entries through `invlat analyze NAME
                     --json`, plus a reducible group (exit 2) and a unipotent
                     infinite generator under --cap 50 (exit 3)
  reflection-ladder  Weyl B3 from its Cartan matrix and G(3,1,2), G(4,1,2),
                     G(6,1,2), G(3,1,3), written as group JSON files and run
                     through `invlat analyze FILE --json`
  kernels            seeded batches of CycNum add, mul and construction at
                     conductors 1..60, and rref/hnf at sizes 4, 8 and 12

The seed fixes the input order and the kernel operands; `analyze` itself
always runs at its default --seed 0, so every report can be checked against
the sha256 in perfbench/reference.json.

--trace 0 runs passes until the next one would end after S seconds (at least
two), and reports setup_s, wall_s, slowest_input_s and peak_rss_mib as
medians over passes.  Before the passes the sources are byte-compiled, so
that no pass pays for it.
An item is one input, or for kernels one batch; slowest_input_s is the
slowest item of a pass.  Failures (wrong exit code or report digest,
traceback, timeout, failed kernel check) are counted in "failed" against
"attempted" and listed in the record as fail_ratio with its base.
Times are in seconds at a reference CPU speed: each is scaled by a probe loop
that uses only the standard library and runs alongside it (speed.py), because
the shared machines drift in speed by up to 2x; raw seconds are in the record.
--trace 1 runs one plain pass and one traced pass and reports per-layer call
counts, self times, counts, per-input ratios, kernel rates and the tracing
overhead.  Outputs are checked in every pass; the last stdout line is the
JSON result, preceded by a run record (platform, per-input times, failures).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import kernels  # noqa: E402
import ladder  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("catalog", "reflection-ladder", "kernels")
RUN_DEADLINE_S = 170  # whole run, set-up and checks included
MIN_PASSES = 2  # per plain run, even when one pass takes more than half of S


class PassFailed(Exception):
    pass


def _child(workload, seed, out_dir, deadline, *flags):
    """Run one worker; returns (its JSON record, the monotonic spawn stamp)."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--out", out_dir, *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise PassFailed("worker killed at the run deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise PassFailed(f"worker exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned
    except (IndexError, json.JSONDecodeError):
        raise PassFailed("worker printed no result") from None


def _expected_checks(workload):
    if workload == "kernels":
        return (len(kernels.CONDUCTORS) * 3 * kernels.CYC_CALLS
                + len(kernels.MATRIX_SIZES) * 2 * kernels.MATRIX_CALLS)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return len(json.load(fh)[workload])


class Run:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.out_dir = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = self.failed = 0
        self.failures = []
        self.passes = []  # worker records of completed passes

    def record_failure(self, what, count=1):
        self.attempted += count
        self.failed += count
        self.failures.append(what)

    def run_pass(self, traced=False):
        flags = ("--trace",) if traced else ()
        try:
            rec, spawned = _child(self.workload, self.seed, self.out_dir, self.deadline, *flags)
        except PassFailed as exc:
            self.record_failure(f"pass: {exc}", _expected_checks(self.workload))
            return None
        rec["setup_s"] = (rec["ready"] - spawned) * rec["speed_factor"]
        rec["traced"] = traced
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.failures += [f"{r['name']}: {r['reason']}" for r in rec["items"] if not r["ok"]]
        self.passes.append(rec)
        return rec

    def check_ladder_orders(self):
        """Close every generated group before timing and compare its known order."""
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from invlat.errors import CapExceededError, InvalidInputError
        from invlat.groups import group_from_json

        for name, (group, order) in ladder.LADDER.items():
            self.attempted += 1
            try:
                got = group_from_json(group).order
            except (InvalidInputError, CapExceededError) as exc:
                got = f"error {exc}"
            if got != order:
                self.failed += 1
                self.failures.append(f"{name}: closure order {got}, expected {order}")


def _median(values):
    return statistics.median(values) if values else float("nan")


def plain_metrics(run, seconds):
    start = time.monotonic()
    while True:
        rec = run.run_pass()
        elapsed = time.monotonic() - start
        if rec is None or (len(run.passes) >= MIN_PASSES
                           and elapsed + elapsed / len(run.passes) > seconds):
            break
    passes = run.passes
    slowest = [max(r["seconds"] for r in p["items"]) for p in passes]
    return {
        "setup_s": (_median([p["setup_s"] for p in passes]), "s"),
        "wall_s": (_median([p["wall_s"] for p in passes]), "s"),
        "slowest_input_s": (_median(slowest), "s"),
        "peak_rss_mib": (_median([p["peak_rss_mib"] for p in passes]), "MiB"),
    }


def traced_metrics(run):
    plain = run.run_pass()
    traced = run.run_pass(traced=True)
    units = tracing.metric_units()
    units.update({name: name.rsplit(".", 1)[1] for name in kernels.rate_names()})
    units["trace.overhead_s"] = "s"
    values = dict.fromkeys(units, 0.0)
    if plain is None or traced is None:
        return {name: (float("nan"), unit) for name, unit in units.items()}
    values.update(traced["layers"])
    values.update(plain.get("rates", {}))
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {name: (values[name], unit) for name, unit in units.items()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_record(run, args, metrics):
    print(f"# invlat benchmark: workload {run.workload}, seed {run.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()}), "
          f"nproc {len(os.sched_getaffinity(0))}, cpu {_cpu_model()}")
    for k, p in enumerate(run.passes, 1):
        kind = "traced pass" if p["traced"] else "pass"
        print(f"# {kind} {k}: setup {p['setup_s']:.4f} s, wall {p['wall_s']:.4f} s "
              f"(raw {p['raw_wall_s']:.4f} s, speed factor {p['speed_factor']:.4f}), "
              f"peak rss {p['peak_rss_mib']:.1f} MiB")
        if p["traced"]:
            print(f"#   per-input ratios are over {p['layers']['report.analyze.calls']} "
                  "analyses (report.analyze calls)")
            if p["untraced"]:
                print(f"#   not in the package, reported as zero: {' '.join(p['untraced'])}")
        for r in p["items"]:
            print(f"#   {r['name']:28} {r['seconds']:10.4f} s  raw {r['raw_s']:10.4f} s  "
                  f"{'ok' if r['ok'] else 'FAIL'}")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"# fail_ratio {ratio:g} ({run.failed} failed of {run.attempted} attempted)")
    for failure in run.failures:
        print(f"# FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "invlat", "cli.py")):
        print(f"error: no invlat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.workload == "reflection-ladder":
        run.check_ladder_orders()
    for tree in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(tree, quiet=1)
    metrics = traced_metrics(run) if args.trace else plain_metrics(run, args.seconds)
    print_record(run, args, metrics)
    if any(value != value for value, _unit in metrics.values()):  # NaN: no pass finished
        print("error: no measurement completed", file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
