"""One pass of a workload in a fresh interpreter.

Started by run.py, once per pass, so that every pass pays the import and cold
cache cost a command-line user pays.  It sets up (import, catalog build, input
generation), stamps the moment of its first timed call, runs the workload's
items back to back, checks every output after timing, and prints one JSON
object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--trace]

Times are scaled to the reference CPU speed of speed.py by one factor per
pass, from the probes run during the pass; raw times are reported next to
them.  The set-up time is scaled by the same factor.  A traced pass runs the
same probe; its self times are scaled like the item times, after removing the
probe's share.  The spans it writes hold raw times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ladder  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

ITEM_TIMEOUT_S = 60  # per analysis input, and per kernel batch
MIN_PROBES = 5  # probes behind a pass's speed factor, topped up after a short pass

# Malformed groups for the CLI error path: stem -> (JSON, extra argv, exit code).
MALFORMED = {
    "reducible": (
        {"conductor": 1, "dimension": 2, "generators": [[["1", "0"], ["0", "-1"]]]},
        [],
        2,  # invalid input
    ),
    "unipotent": (
        {"conductor": 1, "dimension": 2, "generators": [[["1", "1"], ["0", "1"]]]},
        ["--cap", "50"],
        3,  # closure cap exceeded
    ),
}


class ItemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler swallows it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


@contextlib.contextmanager
def time_limit(seconds):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def analysis_inputs(workload, seed, out_dir):
    """(input name, argv for cli.main) in the seeded order."""
    inputs = []
    if workload == "catalog":
        from invlat.catalog import catalog_names

        inputs = [(name, ["analyze", name, "--json"]) for name in catalog_names()]
        for stem, (group, extra, _code) in MALFORMED.items():
            path = os.path.join(out_dir, f"malformed-{stem}.json")
            _write_json(path, group)
            inputs.append((f"malformed-{stem}", ["analyze", path, "--json", *extra]))
    else:
        for name, (group, _order) in ladder.LADDER.items():
            path = os.path.join(out_dir, ladder.file_name(name))
            _write_json(path, group)
            inputs.append((name, ["analyze", path, "--json"]))
    random.Random(seed).shuffle(inputs)
    return inputs


def _cli_call(argv):
    from invlat import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def measure(items, clock, probe):
    """Run (name, call) items back to back; time each and keep its value."""
    results = []
    for name, call in items:
        spent_before = probe.spent
        value, reason = None, None
        start = clock()
        try:
            with time_limit(ITEM_TIMEOUT_S):
                value = call()
        except ItemTimeout:
            reason = f"timeout after {ITEM_TIMEOUT_S} s"
        except Exception:  # a traceback is a failed item, recorded and reported
            reason = "traceback: " + traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        raw = clock() - start
        results.append({"name": name, "raw_s": raw, "work_s": raw - (probe.spent - spent_before),
                        "value": value, "reason": reason})
    return results


def apply_speed(results, probe):
    """Scale each item's work time to reference seconds; returns the pass factor."""
    while len(probe.samples) < MIN_PROBES:
        probe.samples.append(speed.probe_once())
    factor = speed.scale(probe.samples)
    for r in results:
        r["seconds"] = r["work_s"] * factor
    return factor


def check_analyses(results, reference):
    for r in results:
        if r["reason"] is None:
            code, stdout = r["value"]
            expected = reference[r["name"]]
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if code != expected["exit"]:
                r["reason"] = f"exit code {code}, expected {expected['exit']}"
            elif digest != expected["stdout_sha256"]:
                r["reason"] = f"stdout sha256 {digest[:12]} differs from the reference"
        r["ok"] = r["reason"] is None
    return len(results), sum(not r["ok"] for r in results)


def check_kernels(batches, results):
    """Check every kernel result; one check per call."""
    attempted = failed = 0
    for batch, r in zip(batches, results):
        attempted += len(batch.operands)
        if r["reason"] is None:
            failures = batch.failures()
            r["reason"] = failures[0] if failures else None
        else:
            failures = batch.operands
        failed += len(failures)
        r["ok"] = not failures
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "reflection-ladder", "kernels"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for generated inputs and spans")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    clock = time.monotonic  # system-wide, so the parent can compare stamps
    os.makedirs(args.out, exist_ok=True)

    import invlat.cli  # noqa: F401  (import and catalog build are set-up)

    if args.workload == "kernels":
        from invlat import linalg
        from invlat.cyclotomic import CycNum

        import kernels

        batches = kernels.make_batches(args.seed, CycNum, linalg)
        items = [(b.metric, b.run) for b in batches]
    else:
        items = [(name, _cli_call(argv))
                 for name, argv in analysis_inputs(args.workload, args.seed, args.out)]
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record = {"ready": clock()}

    probe = speed.Probe()
    probe.start()
    results = measure(items, clock, probe)
    probe.stop()
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factor = record["speed_factor"] = apply_speed(results, probe)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.out, "spans.tsv"))
        # probes ran inside spans in proportion to their CPU time: remove that share
        share = sum(r["work_s"] for r in results) / sum(r["raw_s"] for r in results)
        record["layers"] = {name: value * share * factor if name.endswith(".self_s") else value
                            for name, value in tracer.layer_metrics().items()}
        record["untraced"] = tracer.missing
    if args.workload == "kernels":
        attempted, failed = check_kernels(batches, results)
        record["rates"] = {b.metric: b.per_call(r["seconds"])
                           for b, r in zip(batches, results) if r["ok"]}
    else:
        attempted, failed = check_analyses(results, reference)
    for r in results:
        del r["value"]
    record.update(
        wall_s=sum(r["seconds"] for r in results),
        raw_wall_s=sum(r["work_s"] for r in results),
        items=results, attempted=attempted, failed=failed,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
