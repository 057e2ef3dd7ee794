"""Record the reference outputs the analysis workloads are checked against.

    python3 perfbench/record_reference.py

For every input of the catalog and reflection-ladder workloads it runs
`invlat analyze ... --json` once and writes perfbench/reference.json with the
exit code and the sha256 of stdout.  Run it only at a commit whose reports are
known good: a change that is meant to keep reports byte-identical must pass
against the reference recorded before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import worker


def main():
    from invlat import cli

    out_dir = os.path.join(worker.ROOT, ".bench_out", "reference")
    os.makedirs(out_dir, exist_ok=True)
    reference = {}
    for workload in ("catalog", "reflection-ladder"):
        entries = {}
        for name, argv in sorted(worker.analysis_inputs(workload, 0, out_dir)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            expected = worker.MALFORMED[name[len("malformed-"):]][2] \
                if name.startswith("malformed-") else 0
            if code != expected:
                sys.exit(f"{name}: exit code {code}, expected {expected}; nothing written")
            entries[name] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            }
            print(f"{workload:18} {name:22} exit {code}", file=sys.stderr)
        reference[workload] = entries
    path = os.path.join(worker.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
