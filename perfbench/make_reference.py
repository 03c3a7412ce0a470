"""Rewrite reference.json: canonical report digests and exit codes for the default seed.

    python3 perfbench/make_reference.py

Run it only when the workload definitions in workloads.py change, on a commit
whose reports are known to be right; every reference-free invariant must hold
before anything is written.  A change to the program must leave these digests
unchanged.
"""

from __future__ import annotations

import json
import sys

from measure import REFERENCE_FILE, workloads


def main() -> int:
    import qusp.cli as cli

    seed = workloads.DEFAULT_SEED
    out: dict = {"seed": seed, "workloads": {}}
    for workload in workloads.WORKLOADS:
        refs = []
        for i, item in enumerate(workloads.build(workload, seed)):
            code, _text, report = cli.run_scenario(item["scenario"])
            canonical = cli.canonical_report_bytes(report)
            problem = workloads.check_output(item, code, report, canonical, None)
            if problem:
                print(f"{workload} scenario {i}: {problem}; nothing written", file=sys.stderr)
                return 1
            refs.append({"sha256": workloads.report_digest(canonical), "exit": code})
        out["workloads"][workload] = refs
        print(f"{workload}: {len(refs)} scenarios")
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
