#!/usr/bin/env python3
"""Record exit code and stdout sha256 of every `cli` workload command.

    python3 perfbench/record_cli_golden.py

Writes perfbench/cli_golden.json.  Run it only on a commit whose CLI
output is known to be right: the `cli` workload fails any later commit
whose output differs from what this records.
"""

import json
import sys

from run import load_riderflow

load_riderflow()
import workloads  # noqa: E402  (needs riderflow on the path)

records = []
for argv, _ in workloads.cli_commands():
    code, sha = workloads.cli_digest(workloads.invoke(argv))
    records.append({"argv": argv, "exit": code, "sha256": sha})
workloads.CLI_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
print(f"recorded {len(records)} commands in {workloads.CLI_GOLDEN}", file=sys.stderr)
