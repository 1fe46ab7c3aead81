"""Record the sha256 of stdout for every command the cli workload can issue.

    python3 perfbench/record_golden.py

Run it from the root of a checkout at the commit whose output is the
reference; it rewrites perfbench/golden.json.  The CLI's stdout must stay
byte-identical, so a later commit is checked against these digests.
"""

from __future__ import annotations

import json
import subprocess
import sys

import gen
import oracles
from workloads import ROOT, cli_env, run_child


def main() -> int:
    env = cli_env()
    digests = {}
    for argv in gen.cli_domain():
        code, out, _, _ = run_child([sys.executable, "-m", "limitgap.cli", *argv], env)
        if code != 0:
            print(f"error: {oracles.argv_key(argv)!r} exited {code}", file=sys.stderr)
            return 1
        digests[oracles.argv_key(argv)] = oracles.digest(out)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    oracles.GOLDEN_PATH.write_text(json.dumps({"commit": commit, "digests": digests}, indent=1) + "\n")
    print(f"recorded {len(digests)} digests at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
