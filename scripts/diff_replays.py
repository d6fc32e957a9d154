"""Diff two ``repro trace-replay`` JSON summaries of the same trace.

    python scripts/diff_replays.py replay-scalar.json replay-batched.json

Prints the second summary, then exits nonzero, naming the keys that
differ, when the two summaries disagree in any key but the ones that
describe the host run (``SKIP``).  CI runs it on a scalar-oracle and a
batched replay of one trace, which must match.
"""

from __future__ import annotations

import json
import sys
from typing import List

#: Summary keys that name the engine or measure the host, not the run.
SKIP = frozenset({"engine", "wall_seconds", "peak_rss_mb"})


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    summaries = []
    for path in argv:
        with open(path) as fh:
            summaries.append(json.load(fh))
    a, b = summaries
    diff = sorted(k for k in set(a) | set(b)
                  if k not in SKIP and a.get(k) != b.get(k))
    print(json.dumps(b, indent=2))
    if diff:
        raise SystemExit(f"scalar and batched replays differ in {diff}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
