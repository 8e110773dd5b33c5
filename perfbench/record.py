"""Regenerate `fingerprints.json`, the recorded outputs the benchmark checks.

Run from the repository root when a change to zfo is meant to change
its outputs:

    python3 perfbench/record.py

Every seed of the pool is run once per workload family (about five
minutes on a two-core Xeon, most of it `routing200-lossy`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (needs zfo on the path)


def main() -> int:
    families = {w.family: w for w in harness.WORKLOADS.values()}
    record = {family: harness.record_family(w) for family, w in sorted(families.items())}
    harness.RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
