#!/usr/bin/env python3
"""Write pins.json: every workload's checked output digest for seeds 0..N-1.

    python3 perfbench/pin.py 64

``run.py`` fails a pass whose digest differs from the pin for its seed. The
pins record what the program computes now, so regenerate them only in a
change that means to alter those outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    count = int(sys.argv[1])
    run.load_package()
    run.WORK.mkdir(exist_ok=True)
    pins: dict = {}
    for name, workload in run.WORKLOADS.items():
        for seed in range(count):
            work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
            try:
                workload.prepare(seed, work)
                result = workload.run(workload.setup())
            finally:
                shutil.rmtree(work)
            if result.failures:
                print(f"{name} seed {seed}: {result.failures}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = result.digest
        print(f"{name}: pinned seeds 0-{count - 1}")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
