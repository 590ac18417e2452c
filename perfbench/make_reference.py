"""Record the reference digests that benchmark runs verify outputs against.

    python3 perfbench/make_reference.py --size full --seeds 64
    python3 perfbench/make_reference.py --size tiny --seeds 4

Runs ``cold_figures`` once and ``population_sweep`` once per seed in
``0 .. seeds-1`` without a reference, and merges the digests the passes
record (report sections per scale, population-report JSON per population
tag) into ``perfbench/reference.json``.  Record them on a commit whose
outputs are known good: every later run is checked against them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_pass  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)

    reference = json.loads(args.out.read_text()) if args.out.is_file() else {}
    jobs = [("cold_figures", 0)] + [("population_sweep", s) for s in range(args.seeds)]
    for workload, seed in jobs:
        run_args = argparse.Namespace(workload=workload, seed=seed, size=args.size,
                                      reference=None)
        result = run_pass(run_args, time.monotonic() + 600)
        for key, digest in result["digests"].items():
            if reference.get(key, digest) != digest:
                print(f"warning: digest of {key} changed", file=sys.stderr)
            reference[key] = digest
        print(f"{workload} seed {seed}: {sorted(result['digests'])}", file=sys.stderr)
        args.out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
