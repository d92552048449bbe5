"""Benchmark of the aflbench simulator, run from the root of a checkout:

    python3 perfbench/run.py --workload reg_clean --seed 1 --seconds 20 --trace 0

It times ``aflbench run`` (``cli.run_command``) over the workload's cells,
checks every output it writes, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics. The line before it holds the full record
(environment, quartiles, failures), which is also written to
``.benchout/<workload>-seed<seed>-trace<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aflbench" / "__init__.py").is_file():
        print(f"perfbench: no aflbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process, no BLAS threads: set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    out = ROOT / ".benchout" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
