"""Run one benchmark workload at one seed and print every metric.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat each metric by name and unit and list the output checks. The
exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark cannot run (no ``src/repro`` beside it, or a layer it
measures no longer exists). ``--trace 1`` reports the per-layer budget
instead and writes the spans and the self-time table to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop benchmark of the SoftBorg reproduction.")
    parser.add_argument("--workload", required=True,
                        choices=("fleet", "repair", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; fixes the episode count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer traced run")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SOURCE}; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]

    from repro import obs

    from perfbench.harness import run_benchmark
    from perfbench.layers import LayerMissing

    # Measure the program, not its metrology (as benchmarks/conftest.py).
    obs.disable()
    obs.reset()
    try:
        result, lines = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            ROOT / "perfbench" / "out")
    except LayerMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
