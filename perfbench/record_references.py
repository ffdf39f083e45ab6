"""Rewrite perfbench/references.json from the current program.

    python3 perfbench/record_references.py [--seeds 0-31] [--held-out 1009]

Run it only on a tree whose outputs are known good: every later run checks
its outputs against these digests. The held-out seed is recorded apart so a
claim can be rechecked on a seed nobody tuned against.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def digests_for(seed: int, out: Path) -> dict[str, str]:
    checker = workloads.Checker(seed, None)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=out, prefix=f"ref-{name}-") as tmp:
            workloads.make(name, seed, Path(tmp), checker, small=False).warmup(inprocess=False)
    if checker.failed:
        raise RuntimeError(f"seed {seed}: an operation failed while recording")
    return dict(checker.first)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range LO-HI")
    parser.add_argument("--held-out", type=int, default=1009)
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1)) + [args.held_out]
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    for seed in seeds:
        for op, digest in digests_for(seed, out).items():
            digests.setdefault(op, {})[str(seed)] = digest
        print(f"seed {seed} recorded", file=sys.stderr)
    payload = {"held_out_seed": args.held_out, "digests": digests}
    workloads.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
