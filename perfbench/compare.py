"""Layer-by-layer before/after comparison of two traced benchmark runs.

Save the output of a traced run on each commit, then compare::

    python3 perfbench/run.py --workload http-steady --seed 1 --trace 1 > before.txt
    python3 perfbench/run.py --workload http-steady --seed 1 --trace 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Only the last line of each file (the result object) is read.  Every
ratio is printed next to its base value.  A layer's share is its self
time over the traced host time (``host.traced_s``) of the same run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List


def load_metrics(path: Path) -> Dict[str, dict]:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty")
    return json.loads(lines[-1])["metrics"]


def _share(metrics: Dict[str, dict], name: str) -> str:
    prefix = name.rsplit("/", 1)[0] + "/" if "/" in name else ""
    total = metrics.get(prefix + "host.traced_s", {}).get("value")
    if not name.endswith(".self_s") or not total:
        return ""
    return f"{100.0 * metrics[name]['value'] / total:5.1f}%"


def compare(base: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    rows = [
        f"{'metric':38s} {'unit':6s} {'base':>12s} {'new':>12s} "
        f"{'delta':>12s}  {'ratio (new/base)':24s} share base -> new"
    ]
    for name in list(base) + [n for n in new if n not in base]:
        if name not in base or name not in new:
            side = "base" if name in base else "new"
            rows.append(f"{name:38s} only in {side}")
            continue
        b = base[name]["value"]
        n = new[name]["value"]
        unit = base[name]["unit"]
        ratio = f"{n / b:.3f}x of {b:.4g}" if b else "n/a (base 0)"
        share_b, share_n = _share(base, name), _share(new, name)
        shares = f"{share_b} -> {share_n}" if share_b else ""
        rows.append(
            f"{name:38s} {unit:6s} {b:12.5g} {n:12.5g} {n - b:+12.4g}  "
            f"{ratio:24s} {shares}"
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="output of the base run")
    parser.add_argument("new", type=Path, help="output of the new run")
    args = parser.parse_args(argv)
    for row in compare(load_metrics(args.base), load_metrics(args.new)):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
