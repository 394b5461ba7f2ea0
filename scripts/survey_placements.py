#!/usr/bin/env python3
"""Survey tight placements of the ten-curve configuration.

Enumerates every ribbon structure of the ten-curve pattern whose
neighborhood is a connected genus-5 surface, then tests which of them block
the two obstructing curves within genus budget 5.  The first blocking
placement (in canonical enumeration order) is the one bundled with the
package.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twistlat.builtin import load_pattern  # noqa: E402
from twistlat.patterns import subpattern  # noqa: E402
from twistlat.ribbon import (  # noqa: E402
    enumerate_structures,
    structure_to_json_dict,
    surface_of,
)
from twistlat.search import min_genus  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=5)
    ap.add_argument("--genus", type=int, default=5, help="placement genus to survey")
    ap.add_argument("--limit", type=int, default=10, help="stop after this many blockers")
    ap.add_argument("--out", help="write the first blocking placement here")
    args = ap.parse_args()

    p10 = load_pattern("curves10")
    p11 = load_pattern("curves11")
    p12 = load_pattern("curves12")
    p11m = subpattern(p12, [l for l in p12.curves if l != "w+"])

    t0 = time.perf_counter()
    candidates = []
    for r in enumerate_structures(p10):
        s = surface_of(p10, r)
        if s.total_genus == args.genus and len(s.components) == 1:
            candidates.append((s.boundary_count, r))
    candidates.sort(key=lambda t: t[0])
    print(
        f"connected genus-{args.genus} placements: {len(candidates)} "
        f"({time.perf_counter() - t0:.1f}s)"
    )

    blockers = 0
    for i, (b, r) in enumerate(candidates):
        plus = min_genus(p11, args.budget, r)
        minus = min_genus(p11m, args.budget, r)
        tag = f"[{i}] boundary {b}: w+ {plus.kind}, w- {minus.kind}"
        if plus.kind == "exceeds" or minus.kind == "exceeds":
            blockers += 1
            print(tag + "  <-- blocking")
            if args.out and blockers == 1:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(structure_to_json_dict(r), fh, sort_keys=True, indent=1)
                print(f"  wrote {args.out}")
            if blockers >= args.limit:
                break
        else:
            print(tag)
    print(f"done in {time.perf_counter() - t0:.1f}s; blockers found: {blockers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
