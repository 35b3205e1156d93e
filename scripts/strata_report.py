#!/usr/bin/env python3
"""Enumerate the self-dual stratification posets for a range of g.

Prints one row per g: node count, covering-edge count, whether the poset is a
chain, and the basic/ordinary extremes.  Optionally writes DOT files per g.

Usage:
    python scripts/strata_report.py --max-g 6 [--dot-dir out/]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from newton_strata import build_poset, enumerate_siegel, to_dot


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g", type=int, default=6)
    parser.add_argument("--dot-dir", type=Path, default=None)
    args = parser.parse_args()

    print(f"{'g':>3} {'nodes':>6} {'covers':>7} {'chain':>6}  basic / ordinary")
    for g in range(args.max_g + 1):
        poset = build_poset(enumerate_siegel(g, max_g=args.max_g))
        n = len(poset.nodes)
        is_chain = sum(mask.bit_count() for mask in poset.up) == n * (n + 1) // 2
        basic = poset.nodes[poset.basic_index].exponent_str()
        ordinary = poset.nodes[poset.ordinary_index].exponent_str()
        print(
            f"{g:>3} {n:>6} {len(poset.cover_edges):>7} "
            f"{'yes' if is_chain else 'no':>6}  {basic} / {ordinary}"
        )
        if args.dot_dir is not None:
            args.dot_dir.mkdir(parents=True, exist_ok=True)
            (args.dot_dir / f"poset-g{g}.dot").write_text(to_dot(poset))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
