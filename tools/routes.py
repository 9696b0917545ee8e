"""Route digests of the full bridge sweep.

    python tools/routes.py [J ...]        (default: 512)

For each J, runs triangle_routes and pow_routes on every ordered pair of
distinct members of standard_battery(J) (420 pairs at the default J) and
prints the sha256 of repr(verdict.to_dict()) of each route over all pairs,
one line per route, then one line over every route.  Two trees that print
the same lines decide every route of every pair alike, to the last bit of
each witness; tests/golden/bridges.txt pins only every 21st pair.  Standard
library only, besides growthcomp itself.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(J: int) -> tuple[int, dict[str, str]]:
    """(pairs, route name -> hex digest); the name "all" digests every route
    in sweep order."""
    from growthcomp import pow_routes, standard_battery, triangle_routes

    battery = standard_battery(J)
    hashes = {"all": hashlib.sha256()}
    pairs = 0
    for M in battery:
        for N in battery:
            if M is N:
                continue
            pairs += 1
            routes = {**triangle_routes(M, N), **pow_routes(M, N)}
            for name, verdict in routes.items():
                text = repr(verdict.to_dict()).encode()
                hashes.setdefault(name, hashlib.sha256()).update(text)
                hashes["all"].update(text)
    return pairs, {name: h.hexdigest() for name, h in hashes.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Digest every bridge route of the battery sweep.")
    parser.add_argument("J", type=int, nargs="*", default=[512],
                        help="battery sizes (default 512)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for J in args.J:
        pairs, found = digests(J)
        for name, digest in found.items():
            print(f"J={J} pairs={pairs} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
