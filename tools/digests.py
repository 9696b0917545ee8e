"""Digests of every bridge route and of the moderate growth checks.

    python tools/digests.py                          (the pinned set)
    python tools/digests.py --routes 64 --mg 4096

For each J given to --routes (default 64 512 1024), runs triangle_routes and
pow_routes on every ordered pair of distinct members of standard_battery(J)
(420 pairs) and prints the sha256 of repr(verdict.to_dict()) of each route
over all pairs, one line per route, then one line over every route in sweep
order.  For each J given to --mg (default 64 512 1024 4096), prints the same
digest of check_mg and of check_mg_diag over every member of
standard_battery(J), and then, once, over a fixed set of twelve seeded random
walks (J = 512 to 4096, with and without drift).

Two trees that print the same lines decide every route of every pair and
both checks alike, to the last bit of each witness and note.  The default
set is tests/golden/digests.txt, which tests/test_golden.py compares in
process; tests/golden/bridges.txt holds the readable verdicts of every 21st
pair at J = 512.  Standard library and numpy only, besides growthcomp itself.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTE_J = (64, 512, 1024)
MG_J = (64, 512, 1024, 4096)
# (seed, J, step mean, step sd) of each walk
WALKS = tuple((seed, J, mean, sd)
              for seed, (mean, sd) in enumerate(((0.6, 1.5), (0.0, 2.0), (0.3, 0.01)))
              for J in (512, 1024, 2048, 4096))


def route_digests(J: int) -> tuple[int, dict[str, str]]:
    """(pairs, route name -> hex digest); the name "all" digests every route
    in sweep order."""
    import growthcomp

    battery = growthcomp.standard_battery(J)
    hashes = {"all": hashlib.sha256()}
    pairs = 0
    for M in battery:
        for N in battery:
            if M is N:
                continue
            pairs += 1
            routes = {**growthcomp.triangle_routes(M, N), **growthcomp.pow_routes(M, N)}
            for name, verdict in routes.items():
                text = repr(verdict.to_dict()).encode()
                hashes.setdefault(name, hashlib.sha256()).update(text)
                hashes["all"].update(text)
    return pairs, {name: h.hexdigest() for name, h in hashes.items()}


def mg_digests(sequences) -> dict[str, str]:
    """check name -> hex digest of its verdicts over the sequences, in order."""
    import growthcomp

    hashes = {}
    for M in sequences:
        for name, check in (("check_mg", growthcomp.check_mg),
                            ("check_mg_diag", growthcomp.check_mg_diag)):
            text = repr(check(M).to_dict()).encode()
            hashes.setdefault(name, hashlib.sha256()).update(text)
    return {name: h.hexdigest() for name, h in hashes.items()}


def walks():
    """The seeded walks of WALKS, as weight sequences."""
    import numpy as np

    from growthcomp import WeightSequence

    for seed, J, mean, sd in WALKS:
        steps = np.random.default_rng(seed).normal(mean, sd, J)
        yield WeightSequence(np.concatenate(([0.0], np.cumsum(steps))), label=f"walk{seed}-{J}")


def lines(route_js=ROUTE_J, mg_js=MG_J):
    """The printed lines, one at a time."""
    from growthcomp import standard_battery

    for J in route_js:
        pairs, found = route_digests(J)
        for name, digest in found.items():
            yield f"J={J} pairs={pairs} {name} {digest}"
    for J in mg_js:
        battery = standard_battery(J)
        for name, digest in mg_digests(battery).items():
            yield f"J={J} members={len(battery)} {name} {digest}"
    if mg_js:
        for name, digest in mg_digests(walks()).items():
            yield f"walks={len(WALKS)} {name} {digest}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Digest every bridge route and the moderate growth checks.")
    parser.add_argument("--routes", type=int, nargs="*", default=list(ROUTE_J),
                        metavar="J", help="battery sizes of the route sweep")
    parser.add_argument("--mg", type=int, nargs="*", default=list(MG_J),
                        metavar="J", help="battery sizes of the moderate growth checks")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for line in lines(args.routes, args.mg):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
