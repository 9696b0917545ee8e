"""Digests of the moderate growth checks.

    python tools/mg.py [J ...]            (default: 512)

For each J, runs check_mg and check_mg_diag on every member of
standard_battery(J) and prints the sha256 of repr(verdict.to_dict()) of each
check over all members, one line per check.  Then it does the same over a
fixed set of seeded random walks (J = 512 to 4096, with and without drift),
whatever J is given.  Two trees that print the same lines decide both checks
alike on those inputs, to the last bit of each witness and note.  Standard
library and numpy only, besides growthcomp itself.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (seed, J, step mean, step sd) of each walk
WALKS = tuple((seed, J, mean, sd)
              for seed, (mean, sd) in enumerate(((0.6, 1.5), (0.0, 2.0), (0.3, 0.01)))
              for J in (512, 1024, 2048, 4096))


def digests(sequences) -> dict[str, str]:
    """check name -> hex digest of its verdicts over the sequences, in order."""
    from growthcomp import check_mg, check_mg_diag

    hashes = {}
    for M in sequences:
        for name, check in (("check_mg", check_mg), ("check_mg_diag", check_mg_diag)):
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Digest the moderate growth checks.")
    parser.add_argument("J", type=int, nargs="*", default=[512],
                        help="battery sizes (default 512)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from growthcomp import standard_battery

    for J in args.J:
        battery = standard_battery(J)
        for name, digest in digests(battery).items():
            print(f"J={J} members={len(battery)} {name} {digest}")
    for name, digest in digests(walks()).items():
        print(f"walks={len(WALKS)} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
