"""Tier-1 in another order: the tests reversed, or in a seeded shuffle.

    python tools/order.py --reverse [extra pytest arguments]
    python tools/order.py --seed N [extra pytest arguments]

Runs the tier-1 suite in this process with a plugin that reorders the
collected tests once collection is done: reversed, or shuffled by
random.Random(N).shuffle, so a seed names one order on every machine.  A test
that passes in the collected order and fails in another depends on the tests
that ran before it.  Standard library only, besides pytest itself.  The exit
code is pytest's.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Reorder:
    """Plugin that reverses the collected items, or shuffles them by seed."""

    def __init__(self, seed: int | None) -> None:
        self.seed = seed

    @pytest.hookimpl(trylast=True)
    def pytest_collection_modifyitems(self, items: list) -> None:
        if self.seed is None:
            items.reverse()
        else:
            random.Random(self.seed).shuffle(items)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run tier-1 reversed or shuffled.")
    order = parser.add_mutually_exclusive_group(required=True)
    order.add_argument("--reverse", action="store_true", help="run the tests last to first")
    order.add_argument("--seed", type=int, help="shuffle with random.Random(SEED)")
    args, rest = parser.parse_known_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print("order: " + ("reversed" if args.seed is None else f"shuffled, seed {args.seed}"))
    return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *rest],
                           plugins=[Reorder(args.seed)]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
