"""Digests of every bridge route and of the moderate growth checks, and the
state of every route of every pair.

    python tools/digests.py                          (the pinned digests)
    python tools/digests.py --routes 64 --mg 4096
    python tools/digests.py --routes --mg --states 64 1024 --mg-states 64 1024 4096
                                                     (the state tables)

For each J given to --routes (default 64 512 1024), runs triangle_routes and
pow_routes on every ordered pair of distinct members of standard_battery(J)
(420 pairs) and prints the sha256 of repr(verdict.to_dict()) of each route
over all pairs, one line per route, then one line over every route in sweep
order.  For each J given to --mg (default 64 512 1024 4096), prints the same
digest of check_mg and of check_mg_diag over every member of
standard_battery(J), and then, once, over a fixed set of twelve seeded random
walks (J = 512 to 4096, with and without drift).  For each J given to
--states (default none), prints a line "J=<J> pairs=420" and then one line
M|N|route|state per route of every pair, in sweep order, M and N the
members' labels; a J given to both --routes and --states is swept once.
For each J given to --mg-states (default none), prints a line
"J=<J> members=21" and then one line M|check|state per member of
standard_battery(J) and check (check_mg, check_mg_diag), in battery order;
a J given to both --mg and --mg-states is checked once.

Two trees that print the same digests decide every route of every pair and
both checks alike, to the last bit of each witness and note; the state
table shows which pair and route moved when a digest does.  The default
digests are tests/golden/digests.txt, and the route states at J = 64 and
1024 and the member states at J = 64, 1024 and 4096 are
tests/golden/states.txt, which tests/test_golden.py compares in process from
one sweep and one battery check per J; tests/golden/bridges.txt holds the
readable verdicts of every 21st pair at J = 512.  Standard library and numpy only, besides
growthcomp itself.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUTE_J = (64, 512, 1024)
MG_J = (64, 512, 1024, 4096)
STATE_J = (64, 1024)
MG_STATE_J = (64, 1024, 4096)
# (seed, J, step mean, step sd) of each walk
WALKS = tuple((seed, J, mean, sd)
              for seed, (mean, sd) in enumerate(((0.6, 1.5), (0.0, 2.0), (0.3, 0.01)))
              for J in (512, 1024, 2048, 4096))


def sweep(J: int) -> list[tuple[str, str, dict]]:
    """(label of M, label of N, route name -> verdict) of both bridges on
    every ordered pair of distinct members of standard_battery(J), in order."""
    import growthcomp

    battery = growthcomp.standard_battery(J)
    return [(M.label, N.label,
             {**growthcomp.triangle_routes(M, N), **growthcomp.pow_routes(M, N)})
            for M in battery for N in battery if M is not N]


def route_digests(swept) -> dict[str, str]:
    """Route name -> hex digest over a sweep; the name "all" digests every
    route in sweep order."""
    hashes = {"all": hashlib.sha256()}
    for _, _, routes in swept:
        for name, verdict in routes.items():
            text = repr(verdict.to_dict()).encode()
            hashes.setdefault(name, hashlib.sha256()).update(text)
            hashes["all"].update(text)
    return {name: h.hexdigest() for name, h in hashes.items()}


def state_lines(J: int, swept):
    """The state table of a sweep at J, one line at a time."""
    yield f"J={J} pairs={len(swept)}"
    for m, n, routes in swept:
        for name, verdict in routes.items():
            yield f"{m}|{n}|{name}|{verdict.state.value}"


def mg_check(sequences) -> list[tuple[str, dict]]:
    """(label, check name -> verdict) of check_mg and check_mg_diag on each
    of the sequences, in order."""
    import growthcomp

    return [(M.label, {"check_mg": growthcomp.check_mg(M),
                       "check_mg_diag": growthcomp.check_mg_diag(M)})
            for M in sequences]


def mg_digests(checked) -> dict[str, str]:
    """check name -> hex digest of its verdicts over the checked sequences."""
    hashes = {}
    for _, verdicts in checked:
        for name, verdict in verdicts.items():
            text = repr(verdict.to_dict()).encode()
            hashes.setdefault(name, hashlib.sha256()).update(text)
    return {name: h.hexdigest() for name, h in hashes.items()}


def mg_state_lines(J: int, checked):
    """The member state table of the battery checked at J, one line at a time."""
    yield f"J={J} members={len(checked)}"
    for label, verdicts in checked:
        for name, verdict in verdicts.items():
            yield f"{label}|{name}|{verdict.state.value}"


def walks():
    """The seeded walks of WALKS, as weight sequences."""
    import numpy as np

    from growthcomp import WeightSequence

    for seed, J, mean, sd in WALKS:
        steps = np.random.default_rng(seed).normal(mean, sd, J)
        yield WeightSequence(np.concatenate(([0.0], np.cumsum(steps))), label=f"walk{seed}-{J}")


def lines(route_js=ROUTE_J, mg_js=MG_J, state_js=(), mg_state_js=(), sweeps=None):
    """The printed lines, one at a time; sweeps holds the route sweeps
    (key ("routes", J)) and battery checks (key ("mg", J)) already run, and
    takes the ones run here."""
    from growthcomp import standard_battery

    sweeps = {} if sweeps is None else sweeps
    for J in (*route_js, *state_js):
        if ("routes", J) not in sweeps:
            sweeps["routes", J] = sweep(J)
    for J in (*mg_js, *mg_state_js):
        if ("mg", J) not in sweeps:
            sweeps["mg", J] = mg_check(standard_battery(J))
    for J in route_js:
        swept = sweeps["routes", J]
        for name, digest in route_digests(swept).items():
            yield f"J={J} pairs={len(swept)} {name} {digest}"
    for J in mg_js:
        checked = sweeps["mg", J]
        for name, digest in mg_digests(checked).items():
            yield f"J={J} members={len(checked)} {name} {digest}"
    if mg_js:
        for name, digest in mg_digests(mg_check(walks())).items():
            yield f"walks={len(WALKS)} {name} {digest}"
    for J in state_js:
        yield from state_lines(J, sweeps["routes", J])
    for J in mg_state_js:
        yield from mg_state_lines(J, sweeps["mg", J])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Digest every bridge route and the moderate growth checks.")
    parser.add_argument("--routes", type=int, nargs="*", default=list(ROUTE_J),
                        metavar="J", help="battery sizes of the route sweep")
    parser.add_argument("--mg", type=int, nargs="*", default=list(MG_J),
                        metavar="J", help="battery sizes of the moderate growth checks")
    parser.add_argument("--states", type=int, nargs="*", default=[],
                        metavar="J", help="battery sizes of the route state table")
    parser.add_argument("--mg-states", type=int, nargs="*", default=[],
                        metavar="J", help="battery sizes of the member state table")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for line in lines(args.routes, args.mg, args.states, args.mg_states):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
