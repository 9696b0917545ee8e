"""Tri-state verdicts with witnesses and evidence.

Every decision procedure in this package returns a Verdict rather than a bare
boolean: numerical checks on finite data can be decisive in either direction or
genuinely undecided, and the caller always needs the certificate (witness
constants, counterexample points) alongside the state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class State(str, enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a tri-state check.

    state      -- Holds / Fails / Inconclusive.
    witnesses  -- named constants certifying the outcome (e.g. {"C": 4.0}).
    evidence   -- (where, value) pairs; `where` is an index or a log-t point.
    note       -- human-readable diagnostic; required when Inconclusive.

    Holds and Fails must carry at least one witness or evidence entry;
    Inconclusive must carry a note.
    """

    state: State
    witnesses: dict[str, float] = field(default_factory=dict)
    evidence: tuple[tuple[float, float], ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.state is State.INCONCLUSIVE:
            if not self.note:
                raise ValueError("Inconclusive verdicts require a note")
        else:
            if not self.witnesses and not self.evidence:
                raise ValueError(
                    f"{self.state.value} verdicts require a witness or evidence entry"
                )

    @property
    def holds(self) -> bool:
        return self.state is State.HOLDS

    @property
    def fails(self) -> bool:
        return self.state is State.FAILS

    @property
    def inconclusive(self) -> bool:
        return self.state is State.INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "state": self.state.value,
            "witnesses": dict(self.witnesses),
            "evidence": [[w, v] for (w, v) in self.evidence],
            "note": self.note,
        }


def holds(witnesses: dict[str, float] | None = None,
          evidence: tuple[tuple[float, float], ...] = (),
          note: str = "") -> Verdict:
    return Verdict(State.HOLDS, dict(witnesses or {}), tuple(evidence), note)


def fails(witnesses: dict[str, float] | None = None,
          evidence: tuple[tuple[float, float], ...] = (),
          note: str = "") -> Verdict:
    return Verdict(State.FAILS, dict(witnesses or {}), tuple(evidence), note)


def inconclusive(note: str,
                 witnesses: dict[str, float] | None = None,
                 evidence: tuple[tuple[float, float], ...] = ()) -> Verdict:
    return Verdict(State.INCONCLUSIVE, dict(witnesses or {}), tuple(evidence), note)


def _merge(parts: dict[str, Verdict], keep: int, note_prefix: str) -> tuple:
    """(witnesses, evidence, note) of a fusion: the witnesses prefixed with
    their route, the first keep evidence entries of each route, and the
    per-route breakdown."""
    witnesses = {f"{name}.{k}": x for name, v in parts.items()
                 for k, x in v.witnesses.items()}
    evidence = tuple(e for v in parts.values() for e in v.evidence[:keep])
    breakdown = "; ".join(f"{n}={v.state.value}" for n, v in parts.items())
    if note_prefix:
        breakdown = f"{note_prefix}: {breakdown}"
    return witnesses, evidence, breakdown


def fuse_unanimous(parts: dict[str, Verdict], note_prefix: str = "") -> Verdict:
    """Unanimity fusion: all Holds -> Holds, all Fails -> Fails, else Inconclusive.

    Used by the multi-route bridge checks where the routes are theorem-equivalent:
    disagreement signals a numerical limitation, never a refuted equivalence, so
    the fused verdict abstains and reports the per-route breakdown.
    """
    witnesses, evidence, note = _merge(parts, 2, note_prefix)
    if all(v.holds for v in parts.values()):
        state = State.HOLDS
    elif all(v.fails for v in parts.values()):
        state = State.FAILS
    else:
        state = State.INCONCLUSIVE
    return Verdict(state, witnesses, evidence, note)


def fuse_conjunction(parts: dict[str, Verdict], note_prefix: str = "") -> Verdict:
    """Logical-and fusion: any Fails -> Fails, all Holds -> Holds, else Inconclusive."""
    witnesses, evidence, note = _merge(parts, 4, note_prefix)
    failing = [n for n, v in parts.items() if v.fails]
    if failing:
        return Verdict(State.FAILS, witnesses, evidence,
                       f"{note}; failing: {', '.join(failing)}")
    state = State.HOLDS if all(v.holds for v in parts.values()) else State.INCONCLUSIVE
    return Verdict(state, witnesses, evidence, note)
