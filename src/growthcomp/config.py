"""Run configuration shared by the CLI and the verification suites."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .grids import GRID_N, T_MAX, T_MIN, Grid
from .sequence_core import DEFAULT_J
from .trend import DEFAULT_POLICY, TrendPolicy
from .weight_functions import Weight

FORMATS = ("json", "csv")
# exact types, since bool is a subclass of int
_ADMITS = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass(frozen=True)
class RunConfig:
    """Effective run parameters; each report echoes the ones its command reads."""

    t_min: float = T_MIN
    t_max: float = T_MAX
    grid_n: int = GRID_N
    J: int = DEFAULT_J
    margin: float = DEFAULT_POLICY.margin
    fmt: str = "json"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if type(v) not in _ADMITS[f.type] or (f.type == "float" and not math.isfinite(v)):
                kind = "a finite number" if f.type == "float" else f.type
                raise ValueError(f"{f.name} must be {kind}, got {v!r}")
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.grid_n < 16:
            raise ValueError("grid_n needs at least 16 points")
        if self.J < 8:
            raise ValueError("J must be at least 8")
        if not (0.0 < self.margin < 1.0):
            raise ValueError("margin must lie in (0,1)")
        if self.fmt not in FORMATS:
            raise ValueError(f"fmt must be one of {FORMATS}")

    def grid(self, u: Weight) -> Grid:
        """The geometric analysis grid, augmented with the knots of u."""
        return Grid.geometric(self.t_min, self.t_max, self.grid_n).augment(u.knots_log)

    def policy(self) -> TrendPolicy:
        return TrendPolicy(margin=self.margin)

    def with_overrides(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **{k: v for k, v in kw.items() if v is not None})


def from_json(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    bad = sorted(set(data) - allowed)
    if bad:
        raise ValueError(f"unknown config keys: {', '.join(bad)}")
    return RunConfig(**data)
