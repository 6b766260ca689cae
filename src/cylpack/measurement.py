"""A check's result: its measurements, each an observed value held to a bound with a signed margin."""

import math
from dataclasses import dataclass


def _text(value) -> str:
    """value as str writes it, its exponent unpadded: 1e-9, not 1e-09."""
    return str(value).replace("e-0", "e-")


class Measurement:
    """One compared quantity: observed held to bound by "<=", ">=", ">" or "=="; by default == True."""

    __slots__ = ("name", "observed", "relation", "bound")

    def __init__(self, name: str, observed, relation: str = "==", bound=True):
        self.name, self.observed, self.relation, self.bound = name, observed, relation, bound

    @property
    def margin(self) -> float:
        """How far observed lies inside its bound, negative or NaN where it fails: bound - observed for <=,
        observed less the least value passing >= or > (for >, the float after bound), 0.0 or -1.0 for ==."""
        if self.relation == "==":
            return 0.0 if self.observed == self.bound else -1.0
        if self.relation == "<=":
            return float(self.bound - self.observed)
        least = self.bound if self.relation == ">=" else math.nextafter(self.bound, math.inf)
        return float(self.observed - least)

    def __str__(self) -> str:
        spec = ".3g" if isinstance(self.observed, float) and self.relation != "==" else ""
        text = f"{self.name}: {_text(format(self.observed, spec))}"
        return text if self.bound is True else f"{text} {self.relation} {_text(self.bound)}"

    def doc(self) -> dict:
        """The measurement and its margin as JSON holds them: NaN or infinity as None, a Fraction as text."""
        def value(v):
            if isinstance(v, float):
                return v if math.isfinite(v) else None
            return v if isinstance(v, int) else str(v)
        return {"name": self.name, "observed": value(self.observed), "relation": self.relation,
                "bound": value(self.bound), "margin": value(self.margin)}


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: its name, its measurements, and a note of what it tallies unbounded."""

    name: str
    measurements: tuple[Measurement, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(m.margin >= 0.0 for m in self.measurements)  # False at a NaN margin

    @property
    def details(self) -> str:
        return "; ".join(([self.note] if self.note else []) + [str(m) for m in self.measurements])
