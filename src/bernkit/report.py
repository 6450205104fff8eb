"""Machine-readable verdicts for identity checks.

A check returns its witness, None when its two sides agree: else the
first differing monomial (symbolic comparisons, graded lexicographic
order) or the first differing evaluation point (grid comparisons), with
both values rendered as lossless "p/q" strings.  `run_identity` (and,
for the series catalog, `check_functional_equation`) builds the report
from it, and the report's `passed` is read off the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .polynomials import Poly1, Poly2, scalar_str

METHOD_SYMBOLIC = "symbolic"
METHOD_GRID = "grid"


@dataclass(frozen=True)
class Witness:
    lhs: str
    rhs: str
    monomial: Optional[Mapping[str, int]] = None
    point: Optional[Mapping[str, str]] = None

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.monomial is not None:
            out["monomial"] = dict(self.monomial)
        if self.point is not None:
            out["point"] = dict(self.point)
        out["lhs"] = self.lhs
        out["rhs"] = self.rhs
        return out


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: Mapping[str, int]
    method: str
    witness: Optional[Witness] = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "params": dict(self.params),
            "method": self.method,
            "passed": self.passed,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def compare_poly(lhs: Poly1 | Poly2, rhs: Poly1 | Poly2) -> Optional[Witness]:
    """Canonical-form equality of two polynomials of one ring: None when
    they are equal, else the witness at their first differing monomial (the
    difference is built only to find it)."""
    if lhs == rhs:
        return None
    exps, _ = (lhs - rhs).monomials()[0]
    return Witness(
        lhs=scalar_str(lhs.coefficient(*exps)),
        rhs=scalar_str(rhs.coefficient(*exps)),
        monomial=dict(zip(lhs._VARS, exps)),
    )
