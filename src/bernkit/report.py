"""Machine-readable verdicts for identity checks.

A failing report always carries a witness: either the first differing
monomial (symbolic comparisons, graded lexicographic order) or the first
differing evaluation point (grid comparisons), with both coefficient
values rendered as lossless "p/q" strings.
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
    passed: bool
    method: str
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("a passing report cannot carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "params": dict(self.params),
            "method": self.method,
            "passed": self.passed,
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def compare_poly(
    identity_id: str, params: Mapping[str, int], lhs: Poly1 | Poly2, rhs: Poly1 | Poly2
) -> IdentityReport:
    """Canonical-form equality of two polynomials of one ring; the
    difference is built only to find a failing check's witness, its first
    monomial."""
    if lhs == rhs:
        return IdentityReport(identity_id, params, True, METHOD_SYMBOLIC)
    exps, _ = (lhs - rhs).monomials()[0]
    witness = Witness(
        lhs=scalar_str(lhs.coefficient(*exps)),
        rhs=scalar_str(rhs.coefficient(*exps)),
        monomial=dict(zip(lhs._VARS, exps)),
    )
    return IdentityReport(identity_id, params, False, METHOD_SYMBOLIC, witness)
