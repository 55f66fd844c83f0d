"""Check records: one named, self-describing verification result.

A CheckResult compares two independently computed values for one identity.
Status policy: "pass" when the residual is within tolerance; otherwise
"fail", unless the check is registered as flagged (a known open question in
the source identities), in which case it reports "flagged" and never fails
a suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"


@dataclass(frozen=True)
class CheckResult:
    id: str
    paper_ref: str
    lhs: complex | float
    rhs: complex | float
    residual_abs: float
    residual_rel: float
    tolerance: float
    status: str
    notes: str
    seconds: float = 0.0

    def ok(self) -> bool:
        return self.status != FAIL


def residuals(lhs: complex | float, rhs: complex | float) -> tuple[float, float]:
    """Absolute and relative residuals; the relative one is scaled by the
    larger magnitude so a vanishing side cannot hide a mismatch."""
    diff = abs(complex(lhs) - complex(rhs))
    scale = max(abs(complex(lhs)), abs(complex(rhs)))
    return diff, diff / scale if scale > 0.0 else diff


def compare(check_id: str, paper_ref: str, lhs: complex | float,
            rhs: complex | float, tolerance: float, notes: str = "",
            flagged: bool = False, relative: bool = True) -> CheckResult:
    """Build a CheckResult from two values and a tolerance.

    relative=True judges residual_rel against the tolerance, else
    residual_abs (identities anchored at zero compare absolutely).
    """
    res_abs, res_rel = residuals(lhs, rhs)
    measured = res_rel if relative else res_abs
    within = math.isfinite(measured) and measured <= tolerance
    status = PASS if within else (FLAGGED if flagged else FAIL)
    return CheckResult(id=check_id, paper_ref=paper_ref, lhs=lhs, rhs=rhs,
                       residual_abs=res_abs, residual_rel=res_rel,
                       tolerance=tolerance, status=status, notes=notes)
