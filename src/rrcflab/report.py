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
    judged: str          # "rel" or "abs": the residual held to the tolerance
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
            flagged: bool = False, relative: bool = True,
            seconds: float = 0.0) -> CheckResult:
    """Build a CheckResult from two values and a tolerance.

    relative=True judges residual_rel against the tolerance, else
    residual_abs; the result records which as judged ("rel" or "abs").
    seconds is the time that computing the two values took.
    The registry's runner passes every check the same rule: the tolerance
    max(tol, ctx.eps_rel), and relative unless rhs is the constant 0 (an
    identity anchored at zero).
    """
    res_abs, res_rel = residuals(lhs, rhs)
    measured = res_rel if relative else res_abs
    within = math.isfinite(measured) and measured <= tolerance
    status = PASS if within else (FLAGGED if flagged else FAIL)
    return CheckResult(id=check_id, paper_ref=paper_ref, lhs=lhs, rhs=rhs,
                       residual_abs=res_abs, residual_rel=res_rel,
                       judged="rel" if relative else "abs", tolerance=tolerance,
                       status=status, notes=notes, seconds=seconds)
