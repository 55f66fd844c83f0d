"""Check records: one named, self-describing verification result.

A CheckResult compares two independently computed values for one identity.
Status policy: "pass" when the residual is within tolerance; otherwise
"fail", unless the check is registered as flagged (a known open question in
the source identities), in which case it reports "flagged" and never fails
a suite.

Every registry check pays this module's frame around its two sides: the
residuals, the status and the record.  On a trivial check run_check takes
1.65 us, 1.15 us of it in compare (3.49 and 2.83 us when the generated
dataclass __init__ set one field at a time; Python 3.11 on one Xeon core),
against a median registry check of about 22 us.  CheckResult stays a frozen
dataclass, not a numerics.Frozen, because the benchmark calls
dataclasses.replace on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"


@dataclass(frozen=True, init=False)
class CheckResult:
    """One check's record.  Its __init__ fills the instance __dict__ in one
    step, where the generated frozen __init__ makes one object.__setattr__
    call per field (0.7 us against 1.6 us); eq, hash, repr, fields, replace
    and the frozen assignment error are the dataclass's own."""

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

    def __init__(self, id, paper_ref, lhs, rhs, residual_abs, residual_rel,
                 judged, tolerance, status, notes, seconds=0.0):
        object.__setattr__(self, "__dict__", {
            "id": id, "paper_ref": paper_ref, "lhs": lhs, "rhs": rhs,
            "residual_abs": residual_abs, "residual_rel": residual_rel,
            "judged": judged, "tolerance": tolerance, "status": status,
            "notes": notes, "seconds": seconds})

    def ok(self) -> bool:
        return self.status != FAIL


def residuals(lhs: complex | float, rhs: complex | float) -> tuple[float, float]:
    """Absolute and relative residuals; the relative one is scaled by the
    larger magnitude so a vanishing side cannot hide a mismatch.  Sides may
    be real, complex or mixed, and none is converted: abs of a float x is
    abs(complex(x)) to the bit."""
    diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
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
    identity anchored at zero).  A side whose modulus passes the largest
    double, where residuals raises OverflowError, is judged with both
    residuals inf: a fail, or a flag for a flagged record.
    """
    try:
        res_abs, res_rel = residuals(lhs, rhs)
    except OverflowError:
        res_abs = res_rel = math.inf
    measured = res_rel if relative else res_abs
    within = math.isfinite(measured) and measured <= tolerance
    status = PASS if within else (FLAGGED if flagged else FAIL)
    # positional: binding 11 keywords costs nearly as much as the build
    return CheckResult(check_id, paper_ref, lhs, rhs, res_abs, res_rel,
                       "rel" if relative else "abs", tolerance, status, notes,
                       seconds)
