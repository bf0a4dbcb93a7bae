"""Desk-scale guards for the exhaustive computations, and the two error
types that the CLI maps to exits 3 and 4: GuardExceeded and MembershipError.

Guarded operations refuse oversized inputs instead of degrading.  Setting
the environment variable HECKE_GUARD_OVERRIDE to an integer raises every
guard to at least that ceiling, at the caller's risk.
"""

import math
import os


class GuardExceeded(RuntimeError):
    pass


class MembershipError(ValueError):
    """Input outside M_mu or N_mu."""


def guard_limit(default: int) -> int:
    override = os.environ.get("HECKE_GUARD_OVERRIDE")
    if override:
        return max(default, int(override))
    return default


def check_guard(value: int, default_limit: int, what: str):
    limit = guard_limit(default_limit)
    if value > limit:
        # Past 4096 bits a value prints as inf: str() of it is slow or refused.
        shown = math.inf if value >= 1 << 4096 else value
        raise GuardExceeded(f"{what} = {shown} exceeds the guard ({limit})")
