"""The guard switches: which numerical guards are on, by name.

Kept apart from :mod:`repro.robust.guards` and free of imports, so the
timing engine can read a switch at module level without loading the
sizing layer the guard wrappers are built on.

Individual guards can be switched off by name with
:func:`disable_guard` -- that exists so the selftest harness and the
test suite can prove each guard is load-bearing (``repro-gap selftest
--disable-guard finite`` must fail).
"""

from __future__ import annotations


class GuardError(ValueError):
    """Raised for invalid guard configuration or exhausted fallbacks."""


#: Guards that may be disabled by name (testing / selftest only).
KNOWN_GUARDS = ("finite", "retry", "bisection")

_disabled_guards: set[str] = set()


def disable_guard(name: str) -> None:
    """Switch one guard off (selftest/testing hook)."""
    if name not in KNOWN_GUARDS:
        raise GuardError(
            f"unknown guard {name!r}; known: {sorted(KNOWN_GUARDS)}"
        )
    _disabled_guards.add(name)


def enable_all_guards() -> None:
    """Restore every guard (undo any :func:`disable_guard`)."""
    _disabled_guards.clear()


def guard_enabled(name: str) -> bool:
    """Whether a named guard is currently active."""
    return name not in _disabled_guards
