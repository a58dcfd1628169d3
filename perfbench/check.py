"""The differential output check: gateway reports against the reference.

A tenant's evaluate report, as the gateway serialises it, is compared with
the report an in-process ``FlexSession(backend="reference")`` computes for
the same live offers.  Integers must match exactly and floats to the
conformance suite's tolerance (``rel_tol = abs_tol = 1e-9``); the
non-finite wire sentinels (``"inf"``, ``"-inf"``, ``"nan"``) must match as
strings.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence

TOLERANCE = 1e-9


def mismatches(actual: Any, expected: Any, where: str = "report") -> List[str]:
    """Every place where ``actual`` differs from ``expected`` (empty = equal)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        found: List[str] = []
        for key in sorted(expected):
            found += mismatches(actual[key], expected[key], f"{where}.{key}")
        return found
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        found = []
        for index, (left, right) in enumerate(zip(actual, expected)):
            found += mismatches(left, right, f"{where}[{index}]")
        return found
    if isinstance(expected, float) or isinstance(actual, float):
        numbers = (int, float)
        if (
            isinstance(actual, numbers) and not isinstance(actual, bool)
            and isinstance(expected, numbers) and not isinstance(expected, bool)
            and math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
        ):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def reference_report(offers: Sequence, measures=None) -> dict:
    """The wire form of the reference backend's report over ``offers``."""
    from repro.io import result_to_dict
    from repro.service import EvaluateRequest, FlexSession

    with FlexSession(backend="reference", measures=measures) as session:
        result = session.evaluate(EvaluateRequest(offers=tuple(offers)))
    return result_to_dict(result)["report"]
