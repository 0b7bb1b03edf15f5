"""Regression floors shared by the benchmark record scripts.

``REPRO_BENCH_FLOORS`` holds comma-separated ``name=minimum`` pairs.  A record
script passes its gate values (``{name: value}``) and what each gate
measures; every gated value below its floor is printed as a
``FLOOR VIOLATION`` and returned, so the script can exit non-zero.  An
unknown gate name or a malformed minimum stops the run.
"""

from __future__ import annotations

import os
import sys
from typing import Mapping


def check_floors(gates: Mapping[str, float], descriptions: Mapping[str, str]) -> list[str]:
    """Return (and print) one message per gate below its ``REPRO_BENCH_FLOORS`` floor."""
    failures = []
    for part in os.environ.get("REPRO_BENCH_FLOORS", "").split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in descriptions:
            raise SystemExit(f"unknown benchmark floor {name!r}; expected one of {sorted(descriptions)}")
        try:
            minimum = float(value)
        except ValueError:
            raise SystemExit(f"invalid benchmark floor {part!r}; expected {name}=<minimum>") from None
        if gates[name] < minimum:
            failures.append(
                f"{name}: {gates[name]:.2f} is below the regression floor {minimum:.2f} ({descriptions[name]})"
            )
    for failure in failures:
        print(f"FLOOR VIOLATION: {failure}", file=sys.stderr)
    return failures
