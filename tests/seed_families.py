"""Seed families: the seeds a parametrised differential/chaos suite runs over.

CI sweeps extra seeds through the environment; the helpers take an explicit
env mapping so tests can assert the extension behaviour itself (see
docs/robustness.md, "Seed families").
"""

from __future__ import annotations

import os


def parity_seed_family(env=None) -> tuple[int, ...]:
    """Seeds for the differential parity suites: base plus ``REPRO_PARITY_SEED``.

    The extra seed extends the family (it never replaces the base seeds, and
    a duplicate of a base seed is dropped rather than run twice).
    """
    env = os.environ if env is None else env
    base = (0,)
    extra = env.get("REPRO_PARITY_SEED")
    if extra is not None and extra != "" and int(extra) not in base:
        return base + (int(extra),)
    return base


def chaos_seed_family(env=None) -> tuple[int, ...]:
    """Seeds for the chaos suites: base plus ``REPRO_CHAOS_SEED`` (same rules)."""
    env = os.environ if env is None else env
    base = (7, 19)
    extra = env.get("REPRO_CHAOS_SEED")
    if extra is not None and extra != "" and int(extra) not in base:
        return base + (int(extra),)
    return base
