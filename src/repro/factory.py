"""Strategy construction by name, with uniform wrapper composition.

Every entry point that builds strategies — the CLI, the experiment harness,
the sharded query service, the benchmarks — goes through this module, so a
wrapped stack is always composed the same way instead of hand-nesting
constructors at each call site.  :func:`make_strategy` instantiates a bare
strategy from :data:`STRATEGY_FACTORIES`; :func:`build_strategy` layers the
optional wrappers on top in the canonical order::

    StandingStrategy( ResilientStrategy( CachingStrategy( <bare strategy> ) ) )

The ladder above the cache means a paranoid ladder audits every delta before
the cache invalidates from it, so a quarantined delta reaches the cache as the
whole-mesh delta that replaces it (see ``docs/caching.md``); standing
outermost of everything means the registry's narrowed re-queries flow through
the cache and share its invalidation stream (see ``docs/standing.md``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .baselines import (
    LinearScanExecutor,
    LURTreeExecutor,
    QUTradeExecutor,
    RUMTreeExecutor,
    ThrowawayOctreeExecutor,
)
from .cache import CachingStrategy, QueryResultCache
from .cache.strategy import cache_capacity
from .core import OctopusConExecutor, OctopusExecutor, ResilientStrategy
from .core.executor import ExecutionStrategy
from .errors import ExperimentError
from .standing import StandingQueryRegistry, StandingStrategy

__all__ = ["STRATEGY_FACTORIES", "build_strategy", "make_strategy"]

#: report name -> constructor, the paper's comparison set (Section V-A)
STRATEGY_FACTORIES: dict[str, Callable[..., ExecutionStrategy]] = {
    "octopus": OctopusExecutor,
    "octopus-con": OctopusConExecutor,
    "linear-scan": LinearScanExecutor,
    "octree": ThrowawayOctreeExecutor,
    "lur-tree": LURTreeExecutor,
    "qu-trade": QUTradeExecutor,
    "rum-tree": RUMTreeExecutor,
}


def make_strategy(name: str, **kwargs) -> ExecutionStrategy:
    """Instantiate a bare execution strategy by its report name."""
    try:
        factory = STRATEGY_FACTORIES[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown strategy {name!r}; expected one of {sorted(STRATEGY_FACTORIES)}"
        ) from exc
    return factory(**kwargs)


def build_strategy(
    name: str,
    *,
    caching: bool | int | QueryResultCache | None = None,
    resilience: bool | str | None = None,
    standing: bool | Sequence | StandingQueryRegistry | None = None,
    **kwargs,
) -> ExecutionStrategy:
    """Build a strategy by name with the standard wrapper stack.

    Parameters
    ----------
    name:
        A report name from :data:`STRATEGY_FACTORIES`.
    caching:
        ``True`` wraps in a :class:`~repro.cache.CachingStrategy` with
        defaults; an ``int`` sets the cache's ``max_entries``; an existing
        :class:`~repro.cache.QueryResultCache` is adopted as-is.
    resilience:
        ``True`` wraps in a :class:`~repro.core.ResilientStrategy`;
        ``"paranoid"`` additionally turns on delta validation.  The ladder
        wraps the cache, so it also guards the cache's invalidation.
    standing:
        ``True`` wraps the finished stack in a
        :class:`~repro.standing.StandingStrategy` with an empty registry; a
        sequence of :class:`~repro.mesh.Box3D` subscribes each box up front
        (initial memberships evaluated at ``prepare``); an existing
        :class:`~repro.standing.StandingQueryRegistry` is adopted as-is.
        Standing goes outermost so the registry's narrowed re-queries flow
        through the cache below; paranoid resilience propagates (the wrapper
        then validates deltas before trusting them incrementally).
    kwargs:
        Forwarded to the bare strategy's constructor (``fanout=16``, ...).
    """
    strategy = make_strategy(name, **kwargs)
    if isinstance(caching, QueryResultCache):
        strategy = CachingStrategy(strategy, cache=caching)
    else:
        max_entries = cache_capacity(caching, ExperimentError)
        if max_entries is not None:
            strategy = CachingStrategy(strategy, max_entries=max_entries)
    if resilience:
        if resilience not in (True, "paranoid"):
            raise ExperimentError(
                f"resilience must be True or 'paranoid', got {resilience!r}"
            )
        strategy = ResilientStrategy(strategy, paranoid=resilience == "paranoid")
    if standing is not None and standing is not False:
        paranoid = resilience == "paranoid"
        if isinstance(standing, StandingQueryRegistry):
            strategy = StandingStrategy(strategy, registry=standing, paranoid=paranoid)
        elif standing is True:
            strategy = StandingStrategy(strategy, paranoid=paranoid)
        elif isinstance(standing, Sequence):
            strategy = StandingStrategy(strategy, boxes=standing, paranoid=paranoid)
        else:
            raise ExperimentError(
                "standing must be True, a sequence of Box3D subscriptions or "
                f"a StandingQueryRegistry, got {standing!r}"
            )
    return strategy
