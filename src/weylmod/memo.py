"""The one memo registry.  ``make_wedge_module`` keeps a bare ``lru_cache``
outside it, never cleared: exterior powers compare by identity."""

from functools import lru_cache

_MEMOS: dict = {}


def bounded(maxsize: int):
    """``lru_cache(maxsize)`` itself, registered under the dotted name."""
    return lambda fn: register(f"{fn.__module__}.{fn.__qualname__}", lru_cache(maxsize)(fn))


def register(name: str, memo):
    """Register an ``lru_cache``, or a plain dict that its owner bounds."""
    _MEMOS[name] = memo
    return memo


def clear() -> None:
    for memo in _MEMOS.values():
        memo.clear() if isinstance(memo, dict) else memo.cache_clear()


def stats() -> list:
    """(name, entries, hits, misses) per memo in name order; None counts for a dict."""
    infos = ((k, (None, None, 0, len(m)) if isinstance(m, dict) else m.cache_info())
             for k, m in sorted(_MEMOS.items()))
    return [(k, entries, hits, misses) for k, (hits, misses, _, entries) in infos]
