"""RPR009 bad fixture: unpicklable/global-mutating callables reaching the
pool through indirection.

Three escapes: a lambda stashed in a local before the entry call, a
lambda forwarded through the ``_submit`` wrapper, and a module function
whose global mutation hides one call down (``_tally -> _bump``).
``run_pooled`` is an in-module stand-in with the real entry point's
shape; none of the three is visible from the entry call's literal
arguments alone.
"""

_COUNTS = {}


def run_pooled(items, fn, workers=2):
    return [fn(item) for item in items]


def _submit(items, fn):
    return run_pooled(items, fn)


def _bump(item):
    _COUNTS[item] = _COUNTS.get(item, 0) + 1
    return item


def _tally(item):
    return _bump(item)


def double_all(items):
    doubler = lambda item: item * 2
    return run_pooled(items, doubler)  # RPR009


def offset_all(items, offset):
    return _submit(items, lambda item: item + offset)  # RPR009


def tally_all(items):
    return _submit(items, _tally)  # RPR009
