"""Driver-side reference output for the Spark dissemination tests."""
from repro.core.sliding import BaselineSWEngine


def driver_pairs(ds, window=None):
    """Every (user, object) pair BaselineSW emits over ``ds.stream``,
    append-only (``window=None``) or windowed, mend promotions included."""
    eng = BaselineSWEngine(ds.attrs, ds.prefs, ds.domains, window=window)
    pairs = set()
    for oid, vals in ds.stream:
        eng.insert(oid, vals)
        pairs |= eng.disseminated
    return pairs
