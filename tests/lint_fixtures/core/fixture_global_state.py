"""Fixture: interpreter-global state under a ``core`` path.  State that
outlives a cluster makes a run depend on what ran before it: every
module-level empty container and every id counter not held by a
``self.`` attribute must trip ``sim-nondeterminism``; the counter and the
pool a cluster owns, and an immutable constant, must not."""

import itertools
from itertools import count

_POOL = []
_BY_ID: dict = {}
_SEEN = set()
_NEXT_ID = itertools.count(1)
_NEXT_TAG = count()
LIMITS = (4, 8)


class Cluster:
    def __init__(self):
        self.pids = itertools.count(1)
        self.pool = []

    def batch_ids(self):
        return itertools.count()
