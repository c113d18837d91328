"""Lint fixture: the program running or switching the cyclic collector —
must trip ``gc-discipline`` for the import and both calls, not for the
read-only queries."""

import gc
from gc import freeze, get_count


def teardown(cluster):
    gc.collect()
    gc.set_threshold(10_000)
    return gc.isenabled(), get_count(), gc.get_stats()
