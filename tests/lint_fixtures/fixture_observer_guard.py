"""Fixture: sites that ask whether an observer is attached.  Outside
``obs/`` and ``check/`` (and the two sanctioned modules) a site fires its
probe and never names who watches: every guard here must trip
``lens-sink-discipline``."""


def fault(proc, cluster, detector):
    if proc.sanitizer is not None:
        proc.sanitizer.on_fault()
    if cluster.deadlocks is None:
        return
    if detector is not None:
        detector.check()
    if (cluster.scope
            is not None):
        cluster.scope.sample()


class Node:
    def close(self):
        if self._scope is None:
            return
        self._scope = None
