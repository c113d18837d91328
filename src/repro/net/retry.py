"""Shared retransmission policy for the reliable request/reply transport.

Every retransmit loop in the tree must derive its delays from
:func:`backoff_delay` and bound its attempts (the ``retry-discipline`` lint
rule rejects ad-hoc exponential backoff).  The per-message-class base
timeouts live in :data:`repro.net.messages.TIMEOUT_CLASSES` plus the
``retry_timeout_*_us`` fields of :class:`repro.params.SimParams`.
"""

from __future__ import annotations

from repro.net.messages import TIMEOUT_CLASSES, MsgType
from repro.params import SimParams


def backoff_delay(base_us: float, attempt: int, cap_us: float) -> float:
    """Capped exponential backoff: ``base * 2^attempt``, clamped to *cap*.

    ``attempt`` is 0 for the wait before the first retransmission.
    """
    return min(base_us * (2.0 ** attempt), cap_us)


def timeout_base_us(params: SimParams, msg_type: MsgType) -> float:
    """The reply timeout a request of *msg_type* starts from."""
    cls = TIMEOUT_CLASSES.get(msg_type, "heavy")
    if cls == "ctl":
        return params.retry_timeout_ctl_us
    if cls == "data":
        return params.retry_timeout_data_us
    return params.retry_timeout_heavy_us

