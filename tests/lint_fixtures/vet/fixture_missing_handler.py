"""Seeded bug: a message type that is sent but never handled anywhere.

Dispatch would raise on delivery; handler-totality pins the send site,
the one place the missing wiring shows.
"""


class MsgType:
    EVICT_NOTICE = 1


def notify(net, src, dst):
    net.send(Message(MsgType.EVICT_NOTICE, src=src, dst=dst))
