"""Seeded bug: a message type with a handler but no send site anywhere.

``GHOST_SYNC`` is registered (so it looks wired from the handler side)
but nothing ever constructs or sends one — dead protocol surface only
the whole-program send-site scan can see.
"""


class MsgType:
    USED = 1
    GHOST_SYNC = 2


def wire(router, svc):
    router.register(MsgType.USED, svc.handle_used)
    router.register(MsgType.GHOST_SYNC, svc.handle_ghost)


def poke(net, src, dst):
    net.send(Message(MsgType.USED, src=src, dst=dst))
