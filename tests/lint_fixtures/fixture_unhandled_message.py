"""Lint fixture: MsgType members nothing ever sends.

ORPHAN has no handler and no sender; HELLO is wired to a router but never
sent.  Both are dead protocol surface: ``orphan-message-type`` pins each.
"""

import enum


class MsgType(enum.Enum):
    HELLO = "hello"
    ORPHAN = "orphan"


def wire(router):
    router.register(MsgType.HELLO, lambda msg: None)
