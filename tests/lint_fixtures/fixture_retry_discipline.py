"""Trips the retry-discipline rule twice: a request-class message with no
TIMEOUT_CLASSES entry, and a hand-rolled exponential retransmit loop."""


class MsgType:
    SYN = "syn"
    NAK = "nak"


TIMEOUT_CLASSES = {MsgType.SYN: "ctl"}


def Message(msg_type, dst=0):
    return (msg_type, dst)


def wire(router, msg):
    # both members are registered, so handler-totality stays quiet: this
    # fixture is about the transport rules (no handler here replies)
    router.register(MsgType.SYN, wire)
    router.register(MsgType.NAK, wire)


def declared_request(net):
    # fine: SYN declares a timeout class
    reply = yield from net.request(Message(MsgType.SYN))
    return reply


def undeclared_request(net):
    msg = Message(MsgType.NAK)
    # flagged: NAK has no TIMEOUT_CLASSES entry (resolved via the binding)
    reply = yield from net.request(msg)
    return reply


def hand_rolled_backoff(net, engine):
    delay = 10.0
    # flagged: sends inside the loop and scales its own delay
    while True:
        yield from net.send(Message(MsgType.SYN))
        yield engine.timeout(delay)
        delay *= 2


def constant_backoff(net, engine):
    # fine: constant-delay busy retry, the acquire_page shape
    while True:
        reply = yield from net.request(Message(MsgType.SYN))
        if reply:
            return reply
        yield engine.timeout(130.0)
