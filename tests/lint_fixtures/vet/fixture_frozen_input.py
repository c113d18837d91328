"""Lint fixture: thawing a frozen array — must trip ``frozen-input`` for
each way of turning the write flag back on, not for freezing or for a
copy."""


def thaw(points, flag):
    points.setflags(write=True)
    points.setflags(True)
    points.setflags(write=flag)
    points.flags.writeable = True
    points.flags["WRITEABLE"] = 1
    points.flags["W"] = flag


def keep_frozen(points):
    points.setflags(write=False)
    points.setflags(align=True)
    points.flags.writeable = False
    mine = points.copy()
    mine[0] = 1.0
    return mine
