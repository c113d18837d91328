"""Lint fixture: reaching into directory storage internals from outside
``core/directory.py`` — must trip ``directory-encapsulation``."""


def peek(state):
    return state.directory_shard.entries


def stale_home(state, vpn):
    return state.shard_map_copy[vpn % 11]
