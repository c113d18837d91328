"""Seeded bug: launching a message's flight from outside the fabric — the
message is on the wire without ``on_send`` having seen it, and it lands
without an ``on_deliver`` verdict.  Only fires when scanned together with
``fixture_fabric.py`` (which defines ``_Flight``).
"""

from fixture_fabric import _Flight


def fast_path_post(fabric, msg):
    _Flight(fabric, msg)  # BUG: constructing the flight is the launch


def fast_path_post_via_module(fabric_module, fabric, msg):
    fabric_module._Flight(fabric, msg)  # BUG: same, through the module
