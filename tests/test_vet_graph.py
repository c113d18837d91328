"""Golden snapshot of the extracted message graph.

The snapshot below is the repo's protocol wiring as DexVet sees it:
per message type, where it is sent, who handles it, and what replies
its handlers can produce.  It is deliberately line-number-free, so it
only breaks when the *wiring* changes — and that is the point: a new
``MsgType`` member that lands without a handler or reply entry, or a
send site that moves outside the fabric, fails this test loudly and
forces the snapshot (and the protocol reasoning) to be updated
together.

``replies`` is an over-approximation (name-based reachability): it must
always contain the true reply set, and spurious extras are accepted but
pinned, so sharpening or regressions both show up.
"""

import pytest

from repro.vet import build_context
from repro.vet.loader import package_root


@pytest.fixture(scope="module")
def graph():
    return build_context([package_root()], repo_mode=True).graph


#: msg_type -> (kind, handlers, replies); kind is request/reply/one-way
EXPECTED_WIRING = {
    "DELEGATE": ("request",
                 ["core/delegation.py::DelegationService.handle_delegate"],
                 ["DELEGATE_REPLY"]),
    "DELEGATE_REPLY": ("reply", [], []),
    "LEASE_RENEW": ("one-way",
                    ["core/cluster.py::DexCluster._register_handlers"
                     ".lease_handler"],
                    []),
    "MIGRATE": ("request",
                ["core/migration.py::MigrationService.handle_migrate_msg"],
                ["MIGRATE_DONE"]),
    "MIGRATE_BACK": ("request",
                     ["core/migration.py::MigrationService"
                      ".handle_migrate_back_msg"],
                     ["MIGRATE_DONE"]),
    "MIGRATE_DONE": ("reply", [], []),
    "PAGE_FORWARD": ("one-way",
                     ["core/protocol.py::ConsistencyProtocol"
                      ".handle_forward_msg"],
                     []),
    "PAGE_GRANT": ("reply", [], []),
    "PAGE_HOME_INFO": ("reply", [], []),
    "PAGE_HOME_LOOKUP": ("request",
                         ["core/protocol.py::ConsistencyProtocol"
                          ".handle_home_lookup_msg"],
                         ["PAGE_HOME_INFO"]),
    "PAGE_INVALIDATE": ("request",
                        ["core/protocol.py::ConsistencyProtocol"
                         ".handle_invalidate_msg"],
                        ["PAGE_INVALIDATE_ACK"]),
    "PAGE_INVALIDATE_ACK": ("reply", [], []),
    "PAGE_REDIRECT": ("reply", [], []),
    "PAGE_REQUEST": ("request",
                     ["core/protocol.py::ConsistencyProtocol"
                      ".handle_page_request_msg"],
                     ["PAGE_GRANT", "PAGE_REDIRECT", "PAGE_RETRY"]),
    "PAGE_RETRY": ("reply", [], []),
    "PING": ("request",
             ["core/cluster.py::DexCluster._register_handlers.ping_handler"],
             ["PONG"]),
    "PONG": ("reply", [], []),
    "PROCESS_EXIT": ("one-way",
                     ["core/process.py::DexProcess.handle_exit_msg"],
                     []),
    "REQUEST_ACK": ("reply", [], []),
    "VMA_QUERY": ("request",
                  ["core/vma_sync.py::VmaSync.handle_query"],
                  ["VMA_REPLY"]),
    "VMA_REPLY": ("reply", [], []),
    # handle_shrink revokes mappings through the protocol, so the
    # name-based closure also reaches the grant/retry producers —
    # accepted over-approximation, pinned here
    "VMA_SHRINK": ("request",
                   ["core/vma_sync.py::VmaSync.handle_shrink"],
                   ["PAGE_GRANT", "PAGE_RETRY", "VMA_REPLY"]),
}


def test_member_set_matches(graph):
    assert sorted(graph.nodes) == sorted(EXPECTED_WIRING)


def test_every_member_defined_in_messages(graph):
    for node in graph.nodes.values():
        assert node.defined_in == "net/messages.py"


def test_wiring_snapshot(graph):
    snapshot = graph.to_dict()
    for name, (kind, handlers, replies) in EXPECTED_WIRING.items():
        entry = snapshot[name]
        assert entry["handlers"] == handlers, name
        assert entry["replies"] == replies, name
        if kind == "request":
            assert entry["requested"] and not entry["reply_type"], name
        elif kind == "reply":
            assert entry["reply_type"] and not entry["requested"], name
        else:
            assert not entry["requested"] and not entry["reply_type"], name


def test_every_member_sized(graph):
    # chaos fault injection needs a frame size for every type
    for name, node in graph.nodes.items():
        assert node.has_control_size, name


def test_request_types_declare_timeout_class(graph):
    for name, node in graph.nodes.items():
        if node.is_requested:
            assert node.timeout_class in ("data", "ctl", "heavy"), name


def test_every_sent_type_has_handler_or_is_reply(graph):
    for name, node in graph.nodes.items():
        if node.one_way_sends:
            assert node.handler_regs, name


def test_dot_output_renders_wiring(graph):
    dot = graph.to_dot()
    assert dot.startswith("digraph dexvet {")
    assert dot.rstrip().endswith("}")
    # a known request edge chain: sender -> type -> handler -> reply
    assert 'msg_PING' in dot and 'msg_PONG' in dot
    assert '"reply"' in dot and '"request"' in dot
    for name in EXPECTED_WIRING:
        assert f'label="{name}"' in dot


def test_snapshot_is_line_number_free(graph):
    # the snapshot must not churn when code moves vertically
    import json

    text = json.dumps(graph.to_dict())
    assert ":1" not in text.replace("py::", "py@@")  # no :<line> artifacts


def test_send_sites_deduplicated(graph):
    sites = graph.to_dict()["PAGE_GRANT"]["send_sites"]
    assert len(sites) == len(set(sites))
    assert sites == [
        "send core/protocol.py::ConsistencyProtocol.handle_request (reply)"
    ]
