"""Seeded serve-discipline violations: admission decided outside the
policy layer, queue internals touched directly, and decisions tallied
on ad-hoc attributes instead of registry counters."""

from repro.serve.queueing import REJECTED


class PushyManager:
    def __init__(self, queue, registry):
        self.queue = queue
        self.admitted = 0
        self.counter = registry.counter("ok_total", "sanctioned path")

    def force_admit(self, request):
        # BUG: bypasses the admission policy and the wakeup protocol
        self.queue._backlog.append(request)
        self.admitted += 1

    def panic_flush(self):
        # BUG: queue-private deque cleared from outside ServeQueue
        self.queue._backlog.clear()

    def side_channel_shed(self):
        # BUG: evict_oldest is a policy-only entry point
        return self.queue.evict_oldest()

    def hand_rolled_decision(self, request):
        # BUG: a refusal is a status only AdmissionPolicy.decide leaves
        request.status = REJECTED

    def replace_backlog(self, items):
        # BUG: swapping the deque wholesale is still a mutation
        self.queue._backlog = items

    def sanctioned(self, policy, queue, request, now):
        # the one true path stays quiet
        self.counter.inc()
        return policy.decide(queue, request, now)
