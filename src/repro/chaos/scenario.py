"""Chaos scenario spec: which faults to inject, where, and when.

A scenario is a seed plus an ordered list of :class:`ChaosRule`\\ s.  Each
rule names a fault ``kind`` (``drop``, ``delay``, ``duplicate``,
``reorder``, ``degrade``, or ``crash``) and a match: message type, source,
destination, a sim-time window, an ``nth``-match predicate ("the 3rd
PAGE_INVALIDATE from node 2"), or a probability drawn from the engine-owned
RNG.  Crash rules may instead fire at an absolute sim time (``at_us``).

Rule state (match and fire counters) lives on the rule objects and is
intentionally **shared across restart attempts** of the harness: a crash
that already fired stays consumed, so a restarted run completes.

Scenarios load from JSON::

    {
      "seed": 42,
      "on_exclusive_loss": "fail",
      "rules": [
        {"kind": "drop", "msg_type": "page_request", "nth": 1},
        {"kind": "crash", "node": 2, "at_us": 30000.0},
        {"kind": "crash", "node": 3, "msg_type": "page_invalidate",
         "src": 3, "nth": 3}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.errors import DexError
from repro.net.messages import MsgType

KINDS = ("drop", "delay", "duplicate", "reorder", "degrade", "crash")
#: the ``msg_type`` spellings a rule may match on
_MSG_TYPES = frozenset(t.value for t in MsgType)

#: what recovery does when a fail-stopped node held the only current copy
#: of a page: "fail" the process with a precise diagnostic, or "rollback"
#: the page to the last downgrade-flushed copy at its home
EXCLUSIVE_LOSS_POLICIES = ("fail", "rollback")


class ChaosError(DexError):
    """Invalid scenario spec or illegal chaos operation."""


@dataclass
class ChaosRule:
    """One fault-injection rule.  See the module docstring for semantics."""

    kind: str
    #: message match (ignored by time-scheduled crashes): MsgType value
    #: string, or None for any type
    msg_type: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    #: fire exactly on the nth matching message (1-based), once
    nth: Optional[int] = None
    #: else fire on each match with this probability (engine RNG)
    probability: Optional[float] = None
    #: cap on total firings; None = unlimited (nth-rules always fire once)
    times: Optional[int] = 1
    #: sim-time match window
    after_us: float = 0.0
    before_us: Optional[float] = None
    #: extra delivery latency for "delay" rules
    delay_us: float = 0.0
    #: bandwidth-division factor for "degrade" rules (2.0 = half speed)
    factor: float = 1.0
    #: the node a "crash" rule kills
    node: Optional[int] = None
    #: absolute sim time of a scheduled crash (alternative to a predicate)
    at_us: Optional[float] = None
    # -- runtime state, shared across harness restarts on purpose --------
    matched: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ChaosError(f"unknown rule kind {self.kind!r} (one of {KINDS})")
        if self.msg_type is not None and self.msg_type not in _MSG_TYPES:
            raise ChaosError(
                f"unknown msg_type {self.msg_type!r} (one of "
                f"{', '.join(sorted(_MSG_TYPES))})")
        if self.kind == "crash":
            if self.node is None:
                raise ChaosError("crash rule needs a 'node'")
            if self.node == 0:
                raise ChaosError(
                    "node 0 is the origin of every simulated process; "
                    "origin fail-stop is outside the DeX failure model"
                )
            if self.at_us is None and not self._has_message_match():
                raise ChaosError(
                    "crash rule needs 'at_us' or a message predicate "
                    "(msg_type/src/dst/nth)"
                )
        if self.kind == "delay" and self.delay_us <= 0:
            raise ChaosError("delay rule needs delay_us > 0")
        if self.kind == "degrade" and self.factor <= 1.0:
            raise ChaosError("degrade rule needs factor > 1.0")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ChaosError(f"probability {self.probability} outside (0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ChaosError("nth is 1-based")

    def _has_message_match(self) -> bool:
        return any(v is not None for v in (self.msg_type, self.src, self.dst, self.nth))

    @property
    def scheduled(self) -> bool:
        """True for crashes fired by absolute sim time, not by predicate."""
        return self.kind == "crash" and self.at_us is not None

    def matches(self, msg: Any, now: float) -> bool:
        if self.msg_type is not None and msg.msg_type.value != self.msg_type:
            return False
        if self.src is not None and msg.src != self.src:
            return False
        if self.dst is not None and msg.dst != self.dst:
            return False
        if now < self.after_us:
            return False
        if self.before_us is not None and now > self.before_us:
            return False
        return True

    def should_fire(self, rng: Any) -> bool:
        """Call after incrementing :attr:`matched` for a matching message."""
        if self.nth is not None:
            return self.matched == self.nth and self.fired == 0
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability is not None:
            return float(rng.random()) < self.probability
        return True

    def describe(self) -> str:
        match = [p for p in (
            self.msg_type,
            f"src={self.src}" if self.src is not None else None,
            f"dst={self.dst}" if self.dst is not None else None,
            f"nth={self.nth}" if self.nth is not None else None,
            f"p={self.probability}" if self.probability is not None else None,
            f"at={self.at_us}us" if self.at_us is not None else None,
        ) if p]
        target = f" node {self.node}" if self.node is not None else ""
        return f"{self.kind}{target}[{' '.join(match) or 'any'}]"


@dataclass
class ChaosScenario:
    """A seed, a recovery policy, and the rules to inject."""

    rules: List[ChaosRule] = field(default_factory=list)
    #: seeds the engine RNG when SimParams.seed is unset
    seed: Optional[int] = None
    on_exclusive_loss: str = "fail"

    def validate(self) -> "ChaosScenario":
        if self.on_exclusive_loss not in EXCLUSIVE_LOSS_POLICIES:
            raise ChaosError(
                f"on_exclusive_loss {self.on_exclusive_loss!r} "
                f"(one of {EXCLUSIVE_LOSS_POLICIES})"
            )
        for rule in self.rules:
            rule.validate()
        return self

    @classmethod
    def from_json(cls, text: str) -> "ChaosScenario":
        try:
            doc = json.loads(text)
        except ValueError as err:
            raise ChaosError(f"scenario is not valid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise ChaosError("scenario JSON must be an object")
        known = {f for f in ChaosRule.__dataclass_fields__ if f not in ("matched", "fired")}
        rules = []
        for i, spec in enumerate(doc.get("rules", [])):
            extra = set(spec) - known
            if extra:
                raise ChaosError(f"rule {i}: unknown fields {sorted(extra)}")
            rules.append(ChaosRule(**spec))
        return cls(
            rules=rules,
            seed=doc.get("seed"),
            on_exclusive_loss=doc.get("on_exclusive_loss", "fail"),
        ).validate()

    @classmethod
    def from_file(cls, path: str) -> "ChaosScenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ChaosError(f"cannot read scenario file {path!r}: {err}") from err
        return cls.from_json(text)

    def to_json(self) -> str:
        doc: Dict[str, Any] = {
            "seed": self.seed,
            "on_exclusive_loss": self.on_exclusive_loss,
            "rules": [],
        }
        for rule in self.rules:
            spec = {k: v for k, v in asdict(rule).items()
                    if k not in ("matched", "fired") and v is not None}
            doc["rules"].append(spec)
        return json.dumps(doc, indent=2)
