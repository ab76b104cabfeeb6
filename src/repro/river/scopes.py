"""Scope bookkeeping.

A *data stream scope* is a sequence of records sharing contextual meaning
(for example, produced from the same acoustic clip).  Scopes begin with an
``OpenScope`` record and end with a ``CloseScope`` (or ``BadCloseScope``)
record, can be nested, and carry a ``scope_type``.  :class:`ScopeStack`
tracks the current nesting and validates transitions; it is used by
:class:`~repro.river.pipeline.PipelineSegment` to detect and repair streams
whose upstream segment died with scopes still open, and by tests to assert
stream integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScopeError
from .records import Record, RecordType, bad_close_scope

__all__ = ["ScopeFrame", "ScopeStack", "validate_stream"]


@dataclass(frozen=True)
class ScopeFrame:
    """One open scope: its depth and type."""

    depth: int
    scope_type: str


@dataclass
class ScopeStack:
    """Tracks open scopes while records flow through an operator."""

    frames: list[ScopeFrame] = field(default_factory=list)
    #: When True, scope violations raise; when False they are recorded in
    #: ``violations`` and processing continues (used by the repairing reader).
    strict: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Number of currently open scopes."""
        return len(self.frames)

    @property
    def current(self) -> ScopeFrame | None:
        """The innermost open scope, if any."""
        return self.frames[-1] if self.frames else None

    def _violate(self, message: str) -> None:
        if self.strict:
            raise ScopeError(message)
        self.violations.append(message)

    def observe(self, record: Record) -> None:
        """Update the stack with one record, validating the transition."""
        if record.record_type is RecordType.OPEN_SCOPE:
            expected_depth = len(self.frames)
            if record.scope != expected_depth:
                self._violate(
                    f"OpenScope at depth {record.scope} but {expected_depth} scopes are open"
                )
            self.frames.append(ScopeFrame(depth=len(self.frames), scope_type=record.scope_type))
        elif record.record_type in (RecordType.CLOSE_SCOPE, RecordType.BAD_CLOSE_SCOPE):
            if not self.frames:
                self._violate("CloseScope with no open scope")
                return
            frame = self.frames.pop()
            if record.scope_type != frame.scope_type:
                self._violate(
                    f"CloseScope of type {record.scope_type!r} closes scope of type "
                    f"{frame.scope_type!r}"
                )
            if record.scope != frame.depth:
                self._violate(
                    f"CloseScope at depth {record.scope} closes scope opened at depth {frame.depth}"
                )
        # Data and end-of-stream records do not change the stack.

    def closing_records(self, reason: str = "stream interrupted") -> list[Record]:
        """BadCloseScope records that close every open scope, innermost first.

        This is what a :class:`~repro.river.pipeline.PipelineSegment` emits
        when it or its upstream terminates unexpectedly, so that downstream
        consumers always see balanced scopes.
        """
        records = []
        for frame in reversed(self.frames):
            records.append(
                bad_close_scope(scope=frame.depth, scope_type=frame.scope_type, reason=reason)
            )
        self.frames.clear()
        return records

    def reset(self) -> None:
        self.frames.clear()
        self.violations.clear()


def validate_stream(records: list[Record], strict: bool = True) -> list[str]:
    """Validate scope balance over a full record stream.

    Returns the list of violations (empty when the stream is well-formed).
    A stream that ends with scopes still open is itself a violation.
    """
    stack = ScopeStack(strict=strict)
    for record in records:
        stack.observe(record)
    violations = list(stack.violations)
    if stack.depth:
        message = f"stream ended with {stack.depth} scope(s) still open"
        if strict:
            raise ScopeError(message)
        violations.append(message)
    return violations
