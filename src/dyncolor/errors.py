"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DynColorError(Exception):
    """Base class for all package errors."""


# --- graph construction / parsing ---

class LoopRequested(DynColorError):
    pass


class ParseError(DynColorError):
    """Malformed input text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


# --- embeddings ---

class DisconnectedGraph(DynColorError):
    pass


class MalformedRotation(DynColorError):
    pass


class NotCofacial(DynColorError):
    """No face visits both ends of an edge to add; carries the ends."""

    def __init__(self, u: int, v: int):
        super().__init__(f"{u} and {v} share no face")
        self.ends = (u, v)


class WouldDisconnect(DynColorError):
    pass


# --- coloring / solvers ---

class PartialInput(DynColorError):
    pass


class BudgetExceeded(DynColorError):
    """Search cap hit.  lower/upper carry the best bounds proved so far."""

    def __init__(self, message: str, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


# --- paintability game ---

class IllegalMark(DynColorError):
    pass


class IllegalResponse(DynColorError):
    pass


class BudgetViolated(DynColorError):
    """A T-vertex exceeded its rejection budget (wrong trigger set)."""


class InnerLost(DynColorError):
    """The inner strategy had no winning response; it was not a winning strategy."""


# --- reducible configurations ---

class EmbeddingRequired(DynColorError):
    pass


class EmbeddingSurgeryFailed(DynColorError):
    pass


# --- discharging ---

class GenusTooLarge(DynColorError):
    pass


# --- genus bounds ---

class NoLightEdge(DynColorError):
    pass


class ApplicabilityError(DynColorError):
    pass


class CertificateRefuted(DynColorError):
    """A recorded certificate does not survive its replay."""


class HypothesisFail(DynColorError):
    pass


class IsC5(DynColorError):
    pass
