"""Error taxonomy. Every domain failure raises a subclass of KmjmError with a
machine-readable code (used by the CLI for structured stderr output).  The
dimension cap that ResourceCap enforces is resolved here too, so every
command can print it without loading the realization layer."""

from __future__ import annotations

import os


class KmjmError(Exception):
    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def as_dict(self) -> dict:
        return {"error": self.code, "message": str(self), "context": _plain(self.context)}


def _plain(obj):
    # JSON-friendly rendering of exception context (tuples, Fractions, and the
    # value types RootVec, Coweight and WeylWord by their coordinates).
    from fractions import Fraction

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "coeffs"):
        return list(obj.coeffs)
    if hasattr(obj, "values") and not isinstance(obj, (str, bytes)) and not callable(obj.values):
        return list(obj.values)
    if hasattr(obj, "letters"):
        return list(obj.letters)
    return obj


class NotGCM(KmjmError):
    code = "not_gcm"


class NotSymmetrizable(KmjmError):
    code = "not_symmetrizable"


class DegenerateDenominator(KmjmError):
    code = "degenerate_denominator"


class HeightOutOfRange(KmjmError):
    code = "height_out_of_range"


class NotRealRoot(KmjmError):
    code = "not_real_root"


class NotReduced(KmjmError):
    code = "not_reduced"


class NotDominant(KmjmError):
    code = "not_dominant"


class NotPiSystem(KmjmError):
    code = "not_pi_system"


class SingularB(KmjmError):
    code = "singular_b"


class ZeroElement(KmjmError):
    code = "zero_element"


class EmptySlice(KmjmError):
    code = "empty_slice"


class ResourceCap(KmjmError):
    code = "resource_cap"


DEFAULT_CAP = 20000


def resolve_cap(cap: int | None = None) -> int:
    """The dimension cap in force: the argument, else KMJM_CAP from the
    environment, else DEFAULT_CAP.  A cap below 1 is an error: it would fail
    every build."""
    if cap is not None:
        if cap < 1:
            raise ValueError(f"the cap must be >= 1, got {cap}")
        return cap
    env = os.environ.get("KMJM_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"KMJM_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError(f"KMJM_CAP must be >= 1, got {env!r}")
    return cap


class InternalInconsistency(KmjmError):
    code = "internal_inconsistency"


class NotHyperbolic(KmjmError):
    code = "not_hyperbolic"
