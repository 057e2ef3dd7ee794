"""Invariant lattices of finite complex matrix groups and the tori they define."""

from .cyclotomic import CycNum, zeta, sqrt_rational, parse_scalar
from .errors import (
    CapExceededError,
    InternalConsistencyError,
    InvalidInputError,
    NotDiscreteError,
    OutOfScopeError,
)

__all__ = [
    "CycNum",
    "zeta",
    "sqrt_rational",
    "parse_scalar",
    "CapExceededError",
    "InternalConsistencyError",
    "InvalidInputError",
    "NotDiscreteError",
    "OutOfScopeError",
]
