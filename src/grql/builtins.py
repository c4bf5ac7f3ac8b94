"""Built-in function registry: signatures, resolution, and interpretations.

The table is closed. Each builtin is one row: its parameter modifiers, its
parameter types, its result type and cardinality, its interpretation, and
whether it is total (can never raise `BuiltinDomainError`). A
parameter type is a scalar type, any type, or the one type variable; eq and
coalesce are polymorphic in that variable, which the arguments instantiate.
`BuiltinSpec.resolve` is the one rule that reads a row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .model import (
    AT_MOST_ONE,
    BoolVal,
    Cardinality,
    ComputedType,
    INT64_MAX,
    INT64_MIN,
    IntVal,
    MANY,
    ONE,
    ObjVal,
    ScalarType,
    StrVal,
    ValueSeq,
)


class ParamModifier(enum.Enum):
    ONE = "1"
    OPT = "?"
    MANY = "*"


MODIFIER_CARD: dict[ParamModifier, Cardinality] = {
    ParamModifier.ONE: ONE,
    ParamModifier.OPT: AT_MOST_ONE,
    ParamModifier.MANY: MANY,
}


Result = tuple[ComputedType, Cardinality]


class TypeParam(enum.Enum):
    ANY = "any"  # accepts every argument type
    T = "T"  # the one type variable: every argument it types is equal


Param = ScalarType | TypeParam


class BuiltinDomainError(Exception):
    """A built-in was applied outside its domain (e.g. integer overflow)."""


@dataclass
class BuiltinSpec:
    """One signature: each argument's type is bounded by its parameter and
    its cardinality by its modifier."""

    name: str
    modifiers: tuple[ParamModifier, ...]
    params: tuple[Param, ...]
    result: Param
    card: Cardinality
    run: Callable[[list[ValueSeq]], ValueSeq]
    total: bool = True  # False: `run` may raise BuiltinDomainError

    def resolve(self, arg_types: list[ComputedType]) -> Result | None:
        """The result (type, cardinality) for these argument types, or None
        when the signature does not fit them."""
        bound = None
        for param, arg in zip(self.params, arg_types):
            if param is TypeParam.T:
                if bound is None:
                    bound = arg
                elif arg != bound:
                    return None
            elif param is not TypeParam.ANY and arg is not param:
                return None
        return (bound if self.result is TypeParam.T else self.result), self.card


def _checked_int(n: int) -> IntVal:
    if not INT64_MIN <= n <= INT64_MAX:
        raise BuiltinDomainError(f"integer overflow: {n}")
    return IntVal(n)


def _value_eq(a, b) -> bool:
    # Entity identity is the only stable notion across reshaping, so
    # references compare by id; scalars compare structurally.
    if isinstance(a, ObjVal) and isinstance(b, ObjVal):
        return a.id == b.id
    if isinstance(a, ObjVal) or isinstance(b, ObjVal):
        return False
    return a == b


def _run_count(args: list[ValueSeq]) -> ValueSeq:
    return [IntVal(len(args[0]))]


def _run_eq(args: list[ValueSeq]) -> ValueSeq:
    return [BoolVal(_value_eq(args[0][0], args[1][0]))]


def _run_append(args: list[ValueSeq]) -> ValueSeq:
    return [StrVal(args[0][0].value + args[1][0].value)]


def _run_coalesce(args: list[ValueSeq]) -> ValueSeq:
    return list(args[0]) if args[0] else list(args[1])


def _run_any(args: list[ValueSeq]) -> ValueSeq:
    return [BoolVal(any(w.value for w in args[0]))]


def _run_add(args: list[ValueSeq]) -> ValueSeq:
    return [_checked_int(args[0][0].value + args[1][0].value)]


def _run_lt(args: list[ValueSeq]) -> ValueSeq:
    return [BoolVal(args[0][0].value < args[1][0].value)]


def _run_not(args: list[ValueSeq]) -> ValueSeq:
    return [BoolVal(not args[0][0].value)]


_1, _OPT, _MANY = ParamModifier.ONE, ParamModifier.OPT, ParamModifier.MANY
INT, STR, BOOL = ScalarType.INT, ScalarType.STR, ScalarType.BOOL
ANY, T = TypeParam.ANY, TypeParam.T

REGISTRY: dict[str, BuiltinSpec] = {spec.name: spec for spec in (
    BuiltinSpec("count", (_MANY,), (ANY,), INT, ONE, _run_count),
    BuiltinSpec("eq", (_1, _1), (T, T), BOOL, ONE, _run_eq),
    BuiltinSpec("append", (_1, _1), (STR, STR), STR, ONE, _run_append),
    BuiltinSpec("coalesce", (_OPT, _MANY), (T, T), T, MANY, _run_coalesce),
    BuiltinSpec("any", (_MANY,), (BOOL,), BOOL, ONE, _run_any),
    BuiltinSpec("add", (_1, _1), (INT, INT), INT, ONE, _run_add, total=False),
    BuiltinSpec("lt", (_1, _1), (INT, INT), BOOL, ONE, _run_lt),
    BuiltinSpec("not", (_1,), (BOOL,), BOOL, ONE, _run_not),
)}
