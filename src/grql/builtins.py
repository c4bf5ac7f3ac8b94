"""Built-in function registry: signatures, resolution, and interpretations.

The table is closed. Each builtin states its parameter modifiers once; its
result type is a function of the argument types, and eq and coalesce are
polymorphic with their type variable instantiated from the arguments.
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


class BuiltinDomainError(Exception):
    """A built-in was applied outside its domain (e.g. integer overflow)."""


@dataclass
class BuiltinSpec:
    name: str
    modifiers: tuple[ParamModifier, ...]
    # the argument types -> the result (type, cardinality), or None when no
    # signature fits; each argument's cardinality is bounded by its modifier
    resolve: Callable[[list[ComputedType]], Result | None]
    run: Callable[[list[ValueSeq]], ValueSeq]


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


def _resolve_count(args: list[ComputedType]) -> Result | None:
    return ScalarType.INT, ONE


def _resolve_eq(args: list[ComputedType]) -> Result | None:
    if args[0] != args[1]:
        return None
    return ScalarType.BOOL, ONE


def _resolve_append(args: list[ComputedType]) -> Result | None:
    if args[0] is not ScalarType.STR or args[1] is not ScalarType.STR:
        return None
    return ScalarType.STR, ONE


def _resolve_coalesce(args: list[ComputedType]) -> Result | None:
    if args[0] != args[1]:
        return None
    return args[0], MANY


def _resolve_any(args: list[ComputedType]) -> Result | None:
    if args[0] is not ScalarType.BOOL:
        return None
    return ScalarType.BOOL, ONE


def _resolve_int_binop(result: ScalarType):
    def resolve(args: list[ComputedType]) -> Result | None:
        if args[0] is not ScalarType.INT or args[1] is not ScalarType.INT:
            return None
        return result, ONE
    return resolve


def _resolve_not(args: list[ComputedType]) -> Result | None:
    if args[0] is not ScalarType.BOOL:
        return None
    return ScalarType.BOOL, ONE


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


REGISTRY: dict[str, BuiltinSpec] = {spec.name: spec for spec in (
    BuiltinSpec("count", (ParamModifier.MANY,), _resolve_count, _run_count),
    BuiltinSpec("eq", (ParamModifier.ONE, ParamModifier.ONE), _resolve_eq, _run_eq),
    BuiltinSpec("append", (ParamModifier.ONE, ParamModifier.ONE), _resolve_append, _run_append),
    BuiltinSpec("coalesce", (ParamModifier.OPT, ParamModifier.MANY), _resolve_coalesce, _run_coalesce),
    BuiltinSpec("any", (ParamModifier.MANY,), _resolve_any, _run_any),
    BuiltinSpec("add", (ParamModifier.ONE, ParamModifier.ONE), _resolve_int_binop(ScalarType.INT), _run_add),
    BuiltinSpec("lt", (ParamModifier.ONE, ParamModifier.ONE), _resolve_int_binop(ScalarType.BOOL), _run_lt),
    BuiltinSpec("not", (ParamModifier.ONE,), _resolve_not, _run_not),
)}
