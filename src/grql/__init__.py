"""grql: a reference interpreter, static type-and-cardinality checker, and
metatheory fuzz harness for a graph-relational query calculus.

The typical pipeline is parse_query -> desugar -> synth -> simplify ->
evaluate -> serialize; load_snapshot/save_snapshot move schema+store pairs in
and out of `.grdb.json` files, and load_seed returns the bundled example
database. The functions `desugar`, `simplify` and `serialize` are not
re-exported, so that `grql.desugar`, `grql.simplify` and `grql.serialize`
name their submodules.
"""

from .desugar import DesugarError
from .evaluator import EvalConfig, EvalFault, EvalOutcome, evaluate
from .model import (
    AT_LEAST_ONE,
    AT_MOST_ONE,
    Cardinality,
    EMPTY,
    MANY,
    ONE,
    Schema,
    Store,
    card_add,
    card_if_join,
    card_le,
    card_mul,
    seq_perm_eq,
)
from .parser import parse_query, parse_schema
from .serialize import debug_print, to_json_text
from .store_io import (
    LoadedSnapshot,
    SnapshotError,
    load_seed,
    load_snapshot,
    save_snapshot,
)
from .surface import ParseError, QueryError, format_expr
from .typecheck import TypeCheckError, synth
from .wellformed import Diagnostic, check_schema, check_store, store_extends

__all__ = [
    "Cardinality", "Schema", "Store",
    "EMPTY", "AT_MOST_ONE", "MANY", "ONE", "AT_LEAST_ONE",
    "card_le", "card_add", "card_mul", "card_if_join", "seq_perm_eq",
    "QueryError",
    "parse_query", "parse_schema", "format_expr", "ParseError",
    "DesugarError",
    "synth", "TypeCheckError",
    "evaluate", "EvalConfig", "EvalOutcome", "EvalFault",
    "to_json_text", "debug_print",
    "load_snapshot", "save_snapshot", "load_seed", "LoadedSnapshot", "SnapshotError",
    "check_schema", "check_store", "store_extends", "Diagnostic",
]

__version__ = "0.1.0"
