"""Command-line front end: one-shot query runner, REPL, checker, and fuzzer.

Exit codes: 0 success, 1 parse/type/runtime error in a query (or a failure
`fuzz` found), 2 snapshot, store or counter-example file error, a `fuzz`
count out of range, a GRQL_SEED that is not an integer, or a stdout whose
reader has gone. Results go to stdout, diagnostics to stderr. GRQL_SEED,
when set and non-empty, is the default permutation seed (and the default
`fuzz` master seed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import shutil
import sys
from dataclasses import dataclass

from . import core, harness
from .desugar import desugar
from .evaluator import EvalConfig, evaluate
from .model import Cardinality, ComputedType, Schema, Store
from .parser import parse_query, parse_schema
from .serialize import debug_print, serialize, to_json_text
from .simplify import simplify
from .store_io import LoadedSnapshot, SnapshotError, load_snapshot, save_snapshot
from .surface import ParseError, QueryError
from .typecheck import synth
from .wellformed import Diagnostic, check_schema

EXIT_OK = 0
EXIT_QUERY_ERROR = 1
EXIT_STORE_ERROR = 2


def _env_seed() -> int | None:
    """GRQL_SEED as an integer, or None when it is unset or empty; raises
    ValueError when it is anything else."""
    raw = os.environ.get("GRQL_SEED")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GRQL_SEED must be an integer, got {raw!r}") from None


def typed_query(schema: Schema, text: str) -> tuple[core.Expr, ComputedType, Cardinality]:
    """Parse, lower and check one query: its core term, type and cardinality.
    Raises QueryError."""
    expr = desugar(parse_query(text))
    ty, card = synth(schema, {}, expr)
    return expr, ty, card


@dataclass
class Session:
    """REPL/runner state. Between queries the store passes check_store and
    holds no edit marks: a query marks the tuples it writes, and run_query
    clears the marks when it commits the query's store to the session."""

    schema: Schema
    store: Store
    schema_text: str
    next_id: int
    seed: int | None = None
    dedup: bool = False
    fmt: str = "json"

    @classmethod
    def from_snapshot(cls, snap: LoadedSnapshot, **kw) -> Session:
        return cls(snap.schema, snap.store, snap.schema_text, snap.next_id, **kw)

    def run_query(self, text: str) -> tuple[object, ComputedType, Cardinality]:
        """Parse, lower, check, simplify and evaluate one query against the
        session store; commits the new store to the session on success."""
        expr, ty, card = typed_query(self.schema, text)
        # load_snapshot starts next_id past every stored id; queries only advance it
        config = EvalConfig(permutation_seed=self.seed, dedup_projections=self.dedup,
                            next_id=self.next_id)
        outcome = evaluate(self.schema, config, {}, self.store, simplify(self.schema, expr))
        self.store = outcome.store_after.unlock_all()
        self.next_id = outcome.next_id
        return outcome.result, ty, card

    def render(self, result, ty, card, pretty: bool) -> str:
        if self.fmt == "debug":
            return debug_print(result)
        return to_json_text(serialize(result, ty, card), pretty=pretty)


def _strip_query(text: str) -> str:
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    return text


def _query_end(text: str) -> int:
    """The index of the first `;` outside a string literal and a `#`
    comment, or -1 when the text holds no complete query yet."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            return i
        if ch == "#":
            i = text.find("\n", i)
            if i < 0:
                return -1
        elif ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            if i >= n:
                return -1
        i += 1
    return -1


def _holds_code(query: str) -> bool:
    """Whether the query text holds anything but whitespace and `#`
    comments; the REPL skips one that does not."""
    return any(line.partition("#")[0].strip() for line in query.splitlines())


def _write_snapshot(path: str, text: str) -> None:
    """Replace the snapshot at `path` atomically: the text goes to `<path>.tmp`,
    is flushed and fsynced, and is renamed over `path`, so a failed write
    leaves the old snapshot whole. Writers take turns on an advisory lock on
    `<path>.lock` (POSIX only; a no-op elsewhere)."""
    tmp = path + ".tmp"
    with open(path + ".lock", "a", encoding="utf-8") as lock:
        try:
            import fcntl

            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        except ImportError:
            pass
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                with contextlib.suppress(FileNotFoundError):
                    shutil.copymode(path, tmp)  # keep the snapshot's permissions
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def _read_text(path: str) -> str | None:
    """The text of the file at `path`, or None after printing why it cannot
    be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_text(text: str) -> LoadedSnapshot | None:
    """Load snapshot text, or print why it cannot be loaded (one diagnostic
    per line) and return None. The cyclic GC is off while the snapshot
    decodes, since each collection during the load would walk every tuple
    built so far; the caller's GC state is restored afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load_snapshot(text)
    except SnapshotError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return None
    finally:
        if enabled:
            gc.enable()


def _open_snapshot(path: str) -> LoadedSnapshot | None:
    text = _read_text(path)
    return None if text is None else _load_text(text)


def cmd_run(args) -> int:
    snap = _open_snapshot(args.store)
    if snap is None:
        return EXIT_STORE_ERROR
    session = Session.from_snapshot(snap, seed=args.seed, dedup=args.dedup, fmt=args.format)
    try:
        result, ty, card = session.run_query(_strip_query(args.query))
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR

    # a result that cannot be written stops the run before the commit
    print(session.render(result, ty, card, pretty=False), flush=True)
    if args.commit:
        try:
            _write_snapshot(args.store,
                            save_snapshot(session.schema_text, session.store, session.next_id))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STORE_ERROR
    return EXIT_OK


def cmd_check(args) -> int:
    text = _read_text(args.path)
    if text is None:
        return EXIT_STORE_ERROR

    if text.lstrip().startswith("{"):
        snap = _load_text(text)
        if snap is None:
            return EXIT_STORE_ERROR
        schema = snap.schema
    else:
        # a bare schema file
        try:
            schema, diags = parse_schema(text)
        except ParseError as exc:
            # the line the same schema gives inside a snapshot
            print(Diagnostic("SchemaParseError", "-", str(exc)), file=sys.stderr)
            return EXIT_STORE_ERROR
        diags.extend(check_schema(schema))
        if diags:
            for d in diags:
                print(d, file=sys.stderr)
            return EXIT_STORE_ERROR

    if args.query is not None:
        try:
            _, ty, card = typed_query(schema, _strip_query(args.query))
        except QueryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_QUERY_ERROR
        print(f"{ty} # {card}")
    return EXIT_OK


def _repl_help() -> str:
    return (
        "meta commands:\n"
        "  \\schema        print the schema source\n"
        "  \\type EXPR     print the synthesized type and cardinality\n"
        "  \\save          persist the session store to the snapshot file\n"
        "  \\seed N        set the permutation seed (\\seed off to clear)\n"
        "  \\dedup on|off  toggle projection de-duplication\n"
        "  \\quit          exit\n"
        "queries end with ';'"
    )


def cmd_repl(args, stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    snap = _open_snapshot(args.store)
    if snap is None:
        return EXIT_STORE_ERROR
    session = Session.from_snapshot(snap, seed=args.seed, dedup=args.dedup, fmt=args.format)
    buffer = ""
    interactive = stdin is sys.stdin and sys.stdin.isatty()

    def emit(line: str) -> None:
        print(line, file=stdout)

    def run(query: str) -> None:
        try:
            result, ty, card = session.run_query(query)
            emit(session.render(result, ty, card, pretty=True))
        except QueryError as exc:
            emit(f"error: {exc}")

    while True:
        if interactive:
            print("grql> " if not buffer else "....> ", end="", flush=True)
        line = stdin.readline()
        if not line:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            parts = stripped.split(None, 1)
            cmd, rest = parts[0], parts[1] if len(parts) > 1 else ""
            if cmd == "\\quit":
                return EXIT_OK
            if cmd == "\\help":
                emit(_repl_help())
            elif cmd == "\\schema":
                emit(session.schema_text.rstrip("\n"))
            elif cmd == "\\type":
                try:
                    _, ty, card = typed_query(session.schema, _strip_query(rest))
                    emit(f"{ty} # {card}")
                except QueryError as exc:
                    emit(f"error: {exc}")
            elif cmd == "\\save":
                try:
                    _write_snapshot(args.store,
                                    save_snapshot(session.schema_text, session.store,
                                                  session.next_id))
                except OSError as exc:
                    emit(f"error: {exc}")
                else:
                    emit(f"saved {args.store}")
            elif cmd == "\\seed":
                if rest.strip().lower() in ("off", ""):
                    session.seed = None
                    emit("seed off")
                else:
                    try:
                        session.seed = int(rest)
                        emit(f"seed {session.seed}")
                    except ValueError:
                        emit("error: \\seed takes an integer or 'off'")
            elif cmd == "\\dedup":
                session.dedup = rest.strip().lower() == "on"
                emit(f"dedup {'on' if session.dedup else 'off'}")
            else:
                emit(f"unknown command {cmd}; \\help lists commands")
            continue

        buffer += line
        while (end := _query_end(buffer)) >= 0:
            query, buffer = buffer[:end], buffer[end + 1:]
            if _holds_code(query):
                run(query)
        if not buffer.strip():
            buffer = ""
    # end of input ends a pending query too
    if _holds_code(buffer):
        run(buffer)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    # checked before any worker process exists
    max_workers = os.cpu_count() or 1
    if args.cases < 0:
        print(f"error: --cases must be at least 0, got {args.cases}", file=sys.stderr)
        return EXIT_STORE_ERROR
    if not 1 <= args.workers <= max_workers:
        print(f"error: --workers must be between 1 and {max_workers}, got {args.workers}",
              file=sys.stderr)
        return EXIT_STORE_ERROR
    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                ce = harness.replay_counterexample(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_STORE_ERROR
        if ce is None:
            print("replay: no failure reproduced")
            return EXIT_OK
        print(f"replay: {ce.property_name}: {ce.witness}", file=sys.stderr)
        print(core.to_text(ce.instance.expr), file=sys.stderr)
        return EXIT_QUERY_ERROR

    failures, coverage = harness.run_fuzz(args.cases, args.seed, workers=args.workers)
    total = sum(coverage.values())
    print(f"{args.cases} cases, {total} expression nodes, "
          f"{len(failures)} counter-example(s)")
    if not failures:
        return EXIT_OK
    for ce in failures:
        shrunk = harness.shrink(ce)
        path = f"counterexample-{shrunk.instance.config.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(harness.counterexample_to_json(shrunk))
        print(f"{shrunk.property_name}: {shrunk.witness} -> {path}", file=sys.stderr)
    return EXIT_QUERY_ERROR


def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser; raises ValueError when GRQL_SEED is set to
    something other than an integer."""
    env_seed = _env_seed()
    p = argparse.ArgumentParser(prog="grql",
                                description="graph-relational query calculus tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=env_seed,
                        help="permutation seed (default: GRQL_SEED or canonical order)")
        sp.add_argument("--format", choices=("json", "debug"), default="json")
        sp.add_argument("--dedup", action="store_true",
                        help="de-duplicate object projections (diverges from the formal semantics)")

    run = sub.add_parser("run", help="evaluate one query against a snapshot")
    run.add_argument("store", help="path to a .grdb.json snapshot")
    run.add_argument("query")
    run.add_argument("--commit", action="store_true", help="write the resulting store back")
    common(run)
    run.set_defaults(fn=cmd_run)

    repl = sub.add_parser("repl", help="interactive session")
    repl.add_argument("store")
    common(repl)
    repl.set_defaults(fn=cmd_repl)

    check = sub.add_parser("check", help="validate a snapshot or schema file")
    check.add_argument("path")
    check.add_argument("--query", help="also type-check a query and print its type # cardinality")
    check.set_defaults(fn=cmd_check)

    fuzz = sub.add_parser("fuzz", help="run the metatheory property suite")
    fuzz.add_argument("--cases", type=int, default=1000)
    fuzz.add_argument("--seed", type=int, default=1 if env_seed is None else env_seed)
    fuzz.add_argument("--workers", type=int, default=1)
    fuzz.add_argument("--replay", help="re-run a stored counterexample file")
    fuzz.set_defaults(fn=cmd_fuzz)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_arg_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    args = parser.parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed at start-up: a result would go nowhere
        print("error: cannot write to stdout: file descriptor 1 is closed", file=sys.stderr)
        return EXIT_STORE_ERROR
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a stdout whose reader has gone fails here, not at exit
    except BrokenPipeError as exc:
        # send what is still buffered, and the flush at exit, to the null device
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
