"""The command-line surface: run, check, repl, fuzz; exit codes and file
hygiene."""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grql import cli
from grql.cli import main
from grql.store_io import load_snapshot, seed_snapshot_text

RUNNING_QUERY = ("select Movie { title, year, directors: { name, age }, "
                 "actors: { name, @character }};")


@pytest.fixture()
def store_file(tmp_path):
    path = tmp_path / "movies.grdb.json"
    path.write_text(seed_snapshot_text(), encoding="utf-8")
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_running_example(store_file, capsys):
    assert main(["run", str(store_file), RUNNING_QUERY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list) and len(doc) == 3
    tr = next(m for m in doc if m["title"] == "Transistors")
    assert list(tr) == ["title", "year", "directors", "actors"]
    assert tr["year"] == 2007
    assert tr["directors"] == [{"name": "Michael Cove", "age": 60}]
    assert tr["actors"] == [
        {"name": "Megan Wolf", "@character": "Meg Tech"},
        {"name": "Shy Andbuff", "@character": "Sam Man"},
    ]


DEEP_JSON = '{"v": 1, "entities": ' + "[" * 100_000  # too deep for json.loads


@pytest.mark.parametrize("command", ["run", "check"])
def test_deeply_nested_snapshot_is_a_diagnostic(tmp_path, capsys, command):
    path = tmp_path / "deep.grdb.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    argv = [command, str(path)] + (["count(Movie)"] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("BadSnapshot - not valid JSON: ")


def test_fuzz_replay_of_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "counterexample-1.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["fuzz", "--replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: not valid JSON: ")


def test_run_count(store_file, capsys):
    assert main(["run", str(store_file), "count(Movie)"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_run_debug_format(store_file, capsys):
    assert main(["run", str(store_file), "--format", "debug", "{3,4}"]) == 0
    assert capsys.readouterr().out.strip() == "[3, 4]"


def test_run_without_commit_leaves_file_untouched(store_file, capsys):
    before = sha(store_file)
    assert main(["run", str(store_file),
                 'insert Person { name := "T", age := 1, born := <str>{} }']) == 0
    assert sha(store_file) == before


def test_run_with_commit_persists(store_file, capsys):
    assert main(["run", str(store_file), "--commit",
                 'insert Person { name := "T", age := 1, born := <str>{} }']) == 0
    assert capsys.readouterr().out.strip() == '{"id":"12"}'
    doc = json.loads(store_file.read_text())
    assert any(e["id"] == "12" for e in doc["entities"])
    assert doc["nextId"] == 13


def test_failed_snapshot_write_keeps_the_old_bytes(store_file, monkeypatch):
    before = store_file.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._write_snapshot(str(store_file), seed_snapshot_text().replace("Transistors", "X"))
    assert store_file.read_bytes() == before
    assert sorted(p.name for p in store_file.parent.iterdir()) == [
        "movies.grdb.json", "movies.grdb.json.lock"]


def test_snapshot_write_replaces_the_file_and_keeps_its_mode(store_file):
    store_file.chmod(0o640)
    cli._write_snapshot(str(store_file), "new text\n")
    assert store_file.read_text(encoding="utf-8") == "new text\n"
    assert store_file.stat().st_mode & 0o777 == 0o640


def test_a_commit_that_cannot_write_is_a_store_error(store_file, capsys):
    # a directory where the temporary snapshot goes makes the write fail
    (store_file.parent / (store_file.name + ".tmp")).mkdir()
    before = store_file.read_bytes()
    assert main(["run", str(store_file), "--commit",
                 'insert Person { name := "T", age := 1, born := <str>{} }']) == 2
    out, err = capsys.readouterr()
    assert out == '{"id":"12"}\n'
    assert err.startswith("error: [Errno 21] Is a directory") and "Traceback" not in err
    assert store_file.read_bytes() == before


def test_a_save_that_cannot_write_keeps_the_repl_running(store_file):
    from grql.cli import cmd_repl

    (store_file.parent / (store_file.name + ".tmp")).mkdir()
    before = store_file.read_bytes()
    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    script = '\\save\n1 + 1;\n\\quit\n'
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("error: [Errno 21] Is a directory") and lines[1:] == ["2"]
    assert store_file.read_bytes() == before


def _run_with_stdout_closed(argv):
    """`python -m grql` with a stdout pipe whose reader has already gone, and
    block-buffered, so a small result fails only when it is flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "grql", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)


def _assert_closed_stdout_is_one_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("query, commit", [
    ("count(Person)", False),
    ('insert Person { name := "T", age := 1, born := <str>{} }', True),
])
def test_a_small_result_to_a_closed_stdout_is_one_error(store_file, query, commit):
    before = store_file.read_bytes()
    proc = _run_with_stdout_closed(["run", str(store_file), query] + ["--commit"] * commit)
    _assert_closed_stdout_is_one_error(proc)
    assert store_file.read_bytes() == before


@pytest.mark.parametrize("query, commit", [
    ("Person { name, age, born }", False),
    ("(update Person set { age := .age + 1 }) { name, age, born }", True),
])
def test_a_large_result_to_a_closed_stdout_is_one_error(tmp_path, monkeypatch, query, commit):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    gen = importlib.import_module("gen")
    path = tmp_path / "n300.grdb.json"
    path.write_text(gen.generate(1, 300)[0].snapshot_text(), encoding="utf-8")
    before = path.read_bytes()
    proc = _run_with_stdout_closed(["run", str(path), query] + ["--commit"] * commit)
    _assert_closed_stdout_is_one_error(proc)
    assert path.read_bytes() == before


def test_a_run_started_without_fd_1_exits_2_and_commits_nothing(store_file):
    # Python sets sys.stdout to None, and print would write nothing
    before = store_file.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "grql", "run", str(store_file),
                           'insert Person { name := "Zed", age := 3, born := <str>{} }', "--commit"],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                          env=env)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write to stdout: file descriptor 1 is closed\n")
    assert store_file.read_bytes() == before


def test_run_insert_output_is_id_object(store_file, capsys):
    assert main(["run", str(store_file),
                 'insert Movie { directors := (insert Person { name := "Paul Shiver",'
                 ' age := 37, born := "Earth" }), title := "Frozen Planet",'
                 ' year := 2011, actors := <Person>{} }']) == 0
    assert capsys.readouterr().out.strip() == '{"id":"13"}'


def test_exit_codes(store_file, tmp_path, capsys):
    assert main(["run", str(store_file), "select Movie {"]) == 1       # parse error
    assert main(["run", str(store_file), "Movie.rating"]) == 1         # type error
    broken = tmp_path / "broken.grdb.json"
    broken.write_text("{}", encoding="utf-8")
    assert main(["run", str(broken), "Movie"]) == 2                    # store error
    assert main(["run", str(tmp_path / "absent.grdb.json"), "Movie"]) == 2
    capsys.readouterr()


def test_malformed_snapshot_shape_exits_2_with_a_diagnostic(store_file, capsys):
    doc = json.loads(store_file.read_text())
    doc["entities"][0]["fields"] = [1]
    store_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(store_file), "count(Movie)"]) == 2
    assert capsys.readouterr().err == "BadSnapshot #1 fields must be an object\n"


def test_empty_field_name_exits_2_with_a_diagnostic(store_file, capsys):
    doc = json.loads(store_file.read_text())
    doc["entities"][0]["fields"][""] = [1]
    store_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(store_file), "count(Movie)"]) == 2
    assert capsys.readouterr().err == "ExtraLabel #1. label not declared in schema\n"


def test_seed_flag_changes_order_but_not_multiset(store_file, capsys):
    main(["run", str(store_file), "Movie.title"])
    base = json.loads(capsys.readouterr().out)
    main(["run", str(store_file), "--seed", "5", "Movie.title"])
    seeded = json.loads(capsys.readouterr().out)
    assert sorted(base) == sorted(seeded)


def test_dedup_flag(store_file, capsys):
    main(["run", str(store_file), "Movie.directors"])
    assert len(json.loads(capsys.readouterr().out)) == 3
    main(["run", str(store_file), "--dedup", "Movie.directors"])
    assert len(json.loads(capsys.readouterr().out)) == 2


def test_check_ok_and_failures(store_file, tmp_path, capsys):
    assert main(["check", str(store_file)]) == 0
    assert capsys.readouterr().err == ""

    doc = json.loads(store_file.read_text())
    doc["entities"][7]["fields"]["actors"] = [{"ref": "99"}]
    bad = tmp_path / "bad.grdb.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "DanglingRef" in capsys.readouterr().err

    schema_file = tmp_path / "schema.gel"
    schema_file.write_text("type Movie { directors: Director; };", encoding="utf-8")
    assert main(["check", str(schema_file)]) == 2
    assert "UndefinedTypeName" in capsys.readouterr().err

    good_schema = tmp_path / "good.gel"
    good_schema.write_text("type Person { name: str; };", encoding="utf-8")
    assert main(["check", str(good_schema)]) == 0


DUPLICATE_TYPE_SCHEMA = ("type T { a: str; };\n"
                         "type U { b: T; };\n"
                         "type T { x: int; x: str; };\n")
DUPLICATE_PROP_SCHEMA = ("type U { n: str; };\n"
                         "type T { l: U { p: str; p: int; q: int; }; };\n")


def test_check_duplicate_type_drops_the_whole_second_body(tmp_path, capsys):
    path = tmp_path / "dup.gel"
    path.write_text(DUPLICATE_TYPE_SCHEMA, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    # the second `type T` is dropped whole: its repeated `x` is not reported
    assert capsys.readouterr().err == "DuplicateTypeName T type declared more than once\n"


def test_check_duplicate_link_property(tmp_path, capsys):
    path = tmp_path / "dup.gel"
    path.write_text(DUPLICATE_PROP_SCHEMA, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "DuplicateLabel T.l.@p link property declared more than once\n")


def test_check_schema_diagnostics_in_source_order(tmp_path, capsys):
    path = tmp_path / "dup.gel"
    path.write_text("type T { x: str; x: int64; };\n"
                    "type T { y: str; y: str; };\n"
                    "type V { l: Nope { p: str; p: str; }; l: str; };\n", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "DuplicateLabel T.x label declared more than once",
        "DuplicateTypeName T type declared more than once",
        "DuplicateLabel V.l.@p link property declared more than once",
        "DuplicateLabel V.l label declared more than once",
        "UndefinedTypeName V.l link target 'Nope' is not declared",
    ]


def test_check_bare_schema_parse_error_is_the_snapshot_diagnostic(tmp_path, capsys):
    schema = "type T { x: ; };"
    bare = tmp_path / "bad.gel"
    bare.write_text(schema, encoding="utf-8")
    snap = tmp_path / "bad.grdb.json"
    snap.write_text(json.dumps({"v": 1, "schema": schema, "entities": []}), encoding="utf-8")
    assert main(["check", str(snap)]) == 2
    in_snapshot = capsys.readouterr().err
    assert main(["check", str(bare)]) == 2
    err = capsys.readouterr().err
    assert err == in_snapshot and err.startswith("SchemaParseError - ")
    assert len(err.splitlines()) == 1


def test_check_query_prints_type(store_file, capsys):
    assert main(["check", str(store_file), "--query", "Movie.directors"]) == 0
    assert capsys.readouterr().out.strip() == "Person { } # [0, inf]"
    assert main(["check", str(store_file), "--query", "Movie.rating"]) == 1
    assert capsys.readouterr().err == "error: NoSuchLabel at 0..12: Movie has no label rating\n"


def test_repl_session(store_file, capsys):
    script = (
        "\\type Movie.directors\n"
        "{2,3,4};\n"
        "\\dedup on\n"
        "Movie.directors;\n"
        "\\seed 7\n"
        "insert Person { name := \"R\", age := 9, born := <str>{} };\n"
        "count(Person);\n"
        "\\quit\n"
    )
    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    from grql.cli import cmd_repl

    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    text = out.getvalue()
    assert "Person { } # [0, inf]" in text
    assert "[\n  2,\n  3,\n  4\n]" in text
    # dedup on: two directors
    assert text.count('"id": "11"') == 1
    # mutations apply to the session store immediately (8 people now)
    assert "\n8\n" in text
    # but are not persisted without \save
    assert store_file.read_text() == seed_snapshot_text()


def test_repl_save_persists(store_file):
    from grql.cli import cmd_repl

    script = 'insert Person { name := "S", age := 1, born := <str>{} };\n\\save\n\\quit\n'
    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    doc = json.loads(store_file.read_text())
    assert any(e["fields"].get("name") == ["S"] for e in doc["entities"])


def test_repl_two_queries_on_one_line(store_file):
    from grql.cli import cmd_repl

    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO("1; 2;\n\\quit\n"), stdout=out) == 0
    assert out.getvalue() == "1\n2\n"


def test_repl_ends_a_query_only_at_a_semicolon_outside_strings_and_comments(store_file):
    from grql.cli import cmd_repl

    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    script = '"a;b";\n"q\\";";\n1 # not here; nor here\n+ 1;\n\\quit\n'
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    assert out.getvalue() == '"a;b"\n"q\\";"\n2\n'


@pytest.mark.parametrize("script, output", [
    ("1 + 1\n", "2\n"),  # the last query needs no `;`
    ("1;\n2 # no `;` here\n", "1\n2\n"),
    ("1;\n  # only a comment\n\n", "1\n"),  # a blank tail is no query
])
def test_repl_runs_a_query_pending_at_end_of_input(store_file, script, output):
    from grql.cli import cmd_repl

    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    assert out.getvalue() == output


@pytest.mark.parametrize("script, output", [
    ("# just a note\n;\n1;\n", "1\n"),
    ("1; # a note\n  # and another\n; 2;\n", "1\n2\n"),
])
def test_repl_skips_a_query_of_only_comments(store_file, script, output):
    from grql.cli import cmd_repl

    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    assert out.getvalue() == output


@pytest.mark.parametrize("enabled", [True, False])
def test_snapshot_load_turns_the_gc_off_and_restores_it(monkeypatch, capsys, enabled):
    import gc

    during = []

    def load(text):
        during.append(gc.isenabled())
        return load_snapshot(text)

    monkeypatch.setattr(cli, "load_snapshot", load)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli._load_text(seed_snapshot_text()) is not None
        assert gc.isenabled() is enabled
        assert cli._load_text("{") is None  # a SnapshotError
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
    assert capsys.readouterr().err.startswith("BadSnapshot")


def test_repl_reports_each_load_diagnostic_on_its_own_line(store_file, tmp_path, capsys):
    from grql.cli import cmd_repl

    doc = json.loads(store_file.read_text())
    doc["entities"][0]["fields"]["age"] = [{"bad": 1}]
    doc["entities"][1]["fields"]["age"] = [{"bad": 2}]
    bad = tmp_path / "bad.grdb.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    args = type("A", (), {"store": str(bad), "seed": None, "dedup": False,
                          "format": "json"})()
    assert cmd_repl(args, stdin=io.StringIO("\\quit\n"), stdout=io.StringIO()) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("BadCell #") for line in lines)


def test_repl_error_keeps_session_alive(store_file):
    from grql.cli import cmd_repl

    script = "Movie.rating;\ncount(Movie);\n\\quit\n"
    args = type("A", (), {"store": str(store_file), "seed": None, "dedup": False,
                          "format": "json"})()
    out = io.StringIO()
    assert cmd_repl(args, stdin=io.StringIO(script), stdout=out) == 0
    text = out.getvalue()
    assert "NoSuchLabel" in text and "\n3\n" in text


def test_fuzz_subcommand(capsys):
    assert main(["fuzz", "--cases", "50", "--seed", "3"]) == 0
    assert "0 counter-example(s)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--workers", "0"],
    ["--workers", "-1"],
    ["--workers", str((os.cpu_count() or 1) + 1)],
    ["--cases", "-1"],
])
def test_fuzz_rejects_out_of_range_counts(monkeypatch, capsys, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("run_fuzz reached")

    # a missing bound fails here instead of starting worker processes
    monkeypatch.setattr(cli.harness, "run_fuzz", no_run)
    assert main(["fuzz", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fuzz_writes_shrunk_counterexamples_that_replay(tmp_path, monkeypatch, capsys):
    from grql import core
    from grql.evaluator import Evaluator
    from grql.harness import GenConfig, gen_instance

    run = Evaluator.run

    def union_drops_element(self, env, store, e):
        result, store = run(self, env, store, e)
        if isinstance(e, core.Union) and result:
            result = result[:-1]
        return result, store

    monkeypatch.setattr(Evaluator, "run", union_drops_element)
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "--cases", "30", "--seed", "1"]) == 1
    capsys.readouterr()
    files = sorted(tmp_path.glob("counterexample-*.json"))
    assert files
    shrunk_any = False
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        unshrunk = core.to_text(gen_instance(GenConfig(seed=doc["seed"], **doc["config"])).expr)
        assert len(doc["expr"]) <= len(unshrunk)
        shrunk_any |= len(doc["expr"]) < len(unshrunk)
        # replay regenerates from the seed and shrinks to the same instance
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == doc["expr"]
    assert shrunk_any


@pytest.mark.parametrize("text", [
    None,                                     # the file does not exist
    "not json",
    '{"seed": 1, "eval_seeds": [1, 2, 3]}',   # no config
    '{"seed": 1, "config": {"max_types": 0}, "eval_seeds": [1]}',
    '{"seed": 1, "config": {"bogus": 1}, "eval_seeds": [1]}',
    '{"seed": 1, "config": {}, "eval_seeds": []}',
])
def test_fuzz_replay_of_a_bad_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "counterexample-1.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["fuzz", "--replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_console_entry_point(store_file):
    proc = subprocess.run(
        [sys.executable, "-m", "grql", "run", str(store_file), "count(Person)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_env_seed_default(store_file, capsys, monkeypatch):
    monkeypatch.setenv("GRQL_SEED", "11")
    main(["run", str(store_file), "Movie.title"])
    with_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("GRQL_SEED")
    main(["run", str(store_file), "Movie.title"])
    canonical = json.loads(capsys.readouterr().out)
    assert sorted(with_env) == sorted(canonical)


def test_env_seed_zero_is_the_fuzz_master_seed(monkeypatch, capsys):
    seeds = []

    def no_run(cases, seed, workers):
        seeds.append(seed)
        return [], {}

    monkeypatch.setattr(cli.harness, "run_fuzz", no_run)
    monkeypatch.setenv("GRQL_SEED", "0")
    assert main(["fuzz", "--cases", "1"]) == 0
    monkeypatch.setenv("GRQL_SEED", "")  # empty is unset
    assert main(["fuzz", "--cases", "1"]) == 0
    monkeypatch.delenv("GRQL_SEED")
    assert main(["fuzz", "--cases", "1"]) == 0
    assert seeds == [0, 1, 1]


@pytest.mark.parametrize("command", ["run", "fuzz"])
def test_non_integer_env_seed_exits_2(store_file, monkeypatch, capsys, command):
    monkeypatch.setenv("GRQL_SEED", "seven")
    argv = ["run", str(store_file), "1"] if command == "run" else ["fuzz", "--cases", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GRQL_SEED must be an integer, got 'seven'\n"


def test_session_read_only_query_keeps_the_store():
    from grql.cli import Session
    from grql.store_io import load_seed

    session = Session.from_snapshot(load_seed())
    tuples = session.store.tuples
    session.run_query("select Movie { title, n := count(.actors) }")
    assert session.store.tuples is tuples
    assert session.store.locked == frozenset()


def test_session_clears_edit_marks_between_queries():
    from grql.cli import Session
    from grql.model import IntVal, olabel
    from grql.store_io import load_seed

    session = Session.from_snapshot(load_seed())
    (new,), _, _ = session.run_query('insert Person { name := "N", age := 1, born := <str>{} }')
    # the insert marked the new tuple; the next query may update it
    result, _, _ = session.run_query('update Person filter .name = "N" set { age := 2 }')
    assert [w.id for w in result] == [new.id]
    assert session.store.tuples[new.id].record[olabel("age")] == [IntVal(2)]


def _eq_chain(d):
    k = (d - 1) // 2
    return "select " * (d % 2 == 0) + "true = (" * k + "true" + ")" * k


_TRANSISTORS = '(Movie filter .title = "Transistors")'  # depth 4, one movie

# Each form, as a query nested exactly `d` levels deep.
NESTED_FORMS = {
    "parens": lambda d: "(" * (d - 1) + "1" + ")" * (d - 1),
    "set braces": lambda d: "{" * (d - 1) + "1" + "}" * (d - 1),
    "call": lambda d: "not(" * (d - 1) + "true" + ")" * (d - 1),
    "plus": lambda d: " + ".join(["1"] * d),
    "coalesce": lambda d: " ?? ".join(["1"] * d),
    "comparison": _eq_chain,
    "path and backlink": lambda d: _TRANSISTORS + "".join(
        ".directors" if i % 2 == 0 else ".<directors[is Movie]" for i in range(d - 4)),
    "shape": lambda d: "Movie" + " { title }" * (d - 1),
    "filter": lambda d: "Movie" + " filter true" * (d - 1),
    "order by": lambda d: "Movie" + " order by .year" * (d - 1),
}


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_nesting_bound(store_file, capsys, form):
    from grql.parser import MAX_DEPTH

    assert main(["run", str(store_file), NESTED_FORMS[form](MAX_DEPTH)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["run", str(store_file), NESTED_FORMS[form](MAX_DEPTH + 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: expression nested more than {MAX_DEPTH} levels deep")
    assert err.count("\n") == 1


@pytest.mark.parametrize("query", [
    "(" * 1000 + "1" + ")" * 1000,
    " + ".join(["1"] * 3000),
])
def test_deep_queries_are_parse_errors(store_file, capsys, query):
    assert main(["run", str(store_file), query]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested more than") and err.count("\n") == 1


def test_desugar_errors_point_at_the_source_span(store_file, capsys):
    assert main(["run", str(store_file), "foo(1)"]) == 1
    assert capsys.readouterr().err == "error: UnknownFunction at 0..6: unknown function 'foo'\n"


def test_right_nested_coalesce_stops_at_the_size_bound(store_file, capsys):
    import time

    query = "1 ?? (" * 20 + "1" + ")" * 20
    start = time.perf_counter()
    assert main(["run", str(store_file), query]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: QueryTooLarge: query lowers to more than")
    assert err.count("\n") == 1


@pytest.mark.parametrize("query, line", [
    ("9223372036854775807 + 1",
     "error: BuiltinDomain at 0..23: integer overflow: 9223372036854775808\n"),
    ('add(1, "a")', "error: NoSignature at 0..11: no signature for add(int, str)\n"),
    ('1 + "a"', "error: NoSignature at 0..7: no signature for add(int, str)\n"),
])
def test_runtime_and_signature_errors_point_at_the_source_span(store_file, capsys, query, line):
    assert main(["run", str(store_file), query]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line
