"""Robustness properties: malformed input ends in a diagnostic, never a crash."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from grql.cli import main
from grql.parser import _SYMBOLS, KEYWORDS
from grql.store_io import SnapshotError, load_snapshot, seed_snapshot_text

SEED_DOC = json.loads(seed_snapshot_text())

_json_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                 | st.floats(allow_nan=False) | st.text(max_size=8))
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=20,
)


def _paths(doc, path=()):
    """Every path to a value inside the seed snapshot document."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


SEED_PATHS = list(_paths(SEED_DOC))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return doc


def _loads_or_reports(text: str) -> None:
    try:
        load_snapshot(text)
    except SnapshotError as exc:
        assert exc.diagnostics


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SEED_PATHS), _json_values)
def test_any_json_value_in_a_snapshot_loads_or_reports(path, value):
    _loads_or_reports(json.dumps(_replace(SEED_DOC, path, value)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SEED_PATHS), st.integers(0, 3000), st.sampled_from("[{"))
def test_deeply_nested_json_loads_or_reports(path, depth, opener):
    # builds the text by hand: json.dumps itself stops short of these depths
    marker = "__deep__"
    shell = json.dumps(_replace(SEED_DOC, path, marker))
    if opener == "[":
        deep = "[" * depth + "1" + "]" * depth
    else:
        deep = '{"ref": ' * depth + "1" + "}" * depth
    _loads_or_reports(shell.replace(f'"{marker}"', deep))


_WORDS = sorted(KEYWORDS) + list(_SYMBOLS) + [
    "Movie", "Person", "title", "year", "directors", "actors", "name", "age",
    "born", "character", "x", "y", "count", "add", "eq", "lt", "coalesce",
    "any", "not", "append", "1", "0", "-3", '"a"', "9223372036854775807",
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_WORDS), max_size=16), st.sampled_from([[], ["--seed", "3"]]))
def test_token_soup_ends_in_an_exit_code(tmp_path, capsys, words, flags):
    path = tmp_path / "movies.grdb.json"
    path.write_text(seed_snapshot_text(), encoding="utf-8")
    code = main(["run", str(path), " ".join(words)] + flags)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code:
        assert captured.err.count("\n") == 1 and captured.out == ""
