"""Seeded generator of scaled Person/Movie stores, and the oracle.

`generate(seed, n)` builds n persons and n/2 movies over the shipped schema:
every movie has one director and three actors, each actor link carrying
`@character`, and 30% of the persons have an empty `born`. Ages are dealt
round-robin over n // 30 values, so every age bucket holds 30 or 31 persons
whatever the seed.

The returned `Model` is plain Python data. It renders the snapshot text that
grql loads, and it computes the expected result of every benchmark query and
write on its own, never through grql. Each `*_op` method returns an `Op` whose
`expected` is the JSON value grql should print; write ops also apply the
write to the model, so a sequence of ops built in order carries the expected
store state along.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field

SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ber", "dan",
             "el", "fin", "gor", "hal", "is", "jul")
CITIES = ("Lyon", "Osaka", "Quito", "Perth", "Oslo", "Lagos", "Lima", "Pune",
          "Cork", "Bern", "Kiev", "Nice", "Riga", "Baku", "Doha", "Fez")
BORN_EMPTY_SHARE = 0.3
AGE_BUCKET = 30
FIRST_AGE = 20
YEARS = (1950, 2024)

SHAPE_QUERY = ("select Movie { title, year, directors: { name, age }, "
               "actors: { name, @character } }")


def quote(s: str) -> str:
    """A grql string literal (the grammar's escapes are JSON's)."""
    return json.dumps(s, ensure_ascii=False)


def set_literal(items: list[str]) -> str:
    return "{" + ", ".join(quote(s) for s in items) + "}"


@dataclass
class Person:
    id: str
    name: str
    age: int
    born: str | None


@dataclass
class Movie:
    id: str
    title: str
    year: int
    director: str
    actors: list[tuple[str, str]]  # (person id, @character)


@dataclass
class Op:
    """One benchmark operation: a query class, the query text and the JSON
    value grql must print. An op with a permutation `seed` need only match up
    to permutation; a `commit` op is run with `--commit` on the CLI path."""

    cls: str
    query: str
    expected: object
    seed: int | None = None
    commit: bool = False


@dataclass
class Model:
    schema_text: str
    persons: dict[str, Person] = field(default_factory=dict)
    movies: dict[str, Movie] = field(default_factory=dict)
    next_id: int = 1

    def copy(self) -> Model:
        return copy.deepcopy(self)

    # -- rendering ---------------------------------------------------------

    def snapshot_text(self) -> str:
        """The snapshot in the layout `save_snapshot` writes, so a store that
        went through grql unchanged saves back to these exact bytes."""
        entities = []
        for p in self.persons.values():
            entities.append({"id": p.id, "type": "Person", "fields": {
                "name": [p.name], "age": [p.age],
                "born": [] if p.born is None else [p.born]}})
        for m in self.movies.values():
            entities.append({"id": m.id, "type": "Movie", "fields": {
                "title": [m.title], "year": [m.year],
                "directors": [{"ref": m.director}],
                "actors": [{"ref": pid, "props": {"@character": [c]}}
                           for pid, c in m.actors]}})
        entities.sort(key=lambda ent: int(ent["id"]))
        doc = {"v": 1, "schema": self.schema_text, "nextId": self.next_id,
               "entities": entities}
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def ages(self) -> dict[str, int]:
        return {p.id: p.age for p in self.persons.values()}

    def _allocate(self) -> str:
        out = str(self.next_id)
        self.next_id += 1
        return out

    def _age_ids(self, age: int) -> list[str]:
        return [p.id for p in self.persons.values() if p.age == age]

    # -- reads ---------------------------------------------------------------

    def count_op(self, type_name: str) -> Op:
        size = len(self.persons if type_name == "Person" else self.movies)
        return Op("count", f"count({type_name})", size)

    def proj_op(self) -> Op:
        return Op("proj", "count(Movie.actors)",
                  sum(len(m.actors) for m in self.movies.values()))

    def filter_op(self, city: str) -> Op:
        return Op("filter", f"(Person filter .born = {quote(city)}).name",
                  [p.name for p in self.persons.values() if p.born == city])

    def order_op(self) -> Op:
        ordered = sorted(self.movies.values(), key=lambda m: (m.year, int(m.id)))
        return Op("order", "(Movie order by .year).title", [m.title for m in ordered])

    def shape_op(self) -> Op:
        p = self.persons
        return Op("shape", SHAPE_QUERY, [
            {"title": m.title, "year": m.year,
             "directors": [{"name": p[m.director].name, "age": p[m.director].age}],
             "actors": [{"name": p[pid].name, "@character": c} for pid, c in m.actors]}
            for m in self.movies.values()])

    def backlink_op(self, age: int) -> Op:
        query = (f"for p in (Person filter .age = {age}) union "
                 "p { films := p.<directors[is Movie] {title} }")
        return Op("backlink", query, [
            {"films": [{"title": m.title} for m in self.movies.values() if m.director == pid]}
            for pid in self._age_ids(age)])

    def inlist_op(self, age: int, names: list[str]) -> Op:
        wanted = set(names)
        query = (f"((Person filter .age = {age}) "
                 f"filter any(eq(.name, {set_literal(names)}))).name")
        return Op("inlist", query, [p.name for p in self.persons.values()
                                    if p.age == age and p.name in wanted])

    def age_names_op(self, age: int) -> Op:
        return Op("read_age", f"(Person filter .age = {age}).name",
                  [self.persons[i].name for i in self._age_ids(age)])

    def person_op(self, name: str) -> Op:
        return Op("read_person", f"(Person filter .name = {quote(name)}) {{ name, age, born }}",
                  [{"name": p.name, "age": p.age, "born": p.born}
                   for p in self.persons.values() if p.name == name])

    # -- writes (each applies itself to the model) ---------------------------

    def insert_op(self, name: str, age: int, born: str) -> Op:
        id = self._allocate()
        self.persons[id] = Person(id, name, age, born)
        query = f"insert Person {{ name := {quote(name)}, age := {age}, born := {quote(born)} }}"
        return Op("insert", query, {"id": id})

    def bulk_insert_op(self, names: list[str], age: int) -> Op:
        ids = []
        for name in names:
            id = self._allocate()
            self.persons[id] = Person(id, name, age, None)
            ids.append({"id": id})
        query = (f"for x in {set_literal(names)} union "
                 f"(insert Person {{ name := x, age := {age}, born := <str>{{}} }})")
        return Op("bulk_insert", query, ids)

    def update_name_op(self, name: str) -> Op:
        ids = [p.id for p in self.persons.values() if p.name == name]
        for i in ids:
            self.persons[i].age += 1
        return Op("update_one",
                  f"update (Person filter .name = {quote(name)}) set {{ age := .age + 1 }}",
                  [{"id": i} for i in ids])

    def update_age_op(self, age: int) -> Op:
        ids = self._age_ids(age)
        for i in ids:
            self.persons[i].age += 1
        return Op("update_lifted", f"update (Person filter .age = {age}) set {{ age := .age + 1 }}",
                  [{"id": i} for i in ids])


def shipped_schema_text() -> str:
    from grql.store_io import seed_snapshot_text

    return json.loads(seed_snapshot_text())["schema"]


class Names:
    """Unique, seeded names; `fresh` never repeats one it or the store used."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int) -> str:
        return "".join(self.rng.choice(SYLLABLES) for _ in range(syllables)).capitalize()

    def fresh(self, words: int = 2) -> str:
        while True:
            name = " ".join(self.word(self.rng.randint(2, 3)) for _ in range(words))
            if name not in self.used:
                self.used.add(name)
                return name


def age_values(n: int) -> list[int]:
    """The age values in use; bucket sizes differ by at most one."""
    return [FIRST_AGE + k for k in range(min(n, max(1, n // AGE_BUCKET)))]


def full_buckets(n: int) -> list[int]:
    """Ages held by exactly the smaller bucket size, so a query on any of
    them touches the same number of persons."""
    ages = age_values(n)
    extra = n % len(ages)
    return ages[extra:] if extra else ages


def generate(seed: int, n: int, schema_text: str | None = None) -> tuple[Model, Names, random.Random]:
    """The store for (seed, n), plus the name source and the generator stream,
    so query parameters drawn afterwards are seeded too."""
    rng = random.Random(seed)
    names = Names(rng)
    model = Model(schema_text if schema_text is not None else shipped_schema_text())
    ages = age_values(n)
    person_ages = [ages[i % len(ages)] for i in range(n)]
    rng.shuffle(person_ages)
    no_born = set(rng.sample(range(n), round(n * BORN_EMPTY_SHARE)))
    for i in range(n):
        id = model._allocate()
        born = None if i in no_born else rng.choice(CITIES)
        model.persons[id] = Person(id, names.fresh(), person_ages[i], born)
    person_ids = list(model.persons)
    for _ in range(n // 2):
        id = model._allocate()
        cast = rng.sample(person_ids, 3)
        model.movies[id] = Movie(id, "The " + names.fresh(), rng.randint(*YEARS),
                                 rng.choice(person_ids),
                                 [(pid, names.word(3)) for pid in cast])
    return model, names, rng
