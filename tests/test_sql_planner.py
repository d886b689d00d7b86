"""The bind-then-run SQL executor against the interpreter it replaced.

Three kinds of test:

* **Differential.**  Every statement -- the fixture's gold and generated SQL,
  hand-built syntax trees the parser cannot produce, and a few thousand
  statements from a seeded grammar-driven generator -- is executed by
  ``repro.sql.SqlExecutor`` and by ``reference_sql_interpreter`` (the old
  executor, verbatim); columns, rows (values *and* their types, in order) or
  the exception class must be equal.
* **Counts.**  Spies pin the mechanism the speed-up comes from: a sub-query
  runs once per execution (never, when no outer row reaches it), a column
  reference is resolved once per statement, ORDER BY computes a key once per
  row.  No timings.
* **The lazy-error contract**, case by case, as documentation of what the
  differential tests enforce.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import pytest

from reference_sql_interpreter import ReferenceSqlExecutor
from repro.engine import DatabaseInstance
from repro.llm.sqlgen import HeuristicSqlGenerator
from repro.schema import Column, ColumnType, Database, Table
from repro.sql import SqlExecutionError, SqlExecutor, parse_sql
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    InSubquery,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
)


# -- the differential -----------------------------------------------------------
def outcome(executor, run) -> tuple:
    """What running a statement came to: typed rows, or the exception class."""
    try:
        result = run(executor)
    except Exception as error:  # the class is the contract, whatever it is
        return ("raised", type(error).__name__)
    # repr tells 1 from 1.0 from True, which == does not.
    return ("rows", list(result.columns), repr(list(result.rows)))


def differences(instance: DatabaseInstance, statements) -> list[str]:
    """Statements (SQL text or syntax trees) the two executors disagree on."""
    found = []
    for statement in statements:
        if isinstance(statement, str):
            def run(executor, sql=statement):
                return executor.execute_sql(sql)
        else:
            def run(executor, tree=statement):
                return executor.execute(tree)
        new = outcome(SqlExecutor(instance), run)
        old = outcome(ReferenceSqlExecutor(instance), run)
        if new != old:
            found.append(f"{statement}\n  executor:    {new}\n  interpreter: {old}")
    return found


# -- a database with every awkward value in it ------------------------------------
@pytest.fixture(scope="module")
def shop_instance() -> DatabaseInstance:
    database = Database(name="shop_db", tables=[
        Table("item", [
            Column("item_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name"),
            Column("price", ColumnType.REAL),
            Column("qty", ColumnType.INTEGER),
            Column("active", ColumnType.BOOLEAN),
            Column("shop_id", ColumnType.INTEGER),
        ]),
        Table("shop", [
            Column("shop_id", ColumnType.INTEGER, is_primary_key=True),
            Column("name"),
            Column("city"),
            Column("rating", ColumnType.REAL),
        ]),
        Table("sale", [
            Column("sale_id", ColumnType.INTEGER),
            Column("item_id", ColumnType.INTEGER),
            Column("shop_id", ColumnType.INTEGER),
            Column("amount", ColumnType.INTEGER),
            Column("note"),
        ]),
        Table("empty_log", [
            Column("log_id", ColumnType.INTEGER),
            Column("item_id", ColumnType.INTEGER),
            Column("message"),
        ]),
        Table("lonely", [Column("lonely_id", ColumnType.INTEGER), Column("name")]),
        Table("mixed", [Column("k", ColumnType.INTEGER), Column("v")]),
    ])
    instance = DatabaseInstance(schema=database)
    instance.insert_many("item", [
        (1, "Anvil", 9.5, 3, True, 1),
        (2, "anvil", 9.5, 3, False, 1),          # ties with 1 on price and qty
        (3, "Bolt_5%", 0.25, 100, True, 2),      # LIKE metacharacters in the data
        (4, "Crate", 20.0, None, None, 2),       # integral float, NULLs
        (5, None, None, 0, False, None),
        (6, "Drill", -4.75, -2, True, 3),
        (7, "Drill", 20.0, 7, True, 9),          # duplicate name, dangling shop
        (8, "eraser", 1.0, 1, False, 3),
    ])
    instance.insert_many("shop", [
        (1, "North", "Oslo", 4.5),
        (2, "South", "Rome", 4.5),
        (3, "Anvil", None, 2.0),                 # a shop named like an item
        (4, "West", "Oslo", None),
    ])
    instance.insert_many("sale", [
        (1, 1, 1, 5, "5"),                       # text that looks like a number
        (2, 1, 2, 5, "first"),
        (3, 3, 2, 12, None),
        (4, 7, 3, 0, "3"),
        (5, None, 1, 7, "void"),
        (6, 6, None, -1, "refund"),
        (7, 3, 1, 12, "12"),
    ])
    instance.insert("lonely", (1, "only"))
    # Values insert() would have coerced to text, stored as they are: one
    # column holding bools, ints, floats and strings.
    instance.tables["mixed"].extend([
        (1, 1), (2, 1.0), (3, True), (4, "1"), (5, "a"), (6, None),
        (7, 2.5), (8, 10), (9, "10"), (10, "9"), (11, False), (12, 0),
    ])
    return instance


# -- a seeded, grammar-driven statement generator -----------------------------------
@dataclass
class StatementConfig:
    """What the generated workload is made of (probabilities per statement)."""

    seed: int = 0
    join: float = 0.4
    second_join: float = 0.3
    where: float = 0.6
    aggregate: float = 0.35
    group_by: float = 0.6          # of aggregated statements
    having: float = 0.4            # of grouped statements
    order_by: float = 0.5
    second_order_key: float = 0.3
    limit: float = 0.3
    distinct: float = 0.15
    subquery: float = 0.3          # of comparisons
    alias: float = 0.5
    #: Share of tables / columns / qualifiers replaced by ones that do not
    #: exist (or, for columns, by ones that exist twice in the join).
    noise: float = 0.06
    database_qualifier: float = 0.1
    max_depth: int = 2


@dataclass
class StatementGenerator:
    """Random SELECT statements over one instance's schema, as SQL text."""

    instance: DatabaseInstance
    config: StatementConfig = field(default_factory=StatementConfig)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.config.seed)
        self.tables = self.instance.schema.tables

    def chance(self, probability: float) -> bool:
        return self.rng.random() < probability

    # -- FROM / JOIN ---------------------------------------------------------
    def source(self) -> tuple[str, list[tuple[str, Table]]]:
        """The FROM clause and the (binding, table) pairs it puts in scope."""
        rng, config = self.rng, self.config
        bound: list[tuple[str, Table]] = []
        clauses = []
        joins = int(self.chance(config.join)) and 1 + int(self.chance(config.second_join))
        for position in range(1 + joins):
            table = rng.choice(self.tables)
            name = "ghost_table" if self.chance(config.noise / 2) else table.name
            if position == 0 and self.chance(config.database_qualifier):
                name = rng.choice([self.instance.name, self.instance.name, "other_db"]) \
                    + "." + name
            binding = table.name
            if self.chance(config.alias):
                binding = f"t{position + 1}"
                name += rng.choice([" AS ", " "]) + rng.choice([binding, binding.upper()])
            if position == 0:
                clauses.append(f"FROM {name}")
            else:
                left_binding, left_table = rng.choice(bound)
                keys = [(self.ref(left_binding, left_column), self.ref(binding, right_column))
                        for left_column in left_table.columns
                        for right_column in table.columns
                        if left_column.name == right_column.name
                        and left_column.name.endswith("_id")]
                if keys:
                    pair = list(rng.choice(keys))
                else:
                    pair = [self.ref(left_binding, rng.choice(left_table.columns)),
                            self.ref(binding, rng.choice(table.columns))]
                rng.shuffle(pair)              # either ON order
                clauses.append(f"{rng.choice(['JOIN', 'INNER JOIN'])} {name} "
                               f"ON {pair[0]} = {pair[1]}")
            bound.append((binding, table))
        return " ".join(clauses), bound

    def ref(self, binding: str, column: Column) -> str:
        """A reference to ``column``: qualified, bare, or subtly wrong."""
        roll = self.rng.random()
        if roll < self.config.noise / 3:
            return f"{binding}.ghost_column"
        if roll < 2 * self.config.noise / 3:
            return f"ghost_binding.{column.name}"
        if roll < self.config.noise:
            return column.name.upper()
        return column.name if self.chance(0.35) else f"{binding}.{column.name}"

    def column(self, bound: list[tuple[str, Table]]) -> str:
        binding, table = self.rng.choice(bound)
        return self.ref(binding, self.rng.choice(table.columns))

    # -- expressions ---------------------------------------------------------------
    def literal(self) -> str:
        rng = self.rng
        return rng.choice([
            str(rng.randint(-2, 12)), str(rng.randint(0, 5)), f"{rng.choice([0.25, 1.0, 4.5, 9.5, 20.0])}",
            "'Anvil'", "'anvil'", "'Drill'", "'Oslo'", "'5'", "'12'", "'a'", "'1'", "''",
            "TRUE", "FALSE", "NULL",
        ])

    def aggregate(self, bound: list[tuple[str, Table]]) -> str:
        rng = self.rng
        name = rng.choice(["COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"])
        distinct = "DISTINCT " if self.chance(0.25) else ""
        if name == "COUNT" and self.chance(0.5):
            return f"COUNT({distinct}*)"
        return f"{name}({distinct}{self.column(bound)})"

    def subquery(self, depth: int, columns: int = 1) -> str:
        source, bound = self.source()
        if self.chance(0.4):
            items = [self.aggregate(bound) for _ in range(columns)]
        else:
            items = [self.column(bound) for _ in range(columns)]
        where = f" WHERE {self.condition(bound, depth + 1)}" if self.chance(0.4) else ""
        return f"(SELECT {', '.join(items)} {source}{where})"

    def comparison(self, bound: list[tuple[str, Table]], depth: int,
                   operand=None) -> str:
        rng, config = self.rng, self.config
        left = (operand or self.column)(bound) if self.chance(0.9) else self.literal()
        if depth < config.max_depth and self.chance(config.subquery):
            # One sub-query in twelve projects two columns: always an error.
            width = 2 if self.chance(1 / 12) else 1
            if self.chance(0.6):
                return f"{left} {rng.choice(['IN', 'NOT IN'])} {self.subquery(depth, width)}"
            return f"{left} {rng.choice(['=', '<', '>='])} {self.subquery(depth, width)}"
        if self.chance(0.15):
            pattern = rng.choice(["'A%'", "'%l'", "'_nvil'", "'%5\\%'", "'%'", "'dr%'", "'1_'",
                                  "'%.5'", "'Bolt_5%'", "'true'"])
            return f"{left} LIKE {pattern}"
        right = self.literal() if self.chance(0.7) else (operand or self.column)(bound)
        return f"{left} {rng.choice(['=', '!=', '<>', '<', '<=', '>', '>='])} {right}"

    def condition(self, bound: list[tuple[str, Table]], depth: int = 0,
                  operand=None) -> str:
        text = self.comparison(bound, depth, operand)
        while self.chance(0.35):
            other = self.comparison(bound, depth, operand)
            if self.chance(0.3):
                other = f"({other} {self.rng.choice(['AND', 'OR'])} " \
                        f"{self.comparison(bound, depth, operand)})"
            text = f"{text} {self.rng.choice(['AND', 'OR'])} {other}"
        return text

    # -- statements ------------------------------------------------------------------
    def statement(self) -> str:
        rng, config = self.rng, self.config
        source, bound = self.source()
        where = f"WHERE {self.condition(bound)}" if self.chance(config.where) else ""
        group = having = ""
        if self.chance(config.aggregate):
            keys = []
            if self.chance(config.group_by):
                keys = [self.column(bound) for _ in range(rng.choice([1, 1, 2]))]
                group = "GROUP BY " + ", ".join(keys)
                if self.chance(config.having):
                    having = "HAVING " + self.condition(bound, operand=self.aggregate)
            elif self.chance(0.1):
                having = "HAVING " + self.condition(bound, operand=self.aggregate)
            items = keys[:rng.randint(0, len(keys))] \
                + [self.aggregate(bound) for _ in range(rng.randint(1, 2))]
            if self.chance(0.1):
                items.append(self.column(bound))        # a column outside GROUP BY
            order_keys = items + [self.aggregate(bound)]
        else:
            items = [self.column(bound) for _ in range(rng.randint(1, 3))]
            if self.chance(0.05):
                items.append(rng.choice(["*", self.literal(), self.subquery(1)]))
            order_keys = [self.column(bound) for _ in range(2)] + items[:1]
        items = [f"{item} AS out{index}" if self.chance(0.15) else item
                 for index, item in enumerate(items)]
        order = ""
        if self.chance(config.order_by):
            chosen = [rng.choice(order_keys)]
            if self.chance(config.second_order_key):
                chosen.append(rng.choice(order_keys + ["ghost_column"]))
            order = "ORDER BY " + ", ".join(
                key + rng.choice(["", " ASC", " DESC"]) for key in chosen if key != "*")
            order = "" if order == "ORDER BY " else order
        limit = f"LIMIT {rng.randint(0, 5)}" if self.chance(config.limit) else ""
        distinct = "DISTINCT " if self.chance(config.distinct) else ""
        parts = [f"SELECT {distinct}{', '.join(items)}", source, where, group, having,
                 order, limit]
        return " ".join(part for part in parts if part)


GENERATED_SEEDS = range(8)
GENERATED_PER_SEED = 320


class TestDifferential:
    def test_fixture_gold_statements(self, spider_like):
        for database in spider_like.catalog:
            statements = sorted({example.sql for example
                                 in spider_like.train_examples + spider_like.test_examples
                                 if example.database == database.name})
            assert differences(spider_like.instances.instance(database.name),
                               statements) == []

    def test_fixture_generated_statements(self, spider_like, spider_like_test_examples):
        """What the simulated LLM writes for every test question (regular,
        ``syn`` and ``real`` variants), prompted with the gold tables and with
        the whole database -- right or wrong, it must execute the same."""
        generator = HeuristicSqlGenerator()
        statements: dict[str, set[str]] = {}
        for example in spider_like_test_examples:
            database = spider_like.catalog.database(example.database)
            for tables in (list(example.tables), database.table_names):
                statements.setdefault(example.database, set()).add(
                    generator.generate(example.question, database, tables))
        assert sum(map(len, statements.values())) >= 300
        for name, sqls in statements.items():
            assert differences(spider_like.instances.instance(name), sorted(sqls)) == []

    @pytest.mark.parametrize("seed", GENERATED_SEEDS)
    def test_generated_statements(self, shop_instance, seed):
        generator = StatementGenerator(shop_instance, StatementConfig(seed=seed))
        statements = [generator.statement() for _ in range(GENERATED_PER_SEED)]
        assert differences(shop_instance, statements) == []

    def test_generated_workload_is_not_degenerate(self, shop_instance):
        """The generator must reach both outcomes, and every clause, often."""
        assert len(GENERATED_SEEDS) * GENERATED_PER_SEED >= 2000
        generator = StatementGenerator(shop_instance, StatementConfig(seed=0))
        statements = [generator.statement() for _ in range(GENERATED_PER_SEED)]
        kinds = Counter(outcome(SqlExecutor(shop_instance),
                                lambda executor, sql=sql: executor.execute_sql(sql))[0]
                        for sql in statements)
        assert kinds["rows"] >= GENERATED_PER_SEED // 3
        assert kinds["raised"] >= GENERATED_PER_SEED // 10
        text = "\n".join(statements)
        for clause in ("JOIN", "WHERE", " AND ", " OR ", "LIKE", "GROUP BY", "HAVING",
                       "DISTINCT", "ORDER BY", "LIMIT", " IN (SELECT", "NOT IN (SELECT",
                       "= (SELECT", "COUNT(DISTINCT", "NULL", "ghost_table",
                       "ghost_column", "ghost_binding", "other_db."):
            assert text.count(clause) >= 3, clause

    def test_same_seed_same_workload(self, shop_instance):
        first = StatementGenerator(shop_instance, StatementConfig(seed=5))
        second = StatementGenerator(shop_instance, StatementConfig(seed=5))
        assert [first.statement() for _ in range(20)] == \
            [second.statement() for _ in range(20)]

    def test_trees_the_parser_cannot_produce(self, shop_instance):
        """Every node kind in every position, bound the way it was evaluated."""
        item = TableRef("item")
        qty, name = ColumnRef("qty"), ColumnRef("name", "item")
        ids = SelectStatement((SelectItem(ColumnRef("item_id")),), TableRef("sale"))
        two_columns = SelectStatement((SelectItem(ColumnRef("item_id")),
                                       SelectItem(ColumnRef("amount"))), TableRef("sale"))
        positive = BinaryOp(">", qty, Literal(0))
        in_sales = InSubquery(ColumnRef("item_id"), ids)
        count = FuncCall("count", Star())
        expressions = [
            positive, in_sales, InSubquery(qty, ids, negated=True),
            InSubquery(qty, two_columns), ScalarSubquery(ids), ScalarSubquery(two_columns),
            BinaryOp("and", positive, in_sales), BinaryOp("or", qty, name),
            BinaryOp("like", name, ColumnRef("name")), BinaryOp("like", name, Literal(None)),
            BinaryOp("like", qty, Literal(3)), BinaryOp("=", count, Literal(8)),
            BinaryOp("<", FuncCall("sum", qty), FuncCall("max", ColumnRef("price"))),
            Star(), Literal(None), Literal(2.0), count,
            FuncCall("sum", name), FuncCall("min", ColumnRef("ghost")),
            FuncCall("count", Star(), distinct=True), InSubquery(count, ids),
        ]
        statements = []
        for expression in expressions:
            select = (SelectItem(expression),)
            statements += [
                SelectStatement(select, item),
                SelectStatement(select, TableRef("empty_log")),
                SelectStatement(select, item, group_by=(qty,)),
                SelectStatement((SelectItem(name),), item, where=expression),
                SelectStatement((SelectItem(name),), item, group_by=(name,),
                                having=expression),
                SelectStatement((SelectItem(name),), item, having=expression),
                SelectStatement((SelectItem(name),), item,
                                order_by=(OrderItem(expression, True), OrderItem(name))),
                SelectStatement((SelectItem(count),), item, group_by=(qty,),
                                order_by=(OrderItem(expression),)),
            ]
        statements += [
            SelectStatement((SelectItem(name),), item, limit=-1),
            SelectStatement((SelectItem(name),), item, group_by=(ColumnRef("ghost"),)),
            SelectStatement((SelectItem(name),), TableRef("empty_log"),
                            group_by=(ColumnRef("ghost"),)),
        ]
        assert differences(shop_instance, statements) == []


# -- the mechanism, by counts ---------------------------------------------------------
@pytest.fixture
def executions(monkeypatch) -> list[SelectStatement]:
    """Every statement ``SqlExecutor.execute`` is entered with, in order."""
    seen: list[SelectStatement] = []
    original = SqlExecutor.execute

    def execute(self, statement):
        seen.append(statement)
        return original(self, statement)

    monkeypatch.setattr(SqlExecutor, "execute", execute)
    return seen


class TestSubqueriesRunOnce:
    IN_SALES = "SELECT name FROM item WHERE item_id IN (SELECT item_id FROM sale)"

    def test_in_subquery_runs_once_for_all_outer_rows(self, shop_instance, executions):
        result = SqlExecutor(shop_instance).execute_sql(self.IN_SALES)
        assert len(result) == 4
        # The statement, and its sub-query once -- not once per row of item (8).
        assert len(executions) == 2

    def test_scalar_subquery_runs_once(self, shop_instance, executions):
        SqlExecutor(shop_instance).execute_sql(
            "SELECT name FROM item WHERE price = (SELECT MAX(price) FROM item) "
            "OR qty = (SELECT MIN(qty) FROM item)")
        assert len(executions) == 3

    @pytest.mark.parametrize("sql, runs", [
        ("SELECT message FROM empty_log WHERE item_id IN (SELECT item_id FROM sale)", 0),
        # ... nor is it bound: its unknown table goes unnoticed.
        ("SELECT message FROM empty_log WHERE item_id IN (SELECT x FROM ghost_table)", 0),
        ("SELECT message FROM empty_log ORDER BY (SELECT x FROM ghost_table)", 0),
        ("SELECT name FROM lonely ORDER BY (SELECT x FROM ghost_table)", 0),
        # AND evaluates both sides, so a row the left side rejects still reaches it.
        ("SELECT name FROM item WHERE qty > 1000 AND item_id IN (SELECT item_id FROM sale)", 1),
    ])
    def test_subquery_no_row_reaches_never_runs(self, shop_instance, executions, sql, runs):
        SqlExecutor(shop_instance).execute_sql(sql)
        assert len(executions) == 1 + runs

    def test_nested_subqueries_each_run_once(self, shop_instance, executions):
        SqlExecutor(shop_instance).execute_sql(
            "SELECT name FROM shop WHERE shop_id IN (SELECT shop_id FROM item WHERE item_id IN "
            "(SELECT item_id FROM sale))")
        assert len(executions) == 3

    def test_nothing_is_kept_between_executions(self, shop_instance, executions):
        executor = SqlExecutor(shop_instance)
        statement = parse_sql(self.IN_SALES)
        first = executor.execute(statement)
        shop_instance.tables["sale"].append((8, 8, 1, 1, "late"))
        try:
            second = executor.execute(statement)
        finally:
            shop_instance.tables["sale"].pop()
        assert len(executions) == 4
        assert len(second) == len(first) + 1    # the new sale was seen: no result cache


class TestNamesBindOnce:
    @pytest.fixture
    def resolved(self, monkeypatch) -> list[ColumnRef]:
        seen: list[ColumnRef] = []
        original = SqlExecutor._resolve

        def resolve(self, columns, ref):
            seen.append(ref)
            return original(self, columns, ref)

        monkeypatch.setattr(SqlExecutor, "_resolve", resolve)
        return seen

    @pytest.mark.parametrize("sql, references", [
        ("SELECT name FROM item WHERE qty > 1 AND price < 50 ORDER BY price", 4),
        ("SELECT name, COUNT(*), MAX(price) FROM item GROUP BY name HAVING SUM(qty) > 0", 4),
        ("SELECT i.name FROM item AS i JOIN shop AS s ON i.shop_id = s.shop_id "
         "WHERE s.city = 'Oslo'", 2),           # join keys resolve in _join_indices
    ])
    def test_one_resolution_per_reference_however_many_rows(self, shop_instance, resolved,
                                                            sql, references):
        executor = SqlExecutor(shop_instance)
        rows = shop_instance.tables["item"]
        executor.execute_sql(sql)
        assert len(resolved) == references
        resolved.clear()
        rows.extend(rows[:] * 9)                 # ten times the rows ...
        try:
            executor.execute_sql(sql)
        finally:
            del rows[8:]
        assert len(resolved) == references       # ... the same number of resolutions


class TestOrderByKeysOncePerRow:
    @pytest.fixture
    def evaluations(self, shop_instance):
        """An executor whose bound row expressions count their own calls."""
        executor = SqlExecutor(shop_instance)
        calls: Counter = Counter()
        bind_row = executor._bind_row

        def counting_bind_row(expression, columns):
            bound = bind_row(expression, columns)

            def counted(row):
                calls[expression] += 1
                return bound(row)

            return counted

        executor._bind_row = counting_bind_row
        return executor, calls

    def test_first_key_once_per_row(self, evaluations):
        executor, calls = evaluations
        result = executor.execute_sql("SELECT name FROM item ORDER BY price DESC")
        assert len(result) == 8 and result.ordered
        assert calls[ColumnRef("price")] == 8    # not 2 per comparison
        assert calls[ColumnRef("name")] == 8

    def test_second_key_only_for_rows_that_tie(self, evaluations):
        executor, calls = evaluations
        executor.execute_sql("SELECT name FROM item ORDER BY item_id, qty")
        assert calls[ColumnRef("item_id")] == 8 and calls[ColumnRef("qty")] == 0
        calls.clear()
        executor.execute_sql("SELECT name FROM item ORDER BY price, qty")
        # 9.5 and 20.0 occur twice each; NULL and the other prices once.
        assert calls[ColumnRef("price")] == 8 and calls[ColumnRef("qty")] == 4

    def test_no_key_for_a_lone_row(self, evaluations):
        executor, calls = evaluations
        result = executor.execute_sql("SELECT name FROM lonely ORDER BY ghost_column")
        assert result.rows == [("only",)]
        assert not calls[ColumnRef("ghost_column")]


# -- errors surface when a row reaches them ---------------------------------------------
class TestLazyErrors:
    """The interpreter's error timing, kept: not pretty, but it decides which
    generated statements count as executed.  Each case is also covered by the
    differential tests above."""

    @pytest.mark.parametrize("sql", [
        "SELECT message FROM empty_log WHERE ghost_column = 1",
        "SELECT ghost_column FROM empty_log",
        "SELECT * FROM empty_log",
        "SELECT message FROM empty_log WHERE COUNT(*) > 1",
        "SELECT message FROM empty_log ORDER BY ghost_column",
        "SELECT name FROM lonely ORDER BY ghost_column",           # one row: no comparison
        "SELECT name FROM item ORDER BY item_id, ghost_column",    # no tie: never reached
        "SELECT log_id, COUNT(ghost_column) FROM empty_log GROUP BY log_id",  # no group
        "SELECT COUNT(*), ghost_column FROM empty_log",            # NULL, before the lookup
    ])
    def test_unreached_errors_do_not_raise(self, shop_instance, sql):
        SqlExecutor(shop_instance).execute_sql(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM item WHERE ghost_column = 1",
        "SELECT COUNT(ghost_column) FROM empty_log",     # an aggregate always has its group
        "SELECT message FROM empty_log GROUP BY ghost_column",     # GROUP BY binds eagerly
        "SELECT name FROM item ORDER BY ghost_column",
        "SELECT name FROM item ORDER BY price, ghost_column",      # ties on price
        "SELECT name FROM item WHERE qty > 1000 OR ghost_column = 1",
        "SELECT name FROM item WHERE qty > 1000 AND ghost_column = 1",      # no short circuit
        "SELECT name FROM ghost_table",
        "SELECT name FROM other_db.item",
        "SELECT item.name FROM item JOIN shop ON item.ghost_column = shop.shop_id",
        "SELECT name FROM item JOIN shop ON item.shop_id = shop.shop_id",   # ambiguous
        "SELECT name FROM item WHERE item_id IN (SELECT item_id, amount FROM sale)",
        "SELECT SUM(name) FROM item",
    ])
    def test_reached_errors_raise(self, shop_instance, sql):
        with pytest.raises(SqlExecutionError):
            SqlExecutor(shop_instance).execute_sql(sql)

    def test_a_wrong_qualifier_on_a_unique_name_still_resolves(self, shop_instance):
        result = SqlExecutor(shop_instance).execute_sql(
            "SELECT ghost_binding.city FROM shop WHERE ghost_binding.rating > 4")
        assert result.rows == [("Oslo",), ("Rome",)]


# -- the one behaviour that changed ------------------------------------------------------
class TestExactIntegerSum:
    @pytest.fixture
    def ledger(self) -> DatabaseInstance:
        database = Database(name="ledger", tables=[
            Table("entry", [Column("amount", ColumnType.INTEGER),
                            Column("fee", ColumnType.REAL),
                            Column("flag", ColumnType.BOOLEAN)])])
        instance = DatabaseInstance(schema=database)
        instance.insert_many("entry", [(2 ** 53, 0.5, True), (1, 0.25, True), (1, None, False)])
        return instance

    def test_sum_of_integers_beyond_2_to_53_is_exact(self, ledger):
        result = SqlExecutor(ledger).execute_sql("SELECT SUM(amount), AVG(amount) FROM entry")
        total, mean = result.rows[0]
        assert total == 2 ** 53 + 2 and isinstance(total, int)
        assert mean == (2 ** 53 + 2) / 3
        # The float accumulator this replaced lost both ones.
        old = ReferenceSqlExecutor(ledger).execute_sql("SELECT SUM(amount) FROM entry")
        assert old.rows[0][0] == 2 ** 53

    def test_floats_and_booleans_sum_as_before(self, ledger):
        result = SqlExecutor(ledger).execute_sql("SELECT SUM(fee), SUM(flag) FROM entry")
        assert result.rows == [(0.75, 2)]
        assert [type(value) for value in result.rows[0]] == [float, int]
