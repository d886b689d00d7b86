"""Benchmark collection builders.

Three collections mirror the paper's evaluation datasets (Table 2):

* :func:`build_spider_like` -- many cross-domain databases with a handful of
  tables each (Spider: 166 DBs / 876 tables in the adapted collection).
* :func:`build_bird_like` -- fewer databases but wider tables with noisy
  generic columns (BIRD: 80 DBs / 597 tables / 4337 columns).
* :func:`build_fiben_like` -- a single enterprise-style database with a large
  number of interconnected tables (Fiben: 1 DB / 152 tables), test-only.

Every builder is seeded and scale-configurable: the defaults target CPU-minute
experiments, and ``scale`` can be raised to approach the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.datasets.examples import BenchmarkDataset, Example
from repro.datasets.generator import DatabaseGenerator, GeneratedDatabase, GeneratorConfig
from repro.datasets.vocabulary import DOMAINS, DomainSpec
from repro.datasets.workload import WorkloadConfig, WorkloadGenerator
from repro.engine.instance import CatalogInstance
from repro.schema.catalog import Catalog
from repro.schema.database import Database
from repro.engine.instance import DatabaseInstance
from repro.utils.rng import SeededRng


@dataclass(frozen=True)
class CollectionConfig:
    """Configuration of one benchmark collection."""

    name: str = "spider_like"
    num_databases: int = 24
    rows_per_table: int = 30
    extra_columns: int = 0
    examples_per_database: int = 30
    #: Fraction of databases whose examples form the *test* split.  Following
    #: Spider, train and test databases are disjoint, which is what makes
    #: generative retrieval trained only on original data fail (Table 7, "OD").
    test_database_fraction: float = 0.35
    seed: int = 13

    def scaled(self, scale: float) -> "CollectionConfig":
        """Scale database and example counts by ``scale`` (>=1 grows)."""
        return replace(
            self,
            num_databases=max(1, int(round(self.num_databases * scale))),
            examples_per_database=max(4, int(round(self.examples_per_database * scale))),
        )


def spider_like_config(seed: int = 13) -> CollectionConfig:
    return CollectionConfig(name="spider_like", num_databases=30, rows_per_table=30,
                            extra_columns=0, examples_per_database=30, seed=seed)


def bird_like_config(seed: int = 17) -> CollectionConfig:
    return CollectionConfig(name="bird_like", num_databases=14, rows_per_table=40,
                            extra_columns=5, examples_per_database=36, seed=seed)


def fiben_like_config(seed: int = 19) -> CollectionConfig:
    return CollectionConfig(name="fiben_like", num_databases=1, rows_per_table=30,
                            extra_columns=1, examples_per_database=120,
                            test_database_fraction=1.0, seed=seed)


# -- generic builder ---------------------------------------------------------------

def build_collection(config: CollectionConfig) -> BenchmarkDataset:
    """Build a multi-database benchmark collection from ``config``."""
    rng = SeededRng(config.seed)
    generator_config = GeneratorConfig(rows_per_table=config.rows_per_table,
                                       extra_columns=config.extra_columns)
    workload_generator = WorkloadGenerator(
        config=WorkloadConfig(examples_per_database=config.examples_per_database),
        seed=config.seed + 1,
    )

    catalog = Catalog(name=config.name)
    generated_databases: list[tuple[GeneratedDatabase, DomainSpec]] = []
    domain_cycle = _domain_variants(config.num_databases, rng)
    for database_name, domain, variant in domain_cycle:
        variant_generator = DatabaseGenerator(
            config=replace(generator_config, pluralize_tables=(variant % 2 == 1),
                           attribute_dropout=0.15 if variant > 0 else 0.0),
            seed=config.seed + variant * 1000 + 7,
        )
        generated = variant_generator.generate(domain, name=database_name)
        catalog.add_database(generated.database)
        generated_databases.append((generated, domain))

    instances = CatalogInstance(
        catalog=catalog,
        instances={g.database.name: g.instance for g, _ in generated_databases},
    )

    # Workload per database, then split by database into train / test.
    examples_by_database: dict[str, list[Example]] = {}
    for generated, domain in generated_databases:
        examples_by_database[generated.database.name] = workload_generator.generate(generated, domain)

    database_names = rng.shuffled(catalog.database_names)
    num_test = max(1, int(round(len(database_names) * config.test_database_fraction)))
    test_databases = set(database_names[:num_test])

    train_examples: list[Example] = []
    test_examples: list[Example] = []
    for database_name, examples in examples_by_database.items():
        if database_name in test_databases:
            test_examples.extend(examples)
        else:
            train_examples.extend(examples)

    return BenchmarkDataset(
        name=config.name,
        catalog=catalog,
        instances=instances,
        train_examples=rng.shuffled(train_examples),
        test_examples=rng.shuffled(test_examples),
    )


def _domain_variants(num_databases: int, rng: SeededRng) -> list[tuple[str, DomainSpec, int]]:
    """Produce ``num_databases`` (name, domain, variant_index) triples."""
    ordered = rng.shuffled(DOMAINS)
    triples: list[tuple[str, DomainSpec, int]] = []
    variant = 0
    while len(triples) < num_databases:
        for domain in ordered:
            if len(triples) >= num_databases:
                break
            name = domain.name if variant == 0 else f"{domain.name}_{variant + 1}"
            triples.append((name, domain, variant))
        variant += 1
    return triples


# -- named builders --------------------------------------------------------------------

def build_spider_like(seed: int = 13, scale: float = 1.0) -> BenchmarkDataset:
    """Spider-style collection: many small cross-domain databases."""
    return build_collection(spider_like_config(seed).scaled(scale))


def build_bird_like(seed: int = 17, scale: float = 1.0) -> BenchmarkDataset:
    """BIRD-style collection: fewer databases with wide, noisy tables."""
    return build_collection(bird_like_config(seed).scaled(scale))


def build_fiben_like(seed: int = 19, scale: float = 1.0) -> BenchmarkDataset:
    """Fiben-style collection: one enterprise database with many tables.

    Multiple domains are packed into a single database with per-domain table
    prefixes, mimicking a financial data mart whose schema conforms to a large
    shared ontology.  Like the original Fiben benchmark it only has a test
    split.
    """
    config = fiben_like_config(seed).scaled(scale)
    rng = SeededRng(config.seed)
    generator_config = GeneratorConfig(rows_per_table=config.rows_per_table,
                                       extra_columns=config.extra_columns)
    database_generator = DatabaseGenerator(config=generator_config, seed=config.seed)

    # Prefer finance-flavoured domains first, then fill with the rest so the
    # single database reaches a large table count.
    preferred = ("banking_finance", "investment_funds", "macro_economy",
                 "insurance_claims", "retail_orders", "logistics_supply",
                 "real_estate", "charity_donations", "energy_grid", "research_grants")
    domains = [d for name in preferred for d in DOMAINS if d.name == name]
    domains += [d for d in DOMAINS if d not in domains][: max(0, 14 - len(domains))]

    merged = Database(name="fin_mart", domain="enterprise",
                      comment="enterprise financial data mart")
    per_domain: list[tuple[GeneratedDatabase, DomainSpec]] = []
    for index, domain in enumerate(domains):
        generated = database_generator.generate(domain, name=f"fin_mart_part_{index}",
                                                table_prefix=f"d{index}_")
        for table in generated.database.tables:
            merged.add_table(table)
        for foreign_key in generated.database.foreign_keys:
            merged.add_foreign_key(foreign_key)
        per_domain.append((generated, domain))

    merged_instance = DatabaseInstance(schema=merged, tables={
        table_name: list(rows)
        for generated, _ in per_domain
        for table_name, rows in generated.instance.tables.items()})

    catalog = Catalog(name=config.name, databases=[merged])
    instances = CatalogInstance(catalog=catalog, instances={merged.name: merged_instance})

    workload_generator = WorkloadGenerator(
        config=WorkloadConfig(examples_per_database=max(4, config.examples_per_database // max(len(domains), 1))),
        seed=config.seed + 1,
    )
    test_examples: list[Example] = []
    for generated, domain in per_domain:
        view = GeneratedDatabase(
            database=merged,
            instance=merged_instance,
            entity_tables=generated.entity_tables,
            primary_keys=generated.primary_keys,
        )
        test_examples.extend(workload_generator.generate(view, domain))

    return BenchmarkDataset(
        name=config.name,
        catalog=catalog,
        instances=instances,
        train_examples=[],
        test_examples=rng.shuffled(test_examples),
    )
