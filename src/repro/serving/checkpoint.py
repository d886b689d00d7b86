"""Versioned on-disk checkpoints for trained schema routers.

A checkpoint is a directory:

* ``manifest.json`` -- format version, the :class:`RouterConfig`, both
  vocabularies, the catalog (databases, tables, columns, foreign keys), the
  schema graph's joinable edges, and a SHA-256 checksum of the weight archive;
* ``weights.npz`` -- the :class:`Seq2SeqModel` state dict.

The manifest is pure JSON and the weights are lossless float64 arrays, so a
router loaded in a fresh process produces bit-identical routes to the router
that was saved.  This is the first cross-process artifact of the repo: a
serving fleet boots from a checkpoint instead of re-training per process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.graph import SchemaGraph
from repro.core.router import RouterConfig, SchemaRouter
from repro.nn.seq2seq import Seq2SeqConfig, Seq2SeqModel
from repro.nn.tokenizer import Vocabulary
from repro.schema.catalog import Catalog
from repro.schema.column import Column, ColumnType
from repro.schema.database import Database
from repro.schema.table import ForeignKey, Table

#: Bump when the on-disk layout changes incompatibly.
CHECKPOINT_FORMAT = "repro-router-checkpoint"
CHECKPOINT_VERSION = 1

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.npz"
#: The manifest key of a retired sliced-vocabulary shard router.  Its scores
#: are normalised over a slice of the master vocabulary, so it is refused
#: rather than served next to master-vocabulary shards.
RETIRED_SLICE_KEY = "vocabulary_slice"


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is missing, corrupt, or incompatible."""


# -- catalog <-> payload -------------------------------------------------------
def catalog_to_payload(catalog: Catalog) -> dict:
    return {
        "name": catalog.name,
        "databases": [
            {
                "name": database.name,
                "domain": database.domain,
                "comment": database.comment,
                "tables": [
                    {
                        "name": table.name,
                        "comment": table.comment,
                        "synonyms": list(table.synonyms),
                        "columns": [
                            {
                                "name": column.name,
                                "type": column.column_type.value,
                                "primary_key": column.is_primary_key,
                                "comment": column.comment,
                                "synonyms": list(column.synonyms),
                            }
                            for column in table.columns
                        ],
                    }
                    for table in database.tables
                ],
                "foreign_keys": [
                    {
                        "source_table": fk.source_table,
                        "source_column": fk.source_column,
                        "target_table": fk.target_table,
                        "target_column": fk.target_column,
                    }
                    for fk in database.foreign_keys
                ],
            }
            for database in catalog
        ],
    }


def catalog_from_payload(payload: dict) -> Catalog:
    databases = []
    for db_payload in payload["databases"]:
        tables = [
            Table(
                name=table_payload["name"],
                comment=table_payload.get("comment", ""),
                synonyms=tuple(table_payload.get("synonyms", ())),
                columns=[
                    Column(
                        name=column_payload["name"],
                        column_type=ColumnType(column_payload["type"]),
                        is_primary_key=column_payload.get("primary_key", False),
                        comment=column_payload.get("comment", ""),
                        synonyms=tuple(column_payload.get("synonyms", ())),
                    )
                    for column_payload in table_payload["columns"]
                ],
            )
            for table_payload in db_payload["tables"]
        ]
        foreign_keys = [ForeignKey(**fk_payload) for fk_payload in db_payload["foreign_keys"]]
        databases.append(Database(
            name=db_payload["name"],
            tables=tables,
            foreign_keys=foreign_keys,
            domain=db_payload.get("domain", ""),
            comment=db_payload.get("comment", ""),
        ))
    return Catalog(name=payload["name"], databases=databases)


# -- save / load ---------------------------------------------------------------
def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_router(router: SchemaRouter, path: str | Path) -> Path:
    """Write ``router`` (which must be trained) to a checkpoint directory."""
    if not router.is_trained:
        raise CheckpointError("cannot checkpoint an untrained router")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    weights_path = router.model.save_state_npz(path / WEIGHTS_FILE)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "router_config": asdict(router.config),
        "source_vocabulary": router.source_vocabulary.to_payload(),
        "target_vocabulary": router.target_vocabulary.to_payload(),
        "catalog": catalog_to_payload(router.graph.catalog),
        "joinable_edges": [list(edge) for edge in router.graph.joinable_edges()],
        "training_losses": list(router.training_losses),
        "weights": {
            "file": WEIGHTS_FILE,
            "sha256": _sha256_of(weights_path),
            "num_parameters": router.num_parameters(),
        },
    }
    manifest_path = path / MANIFEST_FILE
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_manifest(path: str | Path) -> dict:
    """Read and validate the manifest of a checkpoint directory."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointError(f"no {MANIFEST_FILE} in {Path(path)!s}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt manifest in {Path(path)!s}: {error}") from error
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a router checkpoint: {manifest.get('format')!r}")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest.get('version')!r}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    if RETIRED_SLICE_KEY in manifest:
        raise CheckpointError(
            f"{Path(path)!s} is a retired sliced-vocabulary shard router "
            f"({RETIRED_SLICE_KEY!r}); re-save its cluster from the master "
            f"router")
    return manifest


def _checked_weights(path: Path, entry: dict) -> Path:
    """The weight archive a manifest ``entry`` names, once it passes its
    checksum."""
    archive_path = path / entry["file"]
    if not archive_path.is_file():
        raise CheckpointError(f"missing weight archive {archive_path!s}")
    recorded = entry.get("sha256")
    if recorded and _sha256_of(archive_path) != recorded:
        raise CheckpointError(f"weight archive {archive_path!s} fails its checksum")
    return archive_path


def _router_config(manifest: dict) -> RouterConfig:
    """The manifest's :class:`RouterConfig`, as this build decodes it.

    ``decode_backend="fast"`` (a retired flat-GEMM tier) loads as the default
    ``"vectorized"``: same search, exact numerics.  An unknown key or a bad
    value is a :class:`CheckpointError`, like every other manifest defect."""
    payload = dict(manifest["router_config"])
    if payload.get("decode_backend") == "fast":
        payload["decode_backend"] = "vectorized"
    try:
        return RouterConfig(**payload)
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"manifest router_config is invalid: {error}") from error


def load_router(path: str | Path) -> SchemaRouter:
    """Rebuild a trained :class:`SchemaRouter` from a checkpoint directory.

    The model is built from the weight archive's arrays
    (:meth:`Seq2SeqModel.from_state_dict`): loading never seeds or draws the
    training init."""
    path = Path(path)
    manifest = load_manifest(path)
    weights_path = _checked_weights(path, manifest["weights"])

    config = _router_config(manifest)
    catalog = catalog_from_payload(manifest["catalog"])
    graph = SchemaGraph.from_components(
        catalog, [tuple(edge) for edge in manifest["joinable_edges"]])
    source_vocabulary = Vocabulary.from_payload(manifest["source_vocabulary"])
    target_vocabulary = Vocabulary.from_payload(manifest["target_vocabulary"])
    model_config = Seq2SeqConfig(
        source_vocab_size=len(source_vocabulary),
        target_vocab_size=len(target_vocabulary),
        embedding_dim=config.embedding_dim,
        hidden_dim=config.hidden_dim,
        seed=config.seed,
    )
    try:
        with np.load(weights_path) as archive:
            model = Seq2SeqModel.from_state_dict(
                model_config, {name: archive[name] for name in archive.files})
    except ValueError as error:
        raise CheckpointError(f"weight archive does not match the model: {error}") from error

    router = SchemaRouter(graph=graph, config=config)
    router.restore(model, source_vocabulary, target_vocabulary,
                   training_losses=manifest.get("training_losses"))
    return router

