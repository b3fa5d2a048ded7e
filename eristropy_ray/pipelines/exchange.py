"""The aggregation layer of the query registry: keyed exchanges,
group-bys and whole-table folds.

``groupby(k).map_groups`` calls its UDF once per distinct key, which
costs Python overhead per group. Plans here instead hash the key into
``_NPARTS`` partitions and call the UDF once per partition, on whole
keys, vectorizing inside. This module owns that pattern:

- ``partition_of``: the one partition hash. Integer keys use the Knuth
  multiplicative hash in uint64 arithmetic; any other dtype (string
  signal ids, say) uses ``pd.util.hash_pandas_object``. The key's dtype
  picks the hash. Modulo a power of two the integer hash is a bijection
  of the key's low bits: sequential ids spread round-robin, but keys
  that share their low bits share a partition, so mix such keys first.
- ``exchange(ds, key, fn)``: adds ``part`` in a map that fuses with the
  upstream one, colocates each partition's rows, and calls ``fn`` once
  per partition on rows without ``part``. Every row of a key lands in
  one call, so ``fn`` must only combine rows of the same key.
- ``keyed_combine(ds, keys, aggs, finish)``: a group-by aggregate made
  of Arrow hash group-by partials per batch, one exchange on
  ``keys[0]``, and the same group-by over each partition's partials. A
  null key is one group, as in SQL ``GROUP BY``. Every merge is
  order-insensitive (int64 sums and counts, min and max), so the result
  does not depend on how rows were batched or partitioned. Float min
  and max skip NaN (numpy's would propagate it): a group whose values
  are all NaN gets the identity, +inf for min and -inf for max. With
  ``fold_by`` (below) it replaces Ray's ``groupby(keys).aggregate``:
  Ray's sort-based Aggregate has per-block fixed costs that dwarf small
  partial tables (2.8x on ``rollup_1h``).
- ``fold(ds, partial, combine)``: a whole-table reduce to one table,
  for mergeable summaries that have no key (Bloom bits, Misra-Gries
  counters): a partial per batch, one combine per task over its
  partials, then one final combine on the driver. ``fold_by`` is the
  group-by of a bounded key domain as such a fold: it skips the
  exchange, whose operators cost more than a small result saves.
- ``top_k(ds, sort_keys, k, schema)``: the first ``k`` rows in a sort
  order as a ``fold`` of heads, so no row moves between tasks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_NPARTS = 32  # exchange fan-out (2x CPU at test scale)
_KNUTH = np.uint64(2654435761)


def partition_of(key: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Partition id in ``[0, _NPARTS)`` per row of ``key`` (int64)."""
    if pa.types.is_integer(key.type):
        ids = pc.fill_null(key, 0).to_numpy(zero_copy_only=False)
        h = ids.astype(np.uint64) * _KNUTH
    else:
        h = pd.util.hash_pandas_object(key.to_pandas(), index=False).to_numpy()
    return (h % np.uint64(_NPARTS)).astype(np.int64)


def exchange(
    ds: rd.Dataset,
    key: str,
    fn: Callable,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """``fn`` once per hash partition of ``key``, on rows without ``part``."""

    def add_part(b: pa.Table) -> pa.Table:
        # blocks that pandas UDFs wrote carry b'pandas' schema metadata,
        # which makes the schema unhashable and costs the shuffle's
        # concat its schema-dedup fast path (see ``queries._read``)
        part = pa.array(partition_of(b[key]), pa.int64())
        return b.replace_schema_metadata(None).append_column("part", part)

    def run(batch):
        if batch_format == "pyarrow":
            return fn(batch.drop_columns(["part"]))
        return fn(batch.drop(columns=["part"]))

    run.__name__ = getattr(fn, "__name__", "exchange_fn")
    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(run, batch_format=batch_format)
    )


def segment_starts(*cols: np.ndarray) -> np.ndarray:
    """Start index of each run of equal rows in columns sorted together."""
    change = np.zeros(cols[0].size, dtype=bool)
    change[:1] = True
    for v in cols:
        change[1:] |= v[1:] != v[:-1]
    return np.flatnonzero(change)


def segment_rank(*cols: np.ndarray) -> np.ndarray:
    """Position of each row within its run (see ``segment_starts``)."""
    starts = segment_starts(*cols)
    n = cols[0].size
    return np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))


def segment_reduce(
    tbl: pa.Table, keys: list[str], aggs: dict[str, str], partial: bool
) -> pa.Table:
    """One row per distinct ``keys`` tuple, keys first, then ``aggs`` in
    order. ``aggs`` maps an output column to ``sum``, ``min`` or ``max``
    of the same-named input column, or to ``count``: the number of rows
    when ``partial``, else the sum of earlier counts. Each column keeps
    its input type, and a zero-row table gives a zero-row result of the
    same schema."""
    spec = [
        ([], "count_all") if op == "count" and partial
        else (name, "sum" if op == "count" else op)
        for name, op in aggs.items()
    ]
    # Arrow 16's grouper splits groups when a variable-width key precedes
    # a fixed-width one and either holds nulls: group fixed-width first
    by = sorted(keys, key=lambda k: not pa.types.is_primitive(tbl[k].type))
    out = tbl.group_by(by, use_threads=False).aggregate(spec)
    cols = {k: out[k] for k in keys}
    for name, (col, op) in zip(aggs, spec):
        if op == "count_all":
            cols[name] = out[op]
        else:
            cols[name] = out[f"{col}_{op}"].cast(tbl.schema.field(name).type)
    return pa.table(cols)


def keyed_combine(
    ds: rd.Dataset,
    keys: list[str],
    aggs: dict[str, str],
    finish: Callable[[pa.Table], pa.Table] | None = None,
) -> rd.Dataset:
    """Group-by aggregate of ``ds`` on ``keys`` (see ``segment_reduce``):
    a partial per batch, one exchange on ``keys[0]``, a merge per
    partition, then ``finish`` on each merged partition."""

    def partial(b: pa.Table) -> pa.Table:
        return segment_reduce(b, keys, aggs, partial=True)

    def keyed_merge(t: pa.Table) -> pa.Table:
        out = segment_reduce(t, keys, aggs, partial=False)
        return out if finish is None else finish(out)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return exchange(partials, keys[0], keyed_merge, "pyarrow")


def fold(
    ds: rd.Dataset,
    partial: Callable[[pa.Table], pa.Table],
    combine: Callable[[list[pa.Table]], pa.Table],
) -> pa.Table:
    """Whole-table reduce of ``ds`` to one table: ``partial`` per batch,
    ``combine`` over each task's partials, then one ``combine`` over
    those on the driver. ``combine`` merges a list of partial tables
    and must be order-insensitive; ``combine([])`` is its typed
    identity, which a zero-row ``ds`` folds to."""

    def task_combine(t: pa.Table) -> pa.Table:
        return combine([t])

    task_combine.__name__ = f"{getattr(combine, '__name__', 'fold')}_task"
    combined = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        task_combine, batch_format="pyarrow", batch_size=None
    )
    parts = combined.iter_batches(batch_size=None, batch_format="pyarrow")
    return combine(list(parts))


def fold_by(
    ds: rd.Dataset, keys: list[str], aggs: dict[str, str], schema: pa.Schema
) -> pa.Table:
    """Group-by of a bounded key domain (event types, languages, lengths)
    gathered to the driver: a ``fold`` of ``segment_reduce`` partials,
    with no exchange. ``schema`` is the result's (keys, then ``aggs``),
    which a zero-row ``ds`` gives empty."""

    def partial(b: pa.Table) -> pa.Table:
        return segment_reduce(b, keys, aggs, partial=True)

    def combine(parts: list[pa.Table]) -> pa.Table:
        if not parts:
            return schema.empty_table()
        return segment_reduce(pa.concat_tables(parts), keys, aggs, partial=False)

    return fold(ds, partial, combine)


def top_k(
    ds: rd.Dataset, sort_keys: list[tuple[str, str]], k: int, schema: pa.Schema
) -> pa.Table:
    """The first ``k`` rows of ``ds`` in Arrow ``sort_keys`` order (nulls
    last): a ``fold`` whose partial and combine keep the head of one
    ``sort_indices`` order. It equals a sort and limit of the whole
    table when the keys break every tie; ``schema`` types the result of
    a zero-row ``ds``."""

    def head(parts: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables(parts) if parts else schema.empty_table()
        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])

    return fold(ds, lambda b: head([b]), head)
