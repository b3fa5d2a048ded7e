"""The shared route–scan–merge plan of the embedding entries
(``queries._embedding_plan``): ``knn_all`` and the full-probe ``ann_ivf``
equal their DuckDB twins on seeded generated corpora — duplicated
vectors whose rounded-sim ties cross shard and supercell boundaries,
clustered and tiny ones, one with fewer rows than shards — and the
fixed knn rule routes every query to each shard exactly once."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

# (seed, rows, dim, shape)
CORPORA = [
    (0, 3, 4, "random"),  # fewer rows than shards
    (1, 7, 3, "duplicated"),
    (2, 1, 5, "random"),
    (3, 40, 8, "duplicated"),
    (4, 64, 4, "clustered"),
    (5, 97, 16, "random"),
    (6, 120, 6, "duplicated"),
    (7, 150, 8, "clustered"),
    (8, 33, 2, "random"),
    (9, 200, 12, "duplicated"),
    (10, 90, 5, "clustered"),
    (11, 16, 4, "duplicated"),
]


def _corpus(seed: int, n: int, d: int, shape: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "clustered":
        centres = rng.normal(size=(4, d))
        x = centres[rng.integers(0, 4, n)] + 0.05 * rng.normal(size=(n, d))
    else:
        x = rng.normal(size=(n, d))
    if shape == "duplicated":
        # copies of a few vectors (some rescaled: same direction) at ids
        # of every residue, so equal rounded sims span shards and cells
        src = rng.integers(0, max(1, n // 5), n)
        dup = rng.random(n) < 0.5
        x[dup] = x[src[dup]] * rng.choice([1.0, 2.0], dup.sum())[:, None]
    return x.astype(np.float32)


def _write(tmp_path, seed, n, d, shape) -> str:
    x = _corpus(seed, n, d, shape)
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(x), pa.list_(pa.float32())),
        }
    )
    sf = tmp_path / f"c{seed}"
    sf.mkdir()
    pq.write_table(emb, sf / "embeddings.parquet", row_group_size=max(1, n // 3))
    return str(sf)


@pytest.mark.parametrize("seed,n,d,shape", CORPORA)
def test_knn_and_ann_match_oracle_on_generated_corpora(
    ray_session, tmp_path, seed, n, d, shape
):
    import duckdb

    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    sf = _write(tmp_path, seed, n, d, shape)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{sf}/embeddings.parquet')"
    )
    for name in ("knn_all", "ann_ivf"):
        got = to_pandas(QUERIES[name](sf))
        want = con.execute(ORACLE_SQL[name]).df()
        if want.empty and got.empty and got.columns.empty:
            continue  # Ray's to_pandas drops zero-row blocks' columns
        assert compare(name, got, want) == "OK", name


@pytest.mark.parametrize("seed,n,d,shape", CORPORA[:4])
def test_knn_route_meets_every_shard_once(ray_session, tmp_path, seed, n, d, shape):
    from eristropy_ray.pipelines.queries import (
        _KNN_SHARDS,
        _embedding_plan,
        _knn_assign,
    )

    sf = _write(tmp_path, seed, n, d, shape)

    def meets(tbl: pa.Table) -> pa.Table:
        return pa.table({"qid": tbl["rid"], "group": tbl["group"]})

    def keep(tbl: pa.Table) -> pa.Table:
        return tbl

    got = _embedding_plan(sf, _knn_assign, "qid", meets, keep).to_pandas()
    assert sorted(got["qid"].unique()) == list(range(n))
    for qid, groups in got.groupby("qid")["group"]:
        assert sorted(groups) == list(range(_KNN_SHARDS)), qid
