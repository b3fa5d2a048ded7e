"""Registry-shape pins.

The correctness driver checks the first ~50 QUERIES entries per round,
so the registry order is a contract: every ORACLE_SQL-backed query must
precede every rows-only query (otherwise a hash-exact check silently
falls off the end of the driver's run, as happened to the seven
trailing join/streaming queries in round 3).
"""

from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES


def test_oracle_backed_queries_come_first():
    keys = list(QUERIES)
    flags = [k in ORACLE_SQL for k in keys]
    first_rows_only = flags.index(False)
    assert all(not f for f in flags[first_rows_only:]), [
        k for k, f in zip(keys[first_rows_only:], flags[first_rows_only:]) if f
    ]


def test_every_entry_takes_only_sf_dir():
    """Every caller runs an entry as ``fn(sf_dir)``, so an entry has one
    configuration: its values are module constants, and the SQL twin of
    an oracle entry is generated from the same constants."""
    import inspect

    extra = {
        name: list(inspect.signature(fn).parameters)
        for name, fn in QUERIES.items()
        if list(inspect.signature(fn).parameters) != ["sf_dir"]
    }
    assert not extra, extra


def test_every_oracle_has_a_query():
    missing = set(ORACLE_SQL) - set(QUERIES)
    assert not missing, missing


def test_queries_md_matches_generator():
    """QUERIES.md is generated from the registry docstrings; run
    ``python tools/gen_queries_md.py`` after editing one."""
    from tools.gen_queries_md import QUERIES_MD, queries_md

    assert QUERIES_MD.read_text() == queries_md()


def test_read_strips_pandas_metadata(ray_session):
    """_read must yield HASHABLE block schemas (no b'pandas' metadata —
    an unhashable schema defeats Ray's shuffle-concat schema dedup) with
    the requested columns in the requested order, and must not change
    any column type vs a plain read."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import _read

    path = "/root/testdata/sf0.001/events.parquet"
    assert pq.read_schema(path).metadata  # premise: testdata carries it
    ds = _read(path, columns=["value", "user_id"])
    batch = next(iter(ds.iter_batches(batch_format="pyarrow", batch_size=8)))
    assert batch.schema.metadata is None
    hash(batch.schema)  # must not raise
    assert batch.schema.names == ["value", "user_id"]
    plain = pq.read_schema(path)
    for name in batch.schema.names:
        assert batch.schema.field(name).type == plain.field(name).type


def test_registry_counts():
    # 50 hash-exact + 20 rows-only; update deliberately when adding ops.
    # 50 is a HARD ceiling for the oracle-backed prefix: the correctness
    # driver checks only the first 50 registry entries, so a 51st
    # oracle-backed query would go formally unverified.
    assert sum(k in ORACLE_SQL for k in QUERIES) == 50
    assert len(QUERIES) == 70


def test_quantile_interpolation_matches_duckdb():
    """The histogram-finish interpolation (convex combination
    lo*(1-f) + hi*f at h=(n-1)*q) is bit-identical to DuckDB's
    quantile_cont on integer value domains — the premise of
    doc_len_quantiles' hash-exact oracle."""
    import duckdb
    import numpy as np

    rng = np.random.default_rng(7)
    con = duckdb.connect()
    for _ in range(40):
        n = int(rng.integers(1, 300))
        vals = np.sort(rng.integers(0, 4000, size=n)).astype(np.float64)
        con.execute("DROP TABLE IF EXISTS t")
        con.execute("CREATE TABLE t(v BIGINT)")
        con.execute("INSERT INTO t SELECT unnest($1)", [[int(v) for v in vals]])
        qs = sorted(float(x) for x in rng.random(4))
        got = con.execute(
            "SELECT quantile_cont(v, $1::DOUBLE[]) FROM t", [qs]
        ).fetchone()[0]
        for q, g in zip(qs, got):
            h = (n - 1) * q
            i = int(np.floor(h))
            f = h - i
            lo, hi = vals[i], vals[min(i + 1, n - 1)]
            assert lo * (1 - f) + hi * f == g


def test_event_types_matches_duckdb(ray_session):
    """event_types lost its driver-oracle slot in the round-5 rotation
    (heavy_hitters took it; the 50-entry prefix is a hard ceiling), so
    its DuckDB twin lives here instead — same exactness contract, just
    checked by pytest rather than the harness."""
    import duckdb

    from eristropy_ray.pipelines.queries import q_event_types

    sf = "/root/testdata/sf0.001"
    got = (
        q_event_types(sf)
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    want = con.execute(
        f"""
        SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n
        FROM read_parquet('{sf}/events.parquet')
        GROUP BY event_type ORDER BY event_type
        """
    ).df()
    assert list(got["event_type"]) == list(want["event_type"])
    assert list(got["n"].astype("int64")) == list(want["n"].astype("int64"))


def test_registry_smoke_all_queries(ray_session):
    """Driver-contract smoke: EVERY registry entry runs at sf0.001 and
    yields a consumable result with a non-empty schema. This is the
    in-suite replica of the driver's queries() check — rows-only
    entries with no dedicated pytest get at least execution coverage."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from eristropy_ray.pipelines.queries import QUERIES

    sf = "/root/testdata/sf0.001"
    empty_allowed = set()  # every query yields rows on the test corpus
    for name, fn in QUERIES.items():
        out = fn(sf)
        if isinstance(out, rd.Dataset):
            # execute once: count() then schema() on the lazy plan would
            # run it twice, the second time under an early-stopped limit
            out = out.materialize()
            n = out.count()
            cols = out.schema().names
        elif isinstance(out, pa.Table):
            n, cols = out.num_rows, out.column_names
        else:
            assert isinstance(out, pd.DataFrame), name
            n, cols = len(out), list(out.columns)
        assert cols, f"{name}: empty schema"
        assert n > 0 or name in empty_allowed, f"{name}: zero rows"


def test_weighted_mix_matches_duckdb(ray_session):
    """weighted_mix is rows-only in the registry (50-slot prefix is
    full), so its exactness contract lives here: the DuckDB twin is
    GENERATED from the same rate dict + the langid SQL twin, checked on
    both test scales. Also pins that both configured rates actually
    fire (the kept set differs from any single-rate sample)."""
    import duckdb

    from eristropy_ray.pipelines.queries import (
        WEIGHTED_MIX_M,
        WEIGHTED_MIX_RATES,
        _weighted_mix_sql,
        q_weighted_mix,
    )

    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        got = (
            q_weighted_mix(sf)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        want = (
            con.execute(_weighted_mix_sql())
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == want["doc_id"].astype("int64").tolist()
        assert got["lang_pred"].tolist() == want["lang_pred"].tolist()
        # both rates fire: per-lang keep fraction tracks its own rate
        kept = got.groupby("lang_pred").size()
        for lang, rate in WEIGHTED_MIX_RATES.items():
            if lang in kept.index:
                thr = int(round(rate * WEIGHTED_MIX_M))
                assert (got.loc[got.lang_pred == lang, "doc_id"]
                        % WEIGHTED_MIX_M < thr).all()
