"""The aggregation layer (``pipelines/exchange.py``): ``keyed_combine``
and ``fold_by`` equal a one-pass pandas group-by bit for bit however
rows are batched, null and string keys included, ``exchange`` hands each
key's rows to one call without ``part``, ``fold`` reduces to one table
or its identity, ``top_k`` equals one sort and head of the whole table,
and the registry entries built on them match their DuckDB twins on
degenerate tables (zero rows, one row, one user, one hot user); the
rows-only per-signal entries return typed results on the same tables and
on ~17-event users, and so do the bucketed near-dup and bounded-order
entries on empty ones; the integer-micro sums reject NaN and inf. The
co-partitioned join finishes in a fresh 1-CPU session, never matches a
null key and sends none to its exchange."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from eristropy_ray.pipelines.exchange import (
    _NPARTS,
    exchange,
    fold_by,
    keyed_combine,
    partition_of,
    segment_reduce,
    top_k,
)

KEYS = ["k1", "k2"]
AGGS = {"n": "count", "s": "sum", "lo": "min", "hi": "max"}


def _rows(rng, k1: pa.Array) -> pa.Table:
    n = len(k1)
    # nonzero values over nine decades: a float sum would be order-
    # sensitive here, min/max must not be (no signed zeros: min(0.0,
    # -0.0) returns whichever operand comes last)
    v = rng.choice([-1.0, 1.0], n) * rng.uniform(1, 2, n)
    v *= 10.0 ** rng.integers(-4, 5, n)
    return pa.table(
        {
            "k1": k1,
            "k2": pa.array(rng.integers(0, 3, n), pa.int64()),
            "s": pa.array(rng.integers(-(2**40), 2**40, n), pa.int64()),
            "lo": pa.array(v, pa.float64()),
            "hi": pa.array(v[::-1].copy(), pa.float64()),
        }
    )


def _reference(t: pa.Table) -> pd.DataFrame:
    """One pandas group-by over the whole table; a null key is one group,
    as in SQL."""
    g = t.to_pandas().groupby(KEYS, dropna=False)
    out = g.agg(
        n=("s", "size"), s=("s", "sum"), lo=("lo", "min"), hi=("hi", "max")
    ).reset_index()
    if out["k1"].dtype == object:  # pandas names the null string key NaN
        out["k1"] = out["k1"].where(out["k1"].notna(), None)
    return out


def _assert_bits(got: pd.DataFrame, want: pd.DataFrame) -> None:
    got = got.sort_values(KEYS).reset_index(drop=True)
    want = want.sort_values(KEYS).reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    for c in want.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        assert g.dtype == w.dtype, c
        if g.dtype.kind == "f":
            g, w = g.view(np.uint64), w.view(np.uint64)
        np.testing.assert_array_equal(g, w, err_msg=c)


def _batched(rng, t: pa.Table):
    import ray.data as rd

    cuts = np.sort(rng.choice(np.arange(1, t.num_rows), size=11, replace=False))
    bounds = np.r_[0, cuts, t.num_rows]
    return rd.from_arrow([t.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])])


CASES = ["many_keys", "single_key", "hot_key", "null_key", "string_key"]


@pytest.mark.parametrize("case", CASES)
def test_keyed_combine_matches_one_pass_reference(ray_session, case):
    rng = np.random.default_rng(CASES.index(case) + 1)
    n = 3000
    if case == "many_keys":
        k1 = rng.integers(-500, 500, n)
    elif case == "single_key":
        k1 = np.full(n, 7)
    elif case == "hot_key":
        k1 = np.where(rng.random(n) < 0.9, 11, rng.integers(0, 200, n))
    else:  # a tenth of the keys are null; string keys hash, not multiply
        k1 = rng.integers(0, 200, n).astype(object)
        if case == "string_key":
            k1 = np.array([f"sig-{k}" for k in k1], object)
        k1[rng.random(n) < 0.1] = None
    t = _rows(rng, pa.array(k1, pa.string() if case == "string_key" else pa.int64()))
    want = _reference(t)
    schema = pa.schema(
        [t.schema.field(k) for k in KEYS]
        + [(c, pa.int64()) for c in ("n", "s")]
        + [(c, pa.float64()) for c in ("lo", "hi")]
    )
    for _ in range(3):  # a different batching each pass
        got = keyed_combine(_batched(rng, t), KEYS, AGGS).to_pandas()
        _assert_bits(got, want)
        got = fold_by(_batched(rng, t), KEYS, AGGS, schema)
        assert got.schema == schema
        _assert_bits(got.to_pandas(), want)


def test_keyed_combine_zero_row_batch_and_finish(ray_session):
    """A zero-row batch reduces to a typed empty partial (Ray skips empty
    blocks, so the partial is called directly) that merges as a no-op;
    ``finish`` sees the merged keys and aggregates."""
    import ray.data as rd

    rng = np.random.default_rng(4)
    t = _rows(rng, pa.array(rng.integers(0, 40, 500)))
    empty = segment_reduce(t.slice(0, 0), KEYS, AGGS, partial=True)
    full = segment_reduce(t, KEYS, AGGS, partial=True)
    assert empty.num_rows == 0 and empty.schema == full.schema
    merged = segment_reduce(
        pa.concat_tables([empty, full.slice(0, 9), empty, full.slice(9)]),
        KEYS, AGGS, partial=False,
    )
    _assert_bits(merged.to_pandas(), _reference(t))

    def finish(m: pa.Table) -> pa.Table:
        return m.select(["k1", "k2", "n"]).append_column(
            "mean", pa.array(m["s"].to_numpy() / m["n"].to_numpy(), pa.float64())
        )

    got = keyed_combine(rd.from_arrow(t), KEYS, AGGS, finish).to_pandas()
    want = _reference(t)
    want = want[["k1", "k2", "n"]].assign(mean=want["s"] / want["n"])
    _assert_bits(got, want)


def test_segment_reduce_min_max_skip_nan():
    """Float min and max skip NaN (numpy's would propagate it); a group
    of only NaN gets the identity, +inf for min and -inf for max."""
    nan = np.nan
    t = pa.table(
        {
            "k": pa.array([1, 2, 1, 2, 1], pa.int64()),
            "lo": pa.array([nan, nan, 2.0, nan, -1.0]),
            "hi": pa.array([nan, nan, 2.0, nan, -1.0]),
        }
    )
    for partial in (True, False):
        out = segment_reduce(t, ["k"], {"lo": "min", "hi": "max"}, partial)
        got = dict(zip(out["k"].to_pylist(), zip(out["lo"].to_pylist(),
                                                 out["hi"].to_pylist())))
        assert got == {1: (-1.0, 2.0), 2: (np.inf, -np.inf)}


def test_fold_reduces_to_one_table_and_empty_to_identity(ray_session):
    """``fold`` gives one table however rows are batched, and a zero-row
    input gives ``combine([])``; ``fold_by`` gives its typed empty result."""
    import pyarrow.compute as pc
    import ray.data as rd

    from eristropy_ray.pipelines.exchange import fold

    def _total(col) -> int:
        return pc.sum(col).as_py() or 0

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({"n": [b.num_rows], "s": [_total(b["x"])]})

    def combine(parts: list[pa.Table]) -> pa.Table:
        n = sum(_total(t["n"]) for t in parts)
        return pa.table({"n": [n], "s": [sum(_total(t["s"]) for t in parts)]})

    rng = np.random.default_rng(6)
    t = pa.table({"x": pa.array(rng.integers(0, 1000, 5000), pa.int64())})
    got = fold(_batched(rng, t), partial, combine)
    assert got.to_pylist() == [{"n": 5000, "s": _total(t["x"])}]
    empty = rd.from_arrow(t.slice(0, 0))
    assert fold(empty, partial, combine).to_pylist() == [{"n": 0, "s": 0}]
    schema = pa.schema([("x", pa.int64()), ("n", pa.int64())])
    assert fold_by(empty, ["x"], {"n": "count"}, schema) == schema.empty_table()


TOP_K_CASES = ["ascending", "descending", "ties", "k_one", "k_over_rows"]


@pytest.mark.parametrize("case", TOP_K_CASES)
def test_top_k_matches_one_pass_sort(ray_session, case):
    """``top_k`` equals one pandas sort and head of the whole table
    however rows are batched, zero-row batches included: both key
    directions, ties on the first key broken by a string second key in
    the other direction, ``k = 1`` and ``k`` past the row count. A
    zero-row Dataset gives the typed empty table."""
    import ray.data as rd

    rng = np.random.default_rng(TOP_K_CASES.index(case) + 11)
    n = 2000
    a = rng.integers(0, 6, n) if case in ("ties", "k_one") else rng.permutation(n)
    t = pa.table(
        {
            "a": pa.array(a, pa.int64()),
            "b": pa.array([f"w{i:05d}" for i in rng.permutation(n)], pa.string()),
            "x": pa.array(rng.normal(size=n), pa.float64()),
        }
    )
    first = "ascending" if case == "ascending" else "descending"
    second = "descending" if case == "descending" else "ascending"
    order = [("a", first), ("b", second)]
    k = {"k_one": 1, "k_over_rows": n + 7}.get(case, 50)
    want = t.to_pandas().sort_values(
        ["a", "b"], ascending=[first == "ascending", second == "ascending"]
    ).head(k).reset_index(drop=True)
    for _ in range(3):  # a different batching each pass
        cuts = np.sort(rng.choice(np.arange(1, n), size=9, replace=False))
        bounds = np.r_[0, cuts, n]
        parts = [t.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
        parts.insert(int(rng.integers(0, len(parts))), t.slice(0, 0))
        got = top_k(rd.from_arrow(parts), order, k, t.schema)
        assert got.schema == t.schema
        pd.testing.assert_frame_equal(got.to_pandas(), want, check_exact=True)
    empty = rd.from_arrow(t.slice(0, 0))
    assert top_k(empty, order, k, t.schema) == t.schema.empty_table()


@pytest.mark.parametrize("kind", ["int", "str"])
def test_exchange_hands_whole_keys_without_part(ray_session, kind):
    import ray.data as rd

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 300, 4000)
    col = pa.array(keys, pa.int64()) if kind == "int" else pa.array(
        [f"sig-{k}" for k in keys], pa.string()
    )
    t = pa.table({"key": col, "x": pa.array(np.ones(keys.size, np.int64))})

    def per_call(df: pd.DataFrame) -> pd.DataFrame:
        assert list(df.columns) == ["key", "x"]
        return df.groupby("key", as_index=False)["x"].sum()

    out = exchange(_batched(rng, t), "key", per_call).to_pandas()
    # a key split over two calls would appear twice
    assert out["key"].is_unique
    want = pd.Series(col.to_pylist()).value_counts()
    assert dict(zip(out["key"], out["x"])) == want.to_dict()


def test_partition_of_integer_hash_is_knuth_uint64():
    ids = np.array([-3, 0, 1, 2**40, 2**63 - 1], np.int64)
    want = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(_NPARTS)
    np.testing.assert_array_equal(partition_of(pa.array(ids)), want.astype(np.int64))
    s = partition_of(pa.array(["a", "b", "a"]))
    assert s[0] == s[2] and s.dtype == np.int64


def _degenerate(src: Path, dst: Path, kind: str) -> str:
    import pyarrow.compute as pc

    dst.mkdir()
    for f in src.glob("*.parquet"):
        t = pq.read_table(f)
        if kind == "zero":
            t = t.slice(0, 0)
        elif kind == "one":
            t = t.slice(0, 1)
        elif f.name == "events.parquet" and kind in ("short", "hot_user"):
            i = np.arange(t.num_rows, dtype=np.int64)
            if kind == "short":
                user = i % 60
            else:  # nine events in ten go to the first row's user
                uid = t["user_id"].to_numpy()
                user = np.where(i % 10 != 0, uid[0], uid)
            t = t.set_column(
                t.schema.get_field_index("user_id"), "user_id",
                pa.array(user, t.schema.field("user_id").type),
            )
        elif f.name == "events.parquet" and kind == "one_user":
            t = t.filter(pc.equal(t["user_id"], t["user_id"][0]))
        elif f.name == "events.parquet" and kind == "non_finite":
            v = t["value"].to_numpy().copy()
            at = np.random.default_rng(21).choice(v.size, 6, replace=False)
            v[at[:3]], v[at[3:]] = np.nan, np.inf
            t = t.set_column(
                t.schema.get_field_index("value"), "value", pa.array(v)
            )
        pq.write_table(t, dst / f.name)
    return str(dst)


def _oracle_views(sf: str, tables: list[str] | None = None):
    import duckdb

    from tools.check_oracle import TABLES

    con = duckdb.connect()
    for t in tables or TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    return con


@pytest.mark.parametrize("kind", ["zero", "one", "one_user", "hot_user"])
def test_migrated_entries_match_oracle_on_degenerate_tables(
    ray_session, sf_tiny, tmp_path, kind
):
    """Every oracle entry equals its DuckDB twin on each degenerate table
    (the name predates the list's growth from the exchange entries)."""
    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    sf = _degenerate(Path(sf_tiny), tmp_path / kind, kind)
    con = _oracle_views(sf)
    bad = {}
    for name in ORACLE_SQL:  # every entry with a DuckDB twin
        got = to_pandas(QUERIES[name](sf))
        want = con.execute(ORACLE_SQL[name]).df()
        # Ray's to_pandas drops zero-row blocks, so an empty result
        # carries no columns to compare
        if want.empty and got.empty and got.columns.empty:
            continue
        verdict = compare(name, got, want)
        if verdict != "OK":
            bad[name] = verdict
    assert not bad, bad


@pytest.mark.parametrize(
    "name",
    ["rollup_1h", "rollup_1d", "zscore", "hopping_window", "streaming_window",
     "rolling_mean", "running_sum"],
)
def test_micro_sums_reject_non_finite_values(ray_session, sf_tiny, tmp_path, name):
    """NaN and +inf in ``events.value`` raise ``micros``' ValueError
    instead of summing as INT64_MIN, as a ``ValueError`` the caller can
    catch: ``queries._read`` asks its own context for the original
    exception, and the session's context is left as it was."""
    from ray.data import DataContext

    from eristropy_ray.pipelines.queries import QUERIES
    from tools.check_oracle import to_pandas

    assert not DataContext.get_current().raise_original_map_exception
    sf = _degenerate(Path(sf_tiny), tmp_path / "non_finite", "non_finite")
    with pytest.raises(ValueError, match="DECIMAL"):
        to_pandas(QUERIES[name](sf))
    assert not DataContext.get_current().raise_original_map_exception


_JOIN_IN_FRESH_SESSION = """
import sys, duckdb, ray
ray.init(address="local", num_cpus=1, object_store_memory=256 << 20,
         include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
from tools.check_oracle import compare, to_pandas
name, sf = "order_segments_join", sys.argv[1]
con = duckdb.connect()
for t in ("orders", "customer"):
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
want = con.execute(ORACLE_SQL[name]).df()
print("VERDICT", compare(name, to_pandas(QUERIES[name](sf)), want))
ray.shutdown()
"""


def test_order_segments_join_finishes_in_one_cpu_session(sf_tiny):
    """The join completes in a fresh 1-CPU session and equals its twin.
    The child owns that session in its own process group, which is
    killed whole on timeout (or after a clean exit), so no Ray process
    outlives the test."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-c", _JOIN_IN_FRESH_SESSION, sf_tiny],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root)},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert out is not None, "order_segments_join did not finish in 120 s on 1 CPU"
    assert "VERDICT OK" in out, out[-2000:]


def _null_join_keys(src: str, dst: Path, frac: float) -> str:
    """orders and customer with ``frac`` of each side's join key null."""
    rng = np.random.default_rng(23)
    for name, key in [("orders", "o_custkey"), ("customer", "c_custkey")]:
        t = pq.read_table(f"{src}/{name}.parquet")
        null = rng.random(t.num_rows) < frac
        i = t.schema.get_field_index(key)
        keys = pa.array(t[key].to_numpy(), t.schema.field(key).type, mask=null)
        pq.write_table(t.set_column(i, key, keys), dst / f"{name}.parquet")
    return str(dst)


def test_order_segments_join_never_matches_null_keys(ray_session, sf_tiny, tmp_path):
    """SQL inner-join nulls: 5 % of the orders' and of the customers'
    keys are null, and no null key joins (not even to a null key)."""
    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    name, sf = "order_segments_join", _null_join_keys(sf_tiny, tmp_path, 0.05)
    want = _oracle_views(sf, ["orders", "customer"]).execute(ORACLE_SQL[name]).df()
    assert 0 < len(want) < pq.read_metadata(f"{sf}/orders.parquet").num_rows
    assert compare(name, to_pandas(QUERIES[name](sf)), want) == "OK"


def test_order_segments_join_drops_null_keys_before_exchange(
    ray_session, sf_tiny, tmp_path, monkeypatch
):
    """A null key can never match, so its rows never reach the exchange:
    ``partition_of`` would send them all to key 0's partition (a hot
    partition at 20 % null keys). The rows with a key all do."""
    from eristropy_ray.pipelines import queries

    sent = []

    def spy(ds, key, fn, batch_format="pandas"):
        sent.append(ds)
        return exchange(ds, key, fn, batch_format)

    monkeypatch.setattr(queries, "exchange", spy)
    sf = _null_join_keys(sf_tiny, tmp_path, 0.2)
    queries.q_order_segments_join(sf)
    (tagged,) = sent
    keys = tagged.to_pandas()["key"]
    assert keys.notna().all()
    n_keyed = sum(
        pq.read_table(f"{sf}/{t}.parquet")[c].drop_null().length()
        for t, c in [("orders", "o_custkey"), ("customer", "c_custkey")]
    )
    assert len(keys) == n_keyed


# rows-only per-signal entries -> (columns, one row per signal with at
# least this many events)
SIGNAL_ENTRIES = {
    "sampen_per_signal": (["signal_id", "n_obs", "sampen", "permen"], 1),
    "adf_stationarity": (
        ["signal_id", "pvalue", "n_obs", "stationary", "pvalue_corrected"], 2
    ),
    "stationary_signals": (["signal_id", "ts_us", "value"], None),
    "sampen_optimized": (["signal_id", "sampen", "se_sampen"], 1),
    "sampen_efficiency": (["signal_id", "sampen", "se_sampen"], 1),
}


@pytest.mark.parametrize("kind", ["zero", "one", "one_user", "short", "hot_user"])
def test_signal_entries_are_typed_on_degenerate_tables(
    ray_session, sf_tiny, tmp_path, kind
):
    """No crash and a typed result: the entry's columns, NaN estimates for
    signals too short to have one. "short" gives every one of 60 users
    ~17 events, too few for any TPE trial of ``sampen_optimized``;
    "hot_user" gives one user nine events in ten."""
    import warnings

    from eristropy_ray.pipelines.entropy import OptimizationFailureWarning
    from eristropy_ray.pipelines.queries import QUERIES
    from tools.check_oracle import to_pandas

    sf = _degenerate(Path(sf_tiny), tmp_path / kind, kind)
    n_obs = pq.read_table(f"{sf}/events.parquet").to_pandas()["user_id"].value_counts()
    for name, (columns, min_obs) in SIGNAL_ENTRIES.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = to_pandas(QUERIES[name](sf))
        if min_obs is not None:
            assert len(got) == (n_obs >= min_obs).sum(), name
        # Ray's to_pandas drops zero-row blocks and their columns
        if not (got.empty and got.columns.empty):
            assert list(got.columns) == columns, name
        if name == "sampen_optimized" and kind not in ("one_user", "hot_user"):
            assert got[["sampen", "se_sampen"]].isna().all(axis=None), kind
        if name == "sampen_optimized" and kind == "short":
            assert any(w.category is OptimizationFailureWarning for w in caught)


@pytest.mark.parametrize("kind", ["zero", "one"])
def test_neardup_pairs_are_typed_on_degenerate_tables(
    ray_session, sf_tiny, tmp_path, kind
):
    """Zero or one document gives no pair, and the bucketed near-dup
    entries still return their typed columns."""
    from eristropy_ray.pipelines.queries import QUERIES

    sf = _degenerate(Path(sf_tiny), tmp_path / kind, kind)
    want = {
        "simhash_neardup": {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"},
        "minhash_neardup": {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"},
    }
    for name, dtypes in want.items():
        got = QUERIES[name](sf)
        assert len(got) == 0, name
        assert {c: str(t) for c, t in got.dtypes.items()} == dtypes, name


def test_bounded_order_entries_are_typed_on_zero_rows(ray_session, sf_tiny, tmp_path):
    """The ``top_k`` entries give their typed columns on empty tables."""
    from eristropy_ray.pipelines.queries import QUERIES
    from tools.check_oracle import to_pandas

    sf = _degenerate(Path(sf_tiny), tmp_path / "zero", "zero")
    want = {
        "top_users": {"user_id": "int64", "n_obs": "int64"},
        "vocab_topk": {"word": "object", "n": "int64"},
        "reservoir_sample": {
            "sample_key": "uint64", "event_id": "int64", "user_id": "int64",
            "ts_us": "int64", "value": "float64",
        },
    }
    for name, dtypes in want.items():
        got = to_pandas(QUERIES[name](sf))
        assert len(got) == 0, name
        assert {c: str(t) for c, t in got.dtypes.items()} == dtypes, name


def test_similarity_topk_matches_oracle_on_zero_rows(ray_session, sf_tiny, tmp_path):
    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    sf = _degenerate(Path(sf_tiny), tmp_path / "zero", "zero")
    got = to_pandas(QUERIES["similarity_topk"](sf))
    want = _oracle_views(sf).execute(ORACLE_SQL["similarity_topk"]).df()
    assert compare("similarity_topk", got, want) == "OK"


def test_similarity_topk_without_query_row_matches_oracle(
    ray_session, sf_tiny, tmp_path
):
    """No ``vec_id = 0`` row makes every cosine NULL in the SQL twin: the
    first ten ids with a NaN sim."""
    import pyarrow.compute as pc

    from eristropy_ray.pipelines.queries import ORACLE_SQL, QUERIES
    from tools.check_oracle import compare, to_pandas

    sf = tmp_path / "no_query"
    sf.mkdir()
    t = pq.read_table(f"{sf_tiny}/embeddings.parquet")
    pq.write_table(t.filter(pc.not_equal(t["vec_id"], 0)), sf / "embeddings.parquet")
    got = to_pandas(QUERIES["similarity_topk"](str(sf)))
    want = _oracle_views(str(sf), ["embeddings"]).execute(
        ORACLE_SQL["similarity_topk"]
    ).df()
    assert len(got) == 10 and got["sim"].isna().all()
    assert compare("similarity_topk", got, want) == "OK"


def test_collect_pairs_sums_logs_and_drops_over_cap_rows(ray_session, caplog):
    import ray.data as rd

    from eristropy_ray.pipelines.queries import _collect_pairs

    pairs = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_a": [-1, 1, 1, -1, 2],
                "doc_b": [2, 5, 5, 3, 7],
                "hamming": [-1, 1, 1, -1, 0],
            }
        )
    )
    dtypes = {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}
    with caplog.at_level("WARNING"):
        got = _collect_pairs(pairs, "neardup: %d buckets", 9, dtypes)
    assert sorted(got.values.tolist()) == [[1, 5, 1], [2, 7, 0]]
    assert "neardup: 5 buckets exceeded cap=9 docs" in caplog.text
