"""Training-data pipeline ops: dedup, similarity, text analysis,
multimodal plumbing."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st
import pyarrow as pa
import pytest

from eristropy_ray.datapipe.dedup import (
    embedding_neardup_pairs,
    hamming64,
    jaccard,
    lsh_band_keys,
    minhash_signature_batch,
    simhash64,
    simhash_chunk_keys,
    word_shingle_hashes,
)
from eristropy_ray.datapipe.multimodal import BinaryFeatureStage, sniff_format
from eristropy_ray.datapipe.similarity import IVFIndex, knn_topk_batch, unit_rows
from eristropy_ray.datapipe.textstats import (
    content_hash64,
    langid_predict,
    rolling_kgram_hashes,
    winnow_fingerprints,
)

DOC_A = "the quick brown fox jumps over the lazy dog again and again today"
DOC_B = "the quick brown fox jumps over the lazy dog again and again tonight"
DOC_C = "completely different content about databases and shuffle joins"


def test_minhash_similar_docs_collide():
    sigs = minhash_signature_batch([DOC_A, DOC_B, DOC_C], num_perm=64)
    sim_ab = (sigs[0] == sigs[1]).mean()
    sim_ac = (sigs[0] == sigs[2]).mean()
    assert sim_ab > 0.6 > sim_ac
    band_id, band_hash = lsh_band_keys(sigs, n_bands=16)
    keys = {
        doc: {(int(b), int(h)) for b, h in zip(band_id[doc * 16:(doc + 1) * 16],
                                                band_hash[doc * 16:(doc + 1) * 16])}
        for doc in range(3)
    }
    assert keys[0] & keys[1]  # near-dups share a band bucket
    assert not (keys[0] & keys[2])


def test_minhash_deterministic():
    a = minhash_signature_batch([DOC_A], num_perm=32)
    b = minhash_signature_batch([DOC_A], num_perm=32)
    np.testing.assert_array_equal(a, b)


def test_jaccard_verification():
    assert jaccard(DOC_A, DOC_A) == 1.0
    assert jaccard(DOC_A, DOC_B) > 0.7
    assert jaccard(DOC_A, DOC_C) < 0.05


def test_shingles_short_text():
    h = word_shingle_hashes("one two", k=3)
    assert h.size == 1  # degenerate doc -> single hash


def test_simhash_near_and_far():
    sa, sb, sc = simhash64(DOC_A), simhash64(DOC_B), simhash64(DOC_C)
    assert hamming64(sa, sb) < hamming64(sa, sc)
    assert simhash64(DOC_A) == sa  # deterministic
    ka = set(simhash_chunk_keys(sa))
    kb = set(simhash_chunk_keys(sb))
    if hamming64(sa, sb) <= 3:
        assert ka & kb  # pigeonhole guarantee
    assert simhash64("") == 0


def test_simhash_arrow_matches_scalar():
    """simhash64_arrow is element-identical to the per-text kernel,
    including empty / whitespace-only / unicode / repeated-word rows."""
    import pyarrow as pa

    from eristropy_ray.datapipe.dedup import simhash64_arrow

    texts = [
        DOC_A, DOC_B, DOC_C, "", "   \t \n ", "one", "one one one two",
        "naïve café über straße", "a " * 500 + "b",
        "word" + "x" * 3000 + " tail words here",
    ]
    got = simhash64_arrow(pa.array(texts, pa.string()))
    want = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)
    # chunked arrays too (Ray blocks arrive chunked)
    chunked = pa.chunked_array([texts[:3], texts[3:]], pa.string())
    np.testing.assert_array_equal(simhash64_arrow(chunked), want)
    assert simhash64_arrow(pa.array([], pa.string())).size == 0


def test_hamming64_batch_matches_scalar(rng):
    from eristropy_ray.datapipe.dedup import hamming64_batch

    a = rng.integers(0, 2**63, size=200).astype(np.uint64)
    b = rng.integers(0, 2**63, size=200).astype(np.uint64)
    got = hamming64_batch(a, b)
    want = np.array([hamming64(int(x), int(y)) for x, y in zip(a, b)])
    np.testing.assert_array_equal(got, want)
    assert hamming64_batch(a, a).sum() == 0


def test_simhash_neardup_query_matches_bruteforce(ray_session):
    """The distributed chunk-bucketed plan returns EXACTLY the all-pairs
    Hamming<=3 set (pigeonhole: 4 chunks, <=3 differing bits -> at least
    one identical chunk, so recall is structural, not probabilistic)."""
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.dedup import hamming64_batch, simhash64_arrow
    from eristropy_ray.pipelines.queries import q_simhash_neardup

    sf = "/root/testdata/sf0.001"
    got = q_simhash_neardup(sf)
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_numpy()
    order = np.argsort(ids)
    ids = ids[order]
    sigs = simhash64_arrow(docs["text"])[order]
    ai, bi = np.triu_indices(ids.size, k=1)
    ham = hamming64_batch(sigs[ai], sigs[bi])
    ok = ham <= 3
    want = {
        (int(a), int(b), int(h))
        for a, b, h in zip(ids[ai][ok], ids[bi][ok], ham[ok])
    }
    have = {
        (int(r.doc_a), int(r.doc_b), int(r.hamming))
        for r in got.itertuples()
    }
    assert have == want
    # deterministic output order
    assert got["doc_a"].is_monotonic_increasing or len(got) <= 1


def test_chunk_token_windows_properties():
    """Coverage, overlap, clipping, unicode-boundary and degenerate-doc
    behavior of the token-window chunker."""
    from eristropy_ray.datapipe.textstats import chunk_token_windows

    text = " ".join(f"w{i}" for i in range(25))
    chunks = chunk_token_windows(text, max_tokens=8, stride=6)
    # window i covers tokens [6i, 6i+8): starts 0,6,12,18 -> 4 chunks
    assert [(f, n) for _, f, n in chunks] == [(0, 8), (6, 8), (12, 8), (18, 7)]
    toks = text.split()
    for chunk, first, n in chunks:
        assert chunk.split() == toks[first : first + n]
    # union covers every token exactly
    covered = sorted({t for _, f, n in chunks for t in range(f, f + n)})
    assert covered == list(range(25))
    # short doc -> one clipped chunk; degenerate docs -> none
    assert chunk_token_windows("a b c", 8, 6) == [("a b c", 0, 3)]
    assert chunk_token_windows("", 8, 6) == []
    assert chunk_token_windows("  \t \n ", 8, 6) == []
    # NBSP is a token boundary (same \s set as every other text op) and
    # multi-byte codepoints are never split
    got = chunk_token_windows("café naïve über", 2, 1)
    assert [c for c, _, _ in got] == ["café naïve", "naïve über"]
    import pytest as _pytest

    with _pytest.raises(ValueError):
        chunk_token_windows("x", max_tokens=4, stride=5)
    with _pytest.raises(ValueError):
        chunk_token_windows("x", max_tokens=4, stride=0)


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_categories=("Cs",), max_codepoint=0x2FFF
            ),
            max_size=8,
        ),
        max_size=40,
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(deadline=None, max_examples=60)
def test_chunk_token_windows_bruteforce(words, max_tokens, stride):
    """Property pin vs a definitional reference: tokens come from the
    shared whitespace mask; window i = tokens[i*stride : i*stride+max],
    text spans reassemble to exactly those tokens."""
    from eristropy_ray.datapipe.dedup import _whitespace_mask
    from eristropy_ray.datapipe.textstats import chunk_token_windows

    if stride > max_tokens:
        stride = max_tokens
    text = " ".join(words)

    b = text.encode("utf-8")
    arr = np.frombuffer(b, dtype=np.uint8)
    mask = (
        ~_whitespace_mask(arr) if arr.size else np.zeros(0, dtype=bool)
    )
    # reference token spans via the same mask, scalar run-length walk
    ref_tokens = []
    i = 0
    while i < arr.size:
        if mask[i]:
            j = i
            while j < arr.size and mask[j]:
                j += 1
            ref_tokens.append(b[i:j].decode("utf-8"))
            i = j
        else:
            i += 1
    got = chunk_token_windows(text, max_tokens, stride)
    if not ref_tokens:
        assert got == []
        return
    exp_starts = list(range(0, max(len(ref_tokens) - max_tokens, 0) + 1, stride))
    if exp_starts[-1] + max_tokens < len(ref_tokens):
        exp_starts.append(exp_starts[-1] + stride)
    assert [f for _, f, _ in got] == exp_starts
    for chunk, first, n in got:
        assert n == min(max_tokens, len(ref_tokens) - first)
        # the chunk's own tokens (same mask) are the expected slice
        cb = chunk.encode("utf-8")
        ca = np.frombuffer(cb, dtype=np.uint8)
        cm = ~_whitespace_mask(ca)
        toks, i = [], 0
        while i < ca.size:
            if cm[i]:
                j = i
                while j < ca.size and cm[j]:
                    j += 1
                toks.append(cb[i:j].decode("utf-8"))
                i = j
            else:
                i += 1
        assert toks == ref_tokens[first : first + n]


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_categories=("Cs",), max_codepoint=0x2FFF
            ),
            max_size=40,
        ),
        max_size=25,
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
@settings(deadline=None, max_examples=60)
def test_chunk_token_windows_arrow_matches_scalar(texts, max_tokens, stride):
    """The batch-vectorized Arrow chunker is element-identical to the
    scalar kernel on every row (windows, token indices and chunk text)."""
    import pyarrow as pa

    from eristropy_ray.datapipe.textstats import (
        chunk_token_windows,
        chunk_token_windows_arrow,
    )

    if stride > max_tokens:
        stride = max_tokens
    doc_idx, chunk_id, first, ntok, text_arr = chunk_token_windows_arrow(
        pa.array(texts, pa.string()), max_tokens, stride
    )
    got = list(zip(doc_idx, chunk_id, first, ntok, text_arr.to_pylist()))
    want = [
        (i, ci, f, n, c)
        for i, t in enumerate(texts)
        for ci, (c, f, n) in enumerate(
            chunk_token_windows(t, max_tokens, stride)
        )
    ]
    assert got == want


def test_chunk_token_windows_arrow_long_docs():
    """Multi-chunk docs, interleaved empties, and a chunked column."""
    import pyarrow as pa

    from eristropy_ray.datapipe.textstats import (
        chunk_token_windows,
        chunk_token_windows_arrow,
    )

    docs = [
        " ".join(f"tok{i}" for i in range(500)),
        "",
        "   ",
        " ".join(f"w{i}" for i in range(97)),
        "solo",
    ]
    col = pa.chunked_array([docs[:2], docs[2:]], pa.string())
    doc_idx, chunk_id, first, ntok, text_arr = chunk_token_windows_arrow(
        col, max_tokens=128, stride=96
    )
    got = list(zip(doc_idx, chunk_id, first, ntok, text_arr.to_pylist()))
    want = [
        (i, ci, f, n, c)
        for i, t in enumerate(docs)
        for ci, (c, f, n) in enumerate(chunk_token_windows(t, 128, 96))
    ]
    assert got == want
    assert max(chunk_id) >= 4  # doc 0 really did explode into 5 windows


def test_doc_chunks_query(ray_session):
    """Distributed explode == per-doc kernel on the whole sf0.001 corpus,
    and the batch kernel == the per-doc kernel there at narrower windows
    too (32 tokens, stride 24), where documents explode into several."""
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.textstats import (
        chunk_token_windows,
        chunk_token_windows_arrow,
    )
    from eristropy_ray.pipelines.queries import (
        _CHUNK_STRIDE,
        _CHUNK_TOKENS,
        q_doc_chunks,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    texts = docs["text"].to_pylist()
    narrow = chunk_token_windows_arrow(docs["text"], 32, 24)
    narrow = list(zip(*narrow[:4], narrow[4].to_pylist()))
    assert narrow == [
        (i, ci, f, n, c)
        for i, t in enumerate(texts)
        for ci, (c, f, n) in enumerate(chunk_token_windows(t, 32, 24))
    ]
    assert max(ci for _, ci, *_ in narrow) >= 2

    got = (
        q_doc_chunks(sf)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    want = []
    for did, t in zip(docs["doc_id"].to_pylist(), texts):
        windows = chunk_token_windows(t, _CHUNK_TOKENS, _CHUNK_STRIDE)
        for ci, (chunk, first, n) in enumerate(windows):
            want.append((did, ci, first, n, chunk))
    assert len(got) == len(want)
    assert got["n_tokens"].max() <= _CHUNK_TOKENS
    for col, idx in zip(
        ["doc_id", "chunk_id", "first_token", "n_tokens", "chunk_text"],
        range(5),
    ):
        assert got[col].tolist() == [w[idx] for w in want]


@given(
    st.lists(
        st.text(
            alphabet=st.one_of(
                st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
                st.sampled_from("the und les el il 中文漢字 . ! ? éßİ"),
            ),
            max_size=60,
        ),
        max_size=20,
    )
)
@settings(deadline=None, max_examples=60)
def test_langid_predict_arrow_matches_scalar(texts):
    """The batch langid is element-identical to the scalar kernel —
    stopword hits, CJK ratio, sorted-key tie-break and the min_score
    threshold all included."""
    import pyarrow as pa

    from eristropy_ray.datapipe.textstats import (
        langid_predict,
        langid_predict_arrow,
    )

    got = langid_predict_arrow(pa.array(texts, pa.string()))
    assert got.tolist() == [langid_predict(t) for t in texts]


def test_langid_predict_arrow_known_labels():
    import pyarrow as pa

    from eristropy_ray.datapipe.textstats import langid_predict_arrow

    texts = [
        "the cat and the dog in the house",   # en
        "der Hund und die Katze ist nicht da",  # de
        "汉字漢字中文",  # zh by CJK ratio
        "",  # no signal -> unknown
        "zxq qqq",  # no stopword hits -> unknown
    ]
    got = langid_predict_arrow(pa.chunked_array([texts[:2], texts[2:]]))
    assert got.tolist() == ["en", "de", "zh", "unknown", "unknown"]


@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    st.integers(min_value=1, max_value=30),
)
@settings(deadline=None, max_examples=80)
def test_greedy_pack_tokens_bruteforce(ntoks, capacity):
    """Pin vs the definitional scalar recurrence: append unless the
    sequence would exceed capacity; oversize docs get their own seq."""
    from eristropy_ray.datapipe.textstats import greedy_pack_tokens

    seq, off = greedy_pack_tokens(np.array(ntoks, dtype=np.int64), capacity)
    ref_seq, ref_off = [], []
    cur, filled = -1, 0
    for t in ntoks:
        if cur < 0 or filled + t > capacity:
            cur += 1
            filled = 0
        ref_seq.append(cur)
        ref_off.append(filled)
        filled += t
    assert seq.tolist() == [max(s, 0) for s in ref_seq]
    assert off.tolist() == ref_off
    # invariants: seq ids dense & non-decreasing; totals <= capacity
    # unless the sequence is a single oversize doc
    if ntoks:
        assert seq[0] == 0 and (np.diff(seq) >= 0).all()
        assert (np.diff(seq) <= 1).all()
        tot = np.bincount(seq, weights=np.array(ntoks, dtype=np.float64))
        members = np.bincount(seq)
        over = np.flatnonzero(tot > capacity)
        assert all(members[s] == 1 for s in over)


def test_greedy_pack_tokens_validation():
    from eristropy_ray.datapipe.textstats import greedy_pack_tokens

    import pytest as _pytest

    with _pytest.raises(ValueError):
        greedy_pack_tokens(np.array([1, 2]), 0)
    with _pytest.raises(ValueError):
        greedy_pack_tokens(np.array([1, -2]), 4)
    s, o = greedy_pack_tokens(np.array([], dtype=np.int64), 4)
    assert s.size == 0 and o.size == 0


def test_seq_pack_query(ray_session):
    """Distributed pack == local per-partition kernel on sf0.001, with
    ``part`` the 32-way ``partition_of(doc_id)``, and the packing
    invariants hold on real data."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.textstats import greedy_pack_tokens
    from eristropy_ray.pipelines.exchange import _NPARTS as n_parts
    from eristropy_ray.pipelines.queries import _SEQ_CAPACITY as capacity
    from eristropy_ray.pipelines.queries import _WS_TOKEN_PAT, q_seq_pack

    sf = "/root/testdata/sf0.001"
    got = (
        q_seq_pack(sf)
        .to_pandas()
        .sort_values(["part", "seq_id", "seq_offset", "doc_id"])
        .reset_index(drop=True)
    )
    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_numpy().astype(np.int64)
    ntok = (
        pc.count_substring_regex(docs["text"], pattern=_WS_TOKEN_PAT)
        .to_numpy()
        .astype(np.int64)
    )
    part = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(n_parts)
    want = []
    for p in range(n_parts):
        sel = np.flatnonzero(part == p)
        sel = sel[np.argsort(ids[sel], kind="stable")]
        seq, off = greedy_pack_tokens(ntok[sel], capacity)
        want += [
            (p, int(s), int(o), int(d), int(t))
            for s, o, d, t in zip(seq, off, ids[sel], ntok[sel])
        ]
    want.sort()
    assert len(got) == len(ids)  # every doc packed exactly once
    for col, idx in zip(
        ["part", "seq_id", "seq_offset", "doc_id", "n_tokens"], range(5)
    ):
        assert got[col].tolist() == [w[idx] for w in want]
    # no sequence exceeds capacity unless it is a single oversize doc
    g = got.groupby(["part", "seq_id"])["n_tokens"]
    tot, cnt = g.sum(), g.count()
    assert ((tot <= capacity) | (cnt == 1)).all()


def test_embedding_neardup(rng):
    base = rng.normal(size=(20, 16))
    emb = np.vstack([base, base[3] + rng.normal(scale=1e-3, size=16)])
    ids = np.arange(21)
    pairs = embedding_neardup_pairs(emb, ids, tau=0.99)
    assert (3, 20) in [(a, b) for a, b, _ in pairs]


def test_knn_matches_bruteforce(rng):
    corpus = rng.normal(size=(300, 32))
    unit = unit_rows(corpus)
    ids = np.arange(300)
    q = corpus[:5]
    got_ids, got_sims = knn_topk_batch(q, unit, ids, k=10)
    sims_full = unit_rows(q) @ unit.T
    for i in range(5):
        order = np.lexsort((ids, -sims_full[i]))[:10]
        np.testing.assert_array_equal(got_ids[i], ids[order])


def test_ivf_recall(rng):
    corpus = rng.normal(size=(500, 24))
    ids = np.arange(500)
    index = IVFIndex.build(corpus, ids, n_cells=16, seed=7)
    queries = corpus[rng.choice(500, size=20, replace=False)]
    unit = unit_rows(corpus)
    exact_ids, _ = knn_topk_batch(queries, unit, ids, k=10)
    got_ids, _ = index.search(queries, k=10, n_probe=6)
    recalls = [
        len(set(g.tolist()) & set(e.tolist())) / 10
        for g, e in zip(got_ids, exact_ids)
    ]
    assert np.mean(recalls) > 0.8  # probing 6/16 cells


def test_langid_heuristic():
    assert langid_predict("the cat and the dog are in the house") == "en"
    assert langid_predict("der Hund und die Katze sind nicht in der Stadt") == "de"
    assert langid_predict("le chat est dans la maison avec le chien") == "fr"
    assert langid_predict("el perro y el gato en la casa por la noche") == "es"
    assert langid_predict("这是一个中文句子") == "zh"
    assert langid_predict("xyzzy qwerty plugh") == "unknown"


def test_fingerprints():
    fa = winnow_fingerprints(DOC_A, k=5, w=4)
    fb = winnow_fingerprints(DOC_B, k=5, w=4)
    fc = winnow_fingerprints(DOC_C, k=5, w=4)
    overlap_ab = np.intersect1d(fa, fb).size / min(fa.size, fb.size)
    overlap_ac = np.intersect1d(fa, fc).size / max(min(fa.size, fc.size), 1)
    assert overlap_ab > 0.6 > overlap_ac
    assert content_hash64(DOC_A) != content_hash64(DOC_B)
    assert content_hash64(DOC_A) == content_hash64(DOC_A)
    assert rolling_kgram_hashes("abc", k=5).size == 0
    # rolling-hash locality: the same k-gram anywhere hashes the same
    h1 = rolling_kgram_hashes("xx hello yy", k=5)
    h2 = rolling_kgram_hashes("aa hello bb", k=5)
    assert np.intersect1d(h1, h2).size > 0


from eristropy_ray.datapipe.media import encode_png as _encode_png  # noqa: E402
from eristropy_ray.datapipe.media import encode_wav as _encode_wav  # noqa: E402


def test_multimodal_stage(ray_session):
    """Through Ray's map_batches, the stage keeps the other columns,
    sniffs and sizes every payload, and decodes what it can: a WAV row
    gets its features, a JPEG-magic and an empty row a NaN embedding."""
    import ray.data as rd

    from eristropy_ray.datapipe.media import FEATURE_DIM, real_features

    wav = _encode_wav(np.arange(-50, 50, dtype=np.int64).reshape(-1, 1))
    payloads = [wav, b"\xff\xd8\xffrest", b""]
    t = pa.table(
        {"item_id": pa.array([1, 2, 3], pa.int64()),
         "payload": pa.array(payloads, pa.binary())}
    )
    out = (
        rd.from_arrow(t)
        .map_batches(
            BinaryFeatureStage(),
            batch_format="pyarrow",
            batch_size=2,
            concurrency=2,
        )
        .to_pandas()
        .sort_values("item_id")
    )
    assert list(out["format"]) == ["riff", "jpeg", "unknown"]
    assert list(out["n_bytes"]) == [len(wav), 7, 0]
    assert list(out["decode_ok"]) == [True, False, False]
    emb = np.stack(out["embedding"].to_numpy())
    assert emb.shape == (3, FEATURE_DIM)
    np.testing.assert_array_equal(emb[0], real_features(wav, "riff"))
    assert np.isnan(emb[1:]).all()


def test_png_roundtrip_all_filters():
    from eristropy_ray.datapipe.media import decode_png

    rng = np.random.default_rng(11)
    for ch in (1, 2, 3, 4):
        px = rng.integers(0, 256, size=(7, 5, ch), dtype=np.uint8)
        payload = _encode_png(px, filters=[0, 1, 2, 3, 4, 4, 3])
        np.testing.assert_array_equal(decode_png(payload), px)
    with pytest.raises(ValueError):
        decode_png(b"not a png")


def test_wav_roundtrip():
    from eristropy_ray.datapipe.media import decode_wav

    rng = np.random.default_rng(12)
    want = rng.integers(-30000, 30000, size=(100, 2), dtype=np.int64)
    samples, rate = decode_wav(_encode_wav(want, rate=16000))
    assert rate == 16000
    np.testing.assert_array_equal(samples, want)
    with pytest.raises(ValueError):
        decode_wav(b"RIFFjunk")


def test_multimodal_real_extractor():
    """The feature stage decodes PNG/WAV payloads to moment features and
    degrades (NaN + decode_ok=False) on undecodable rows."""
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    png = _encode_png(px, filters=[1, 2, 3, 4])
    wav = _encode_wav(rng.integers(-100, 100, size=(64, 1), dtype=np.int64))
    stage = BinaryFeatureStage()
    out = stage(
        pa.table(
            {
                "item_id": pa.array([1, 2, 3], pa.int64()),
                "payload": pa.array([png, wav, b"\xff\xd8\xffjpeg"], pa.binary()),
            }
        )
    )
    assert out["decode_ok"].to_pylist() == [True, True, False]
    emb = np.stack(out["embedding"].to_numpy(zero_copy_only=False))
    flat = px.astype(np.float64).reshape(-1)
    np.testing.assert_allclose(emb[0, 0], flat.mean())
    np.testing.assert_allclose(emb[0, 3], flat.max())
    assert np.isnan(emb[2]).all()
    assert sniff_format(b"OggSdata") == "ogg"


def test_frame_sample_real_decoder():
    """The frame stage samples windows of the DECODED stream (pixel rows
    for PNG), and emits empty frames for undecodable payloads."""
    from eristropy_ray.datapipe.multimodal import FRAME_BYTES, FrameSampleStage

    px = np.arange(16 * 8 * 1, dtype=np.uint8).reshape(16, 8, 1)
    png = _encode_png(px, filters=[0])
    out = FrameSampleStage()(
        pa.table(
            {
                "item_id": pa.array([1, 2], pa.int64()),
                "payload": pa.array([png, b"garbage"], pa.binary()),
            }
        )
    )
    frames = out["frame"].to_pylist()
    stream = px.tobytes()  # 128 decoded bytes -> windows at 0, 32, 64, 96
    assert FRAME_BYTES == 32
    assert frames[:4] == [stream[o : o + 32] for o in (0, 32, 64, 96)]
    assert frames[4:] == [b""] * 4


@given(n_samples=st.lists(st.integers(0, 300), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_frame_sample_explode_invariants(n_samples):
    """For WAV payloads of arbitrary length the explode emits exactly
    N_FRAMES rows per item in input order, frame f equals the window of
    the decoded sample bytes at offset len*f//N_FRAMES, and every frame
    is FRAME_BYTES-bounded (the block-width guarantee DESIGN_SCALE
    relies on)."""
    from eristropy_ray.datapipe.media import decode_wav
    from eristropy_ray.datapipe.multimodal import (
        FRAME_BYTES,
        N_FRAMES,
        FrameSampleStage,
    )

    payloads = [
        _encode_wav((np.arange(n, dtype=np.int64) * 97 % 65536 - 32768).reshape(-1, 1))
        for n in n_samples
    ]
    ids = list(range(len(payloads)))
    out = FrameSampleStage()(
        pa.table(
            {
                "item_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )
    )
    assert out.num_rows == len(payloads) * N_FRAMES
    got_ids = out["item_id"].to_pylist()
    got_idx = out["frame_idx"].to_pylist()
    got_frames = out["frame"].to_pylist()
    k = 0
    for i, p in zip(ids, payloads):
        stream = decode_wav(p)[0].tobytes()
        assert len(stream) == 2 * n_samples[i]
        for f in range(N_FRAMES):
            assert got_ids[k] == i and got_idx[k] == f
            off = (len(stream) * f) // N_FRAMES
            assert got_frames[k] == stream[off : off + FRAME_BYTES]
            assert len(got_frames[k]) <= FRAME_BYTES
            k += 1


def test_benchmark_frame_reproduces_reference_generator():
    """sources/benchmark_signals reproduces gp_benchmark.py:10-47 exactly
    (same rng(17) draw order: b first, then the (t, n) noise matrix)."""
    from eristropy_ray.sources.benchmark_signals import make_benchmark_frame

    t, n = 50, 4
    df = make_benchmark_frame(t, n)
    assert list(df.columns) == ["signal_id", "ts_us", "value"]
    assert len(df) == t * n
    rng = np.random.default_rng(17)
    bs = rng.uniform(low=3 / t, high=5 / t, size=(n,))
    noise = rng.normal(loc=0.0, scale=0.1, size=(t, n))
    want = (bs * np.tile(np.arange(t).reshape(-1, 1), (1, n))).T.flatten() + noise.T.flatten()
    np.testing.assert_array_equal(df["value"].to_numpy(), want)
    # deterministic across calls
    np.testing.assert_array_equal(
        df["value"].to_numpy(), make_benchmark_frame(t, n)["value"].to_numpy()
    )


def test_ann_ivf_distributed_matches_single_process(ray_session):
    """The distributed IVF build/probe (sample-trained centroids,
    supercell partials, query-hash merge) probing 4 of the 16 cells must
    reproduce IVFIndex.search exactly when the training sample covers
    the whole corpus. (ann_ivf itself probes every cell and is checked
    against its SQL twin.)"""
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.similarity import IVFIndex, _kmeans
    from eristropy_ray.pipelines.queries import (
        _embedding_plan,
        _ivf_assign,
        _merge_knn,
        _topk_partial,
    )

    sf = "/root/testdata/sf0.001"
    assign = _ivf_assign(sf, 4)
    out = (
        _embedding_plan(sf, assign, "qid", _topk_partial, _merge_knn)
        .to_pandas()
        .astype({"vec_id": "int64", "neighbor_id": "int64", "sim": "float64"})
        .sort_values(["vec_id", "neighbor_id"])
        .reset_index(drop=True)
    )
    tbl = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    emb = np.stack([np.asarray(x, np.float64) for x in tbl["embedding"].to_pylist()])
    cent = _kmeans(unit_rows(emb[np.argsort(ids)]), 16, seed=7)
    u = unit_rows(emb)
    assign = (u @ cent.T).argmax(axis=1)
    idx = IVFIndex(
        cent,
        [ids[assign == c] for c in range(16)],
        [u[assign == c] for c in range(16)],
    )
    gi, gs = idx.search(u, k=6, n_probe=4)
    rows = {"vec_id": [], "neighbor_id": [], "sim": []}
    for i in range(u.shape[0]):
        mask = gi[i] != ids[i]
        nb, sm = gi[i][mask][:5], gs[i][mask][:5]
        rows["vec_id"].extend([int(ids[i])] * nb.size)
        rows["neighbor_id"].extend(nb.tolist())
        rows["sim"].extend(np.round(sm, 4).tolist())
    exp = (
        pd.DataFrame(rows)
        .astype({"vec_id": "int64", "neighbor_id": "int64", "sim": "float64"})
        .sort_values(["vec_id", "neighbor_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, exp)


# --- vectorized polynomial hashing vs per-byte brute force ---------------

def _brute_word_hash(word: str) -> int:
    h = 0
    for b in word.encode("utf-8"):
        h = (h * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    h = (h + (len(word.encode()) * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    # splitmix64 finalizer
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    return h


@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=120))
@settings(max_examples=300, deadline=None)
def test_word_hashes_match_regex_tokenization_and_bruteforce(text):
    """Tokenization must equal re.findall(r'\\S+') — the full Unicode
    whitespace set, not just ASCII — and each word's hash must equal the
    per-byte brute force."""
    import re

    from eristropy_ray.datapipe.dedup import word_hashes

    words = re.findall(r"\S+", text)
    got = word_hashes(text)
    want = np.array([_brute_word_hash(w) for w in words], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)


def test_nbsp_near_dup_still_matches():
    """A pair differing only in NBSP/ideographic-space vs ASCII space
    tokenizes identically (the regression the byte-level splitter almost
    introduced)."""
    from eristropy_ray.datapipe.dedup import jaccard, simhash64

    a = "the quick brown fox jumps over the lazy dog tonight again"
    b = a.replace(" ", "\u00a0", 3).replace(" ", "\u3000", 2)
    assert b != a
    assert jaccard(a, b) == 1.0
    assert simhash64(a) == simhash64(b)


@given(st.text(max_size=200), st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
def test_rolling_kgram_matches_bruteforce(text, k):
    from eristropy_ray.datapipe.textstats import rolling_kgram_hashes

    got = rolling_kgram_hashes(text, k)
    codes = [ord(c) for c in text]
    want = []
    for j in range(len(codes) - k + 1):
        h = 0
        for c in codes[j : j + k]:
            h = (h * 1_000_003 + c) & 0xFFFFFFFFFFFFFFFF
        want.append(h)
    np.testing.assert_array_equal(got, np.array(want, dtype=np.uint64))


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_content_hash_matches_bruteforce(text):
    from eristropy_ray.datapipe.textstats import content_hash64

    h = 0
    for b in text.encode("utf-8"):
        h = (h * 1_000_003 + b) & 0xFFFFFFFFFFFFFFFF
    assert content_hash64(text) == h


def test_hll_sketch_properties(rng):
    """Determinism, merge==concat invariance, and error bound of the
    HyperLogLog registers (Flajolet et al. 2007, p=12 -> ~1.6% se)."""
    from eristropy_ray.datapipe.sketch import hll_estimate, hll_merge, hll_partial

    vals = rng.integers(0, 10_000_000, size=50_000).astype(np.int64)
    true_n = np.unique(vals).size
    whole = hll_partial(vals)
    # chunked build + max-merge equals the one-shot registers exactly
    parts = [hll_partial(c) for c in np.array_split(vals, 7)]
    np.testing.assert_array_equal(hll_merge(parts), whole)
    est = hll_estimate(whole)
    assert abs(est - true_n) / true_n < 0.05
    # small-cardinality linear-counting regime is near-exact
    small = hll_estimate(hll_partial(np.arange(150, dtype=np.int64)))
    assert abs(small - 150) / 150 < 0.03
    # deterministic across calls
    assert hll_estimate(hll_partial(vals)) == est


def test_distinct_users_approx_close_to_exact(ray_session):
    from eristropy_ray.pipelines.queries import (
        q_distinct_users,
        q_distinct_users_approx,
    )
    from tools.check_oracle import to_pandas

    sf = "/root/testdata/sf0.01"
    exact = q_distinct_users(sf).set_index("event_type")["n_users"]
    approx = to_pandas(q_distinct_users_approx(sf)).set_index("event_type")[
        "n_users_approx"
    ]
    assert set(exact.index) == set(approx.index)
    for et in exact.index:
        rel = abs(approx[et] - exact[et]) / max(exact[et], 1)
        assert rel < 0.05, (et, approx[et], exact[et])


def test_frame_sample_stage(ray_session):
    import ray.data as rd

    from eristropy_ray.datapipe.multimodal import FrameSampleStage

    samples = np.arange(128, dtype=np.int64).reshape(-1, 1)
    payloads = [_encode_wav(samples), b"tiny", b""]
    t = pa.table(
        {"item_id": pa.array([1, 2, 3], pa.int64()),
         "payload": pa.array(payloads, pa.binary())}
    )
    out = (
        rd.from_arrow(t)
        .map_batches(
            FrameSampleStage(),
            batch_format="pyarrow", batch_size=2, concurrency=2,
        )
        .to_pandas()
        .sort_values(["item_id", "frame_idx"])
        .reset_index(drop=True)
    )
    assert len(out) == 12  # 1 -> 4 explode
    assert list(out["frame_idx"][:4]) == [0, 1, 2, 3]
    # evenly spaced 32-byte windows of item 1's 256 decoded sample bytes
    stream = samples.astype("<i2").tobytes()
    assert list(out["frame"][:4]) == [stream[o : o + 32] for o in (0, 64, 128, 192)]
    assert list(out["frame"][4:]) == [b""] * 8
    # degenerate payloads still emit n_frames rows
    assert all(f == b"" for f in out[out["item_id"] == 3]["frame"])


def test_ws_ranges_match_whitespace_mask():
    """WS_RANGES (the SQL oracle's word-splitter source) must stay in
    lockstep with the byte-level _whitespace_mask AND Python's regex \\s
    for every BMP codepoint."""
    import re

    from eristropy_ray.datapipe.dedup import WS_RANGES, _whitespace_mask

    in_ranges = set()
    for lo, hi in WS_RANGES:
        in_ranges.update(range(lo, hi + 1))
    ws_re = re.compile(r"\s")
    for cp in range(0x3101):
        ch = chr(cp)
        assert (cp in in_ranges) == bool(ws_re.match(ch)), hex(cp)
        b = np.frombuffer(ch.encode("utf-8"), dtype=np.uint8)
        mask = _whitespace_mask(b)
        assert mask.all() == (cp in in_ranges), hex(cp)


def test_minhash_lsh_recall_is_exact_on_gate_corpus():
    """Every exact word-shingle-Jaccard>=0.5 pair on the sf0.01 oracle
    corpus shares an LSH band at the production settings (num_perm=64,
    16 bands) — recall 1.0 is what makes q_minhash_neardup's verified
    output equal the all-pairs SQL twin."""
    import itertools

    import pyarrow.parquet as pq

    tbl = pq.read_table(
        "/root/testdata/sf0.01/documents.parquet", columns=["doc_id", "text"]
    )
    ids = tbl["doc_id"].to_numpy().astype(np.int64)
    texts = tbl["text"].to_pylist()
    sets = [word_shingle_hashes(t, 3) for t in texts]
    exact = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = np.intersect1d(sets[i], sets[j], assume_unique=True).size
            uni = sets[i].size + sets[j].size - inter
            if uni and inter / uni >= 0.5:
                exact.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert exact  # the synthesized corpus plants near-dups

    sigs = minhash_signature_batch(texts, num_perm=64)
    band_id, band_hash = lsh_band_keys(sigs, n_bands=16)
    buckets: dict[tuple[int, int], list[int]] = {}
    for d, b, h in zip(np.repeat(ids, 16), band_id, band_hash):
        buckets.setdefault((int(b), int(h)), []).append(int(d))
    cands = set()
    for v in buckets.values():
        v = sorted(set(v))
        if len(v) >= 2:
            cands.update(itertools.combinations(v, 2))
    assert exact <= cands, f"LSH missed {sorted(exact - cands)[:5]}"


def test_ann_ivf_routing_replication_factor():
    """The routed dataset must carry well under (1 + n_probe)x the
    embedding table: the member row doubles as the query in its own
    supercell, and extra query copies go only to DISTINCT other probe
    supercells. This corpus is uniform-random (the adversarial case —
    no probe locality); clustered real corpora approach 1x."""
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.similarity import (
        _kmeans,
        supercell_assign,
        unit_rows,
    )

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = tbl["vec_id"].to_numpy()
    emb = np.stack([np.asarray(x, np.float64) for x in tbl["embedding"].to_pylist()])
    # identical construction to q_ann_ivf (full corpus fits sample_cap here)
    cent = _kmeans(unit_rows(emb[np.argsort(ids)]), 16, seed=7)
    csuper = supercell_assign(cent, 4)
    u = unit_rows(emb)
    n_probe = 4
    scores = u @ cent.T
    m_super = csuper[scores.argmax(axis=1)]
    q_cells = np.argsort(-scores, axis=1)[:, :n_probe]
    q_supers = csuper[q_cells]
    extra = np.array(
        [np.setdiff1d(r, [own]).size for r, own in zip(q_supers, m_super)]
    )
    routed_rows = ids.size + int(extra.sum())  # members once + query copies
    factor = routed_rows / ids.size
    assert factor < n_probe, f"routing replication {factor:.2f}x"
    # sanity: naive per-cell routing would be exactly 1 + n_probe
    assert factor < 0.75 * (1 + n_probe)


def test_embedding_neardup_ivf_recall(ray_session):
    """The IVF-bucketed near-dup scale path recovers the exact pair set
    on the gate corpus (every planted near-dup pair shares a probed
    cell), and emits no pair below tau."""
    from eristropy_ray.pipelines.queries import (
        q_embedding_neardup,
        q_embedding_neardup_ivf,
    )

    sf = "/root/testdata/sf0.001"
    exact = q_embedding_neardup(sf)
    exact = exact if isinstance(exact, pd.DataFrame) else exact.to_pandas()
    got = q_embedding_neardup_ivf(sf).to_pandas()
    e = set(zip(exact["vec_a"], exact["vec_b"]))
    g = set(zip(got["vec_a"], got["vec_b"]))
    assert e <= g, f"missed {sorted(e - g)[:5]}"
    assert g == e, f"extra pairs below tau? {sorted(g - e)[:5]}"


def test_corrupt_png_degrades_not_crashes():
    """A payload with a valid PNG magic but corrupt chunk/zlib stream
    must degrade per row (decode_ok=False), never crash the stage."""
    from eristropy_ray.datapipe.media import decode_png
    from eristropy_ray.datapipe.multimodal import FrameSampleStage

    good = _encode_png(np.zeros((4, 4, 1), dtype=np.uint8), filters=[0])
    idat_off = good.index(b"IDAT") + 4
    corrupt = [
        good[:20],                       # truncated mid-IHDR
        good[:40] + b"\x00" * 10,        # truncated/garbled IDAT
        # flipped byte inside the zlib stream (adler checksum fails)
        good[: idat_off + 2]
        + bytes([good[idat_off + 2] ^ 0xFF])
        + good[idat_off + 3 :],
    ]
    for p in corrupt:
        with pytest.raises(ValueError):
            decode_png(p)
    out = BinaryFeatureStage()(
        pa.table(
            {"payload": pa.array([good] + corrupt, pa.binary())}
        )
    )
    assert out["decode_ok"].to_pylist()[0] is True
    assert out["decode_ok"].to_pylist()[1:] == [False, False, False]
    fr = FrameSampleStage()(
        pa.table({"payload": pa.array(corrupt, pa.binary())})
    )
    assert all(f == b"" for f in fr["frame"].to_pylist())


def test_png_bomb_degrades_not_ooms():
    """A payload declaring absurd IHDR dimensions (or inflating past the
    declared size) must raise ValueError, never allocate unbounded."""
    import struct
    import zlib

    from eristropy_ray.datapipe.media import decode_png

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data))
        )

    magic = b"\x89PNG\r\n\x1a\n"
    # 40000 x 40000 gray = 1.6e9 samples declared in ~100 bytes
    ihdr = struct.pack(">IIBBBBB", 40000, 40000, 8, 0, 0, 0, 0)
    bomb = magic + chunk(b"IHDR", ihdr) + chunk(
        b"IDAT", zlib.compress(b"\x00" * 1000)
    )
    with pytest.raises(ValueError):
        decode_png(bomb)
    # zero-dimension and over-inflating streams degrade too
    ihdr0 = struct.pack(">IIBBBBB", 0, 2**31 - 1, 8, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        decode_png(magic + chunk(b"IHDR", ihdr0) + chunk(b"IDAT", b""))
    ihdr_small = struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    overinflate = magic + chunk(b"IHDR", ihdr_small) + chunk(
        b"IDAT", zlib.compress(b"\x00" * 4096)
    )
    with pytest.raises(ValueError):
        decode_png(overinflate)


def test_neardup_queries_empty_result(ray_session, tmp_path):
    """Corpora with no near-dups must yield empty, correctly-typed
    results through the full distributed plans (empty candidate sets,
    empty join sides, empty pair groupbys)."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import (
        q_embedding_neardup_ivf,
        q_minhash_neardup,
    )

    rng = np.random.default_rng(31)
    docs = pa.table(
        {
            "doc_id": pa.array(np.arange(40), pa.int64()),
            "text": pa.array(
                [
                    " ".join(
                        f"w{rng.integers(0, 10**9)}" for _ in range(12)
                    )
                    for _ in range(40)
                ],
                pa.string(),
            ),
        }
    )
    emb = pa.table(
        {
            "vec_id": pa.array(np.arange(64), pa.int64()),
            "embedding": pa.array(
                # 512-d random: no pair near cosine 0.45 (~10 sigma)
                [rng.normal(size=512).tolist() for _ in range(64)],
                pa.list_(pa.float64()),
            ),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    pq.write_table(emb, tmp_path / "embeddings.parquet")

    mh = q_minhash_neardup(str(tmp_path))
    assert len(mh) == 0
    assert list(mh.columns) == ["doc_a", "doc_b", "jaccard"]

    nd = q_embedding_neardup_ivf(str(tmp_path)).to_pandas()
    assert len(nd) == 0


def test_knn_all_zero_row_embeddings(ray_session, tmp_path):
    """A zero-row embeddings table yields an empty kNN result instead of
    failing at plan build while resolving the dimensionality."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import _embedding_dim, q_knn_all

    emb = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
        }
    )
    pq.write_table(emb, tmp_path / "embeddings.parquet")
    assert _embedding_dim(str(tmp_path / "embeddings.parquet")) == 0
    assert q_knn_all(str(tmp_path)).count() == 0


def test_ann_ivf_nprobe_clamped_to_centroids(ray_session):
    """n_probe larger than the trained centroid count must clamp, not
    crash with a ragged FixedSizeList (tiny corpora)."""
    from eristropy_ray.pipelines.queries import (
        _IVF_N_CELLS,
        _KNN_K,
        _embedding_dim,
        _embedding_plan,
        _ivf_assign,
        _merge_knn,
        _topk_partial,
    )

    sf = "/root/testdata/sf0.001"
    assign = _ivf_assign(sf, _IVF_N_CELLS + 8)
    u = unit_rows(np.eye(3, _embedding_dim(f"{sf}/embeddings.parquet")))
    _own, _reach, (_cell, probes) = assign(np.arange(3), u)
    assert probes.shape == (3, _IVF_N_CELLS)
    out = _embedding_plan(sf, assign, "qid", _topk_partial, _merge_knn).to_pandas()
    assert len(out) > 0
    assert (out.groupby("vec_id").size() <= _KNN_K).all()


def test_minhash_neardup_query_equals_exact_pairs(ray_session):
    """End-to-end q_minhash_neardup (signatures -> LSH -> broadcast
    candidate map -> tag -> regroup -> verify) equals the exact
    word-shingle-Jaccard>=0.5 pair set on the small corpus."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import q_minhash_neardup

    sf = "/root/testdata/sf0.001"
    got = q_minhash_neardup(sf)
    tbl = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    ids = tbl["doc_id"].to_numpy().astype(np.int64)
    sets = [word_shingle_hashes(t, 3) for t in tbl["text"].to_pylist()]
    exact = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = np.intersect1d(sets[i], sets[j], assume_unique=True).size
            uni = sets[i].size + sets[j].size - inter
            jv = inter / uni if uni else 1.0
            if jv >= 0.5:
                exact[(min(ids[i], ids[j]), max(ids[i], ids[j]))] = jv
    assert exact
    assert {
        (a, b): j
        for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])
    } == exact


def test_mg_summary_bound():
    """Misra-Gries: estimates undercount by at most n/k, and any item
    with true count > n/k survives the reduction."""
    from eristropy_ray.datapipe.sketch import mg_merge, mg_summary

    rng = np.random.default_rng(51)
    items = rng.zipf(1.5, size=20000) % 500
    uniq, true = np.unique(items, return_counts=True)
    k = 32
    n = items.size
    # simulate batched summaries + merge (arbitrary split points)
    parts = []
    for chunk in np.array_split(items, 7):
        u, c = np.unique(chunk, return_counts=True)
        parts.append(mg_summary(u, c, k))
    mi, mc = mg_merge(parts, k)
    est = dict(zip(mi.tolist(), mc.tolist()))
    for it, t in zip(uniq.tolist(), true.tolist()):
        e = est.get(it, 0)
        assert e <= t  # never overcounts
        assert t - e <= n / k + 1e-9  # mergeability bound
        if t > n / k:
            assert it in est  # guaranteed survivor


def test_heavy_hitters_matches_exact_top(ray_session):
    """The sketch's top words agree with the exact wordcount top on the
    test corpus, and every estimate is within the n/k bound."""
    import pyarrow.parquet as pq
    import re

    from eristropy_ray.pipelines.queries import (
        _HEAVY_HITTERS_K,
        _HEAVY_HITTERS_TOPN,
        _WS_TOKEN_PAT,
        q_heavy_hitters,
    )

    sf = "/root/testdata/sf0.001"
    got = q_heavy_hitters(sf)
    texts = pq.read_table(f"{sf}/documents.parquet", columns=["text"])[
        "text"
    ].to_pylist()
    pat = re.compile(_WS_TOKEN_PAT)
    exact: dict[str, int] = {}
    n = 0
    for t in texts:
        for w in pat.findall(t):
            exact[w] = exact.get(w, 0) + 1
            n += 1
    top_exact = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))
    for w, e in zip(got["word"], got["est"]):
        t = exact.get(w, 0)
        assert e <= t and t - e <= n / _HEAVY_HITTERS_K
    # the sketch's top rows are the exact top rows on this corpus
    assert len(got) == _HEAVY_HITTERS_TOPN
    assert list(got["word"]) == [w for w, _ in top_exact[:_HEAVY_HITTERS_TOPN]]


def test_bloom_filter_properties():
    """No false negatives ever; FP rate near the analytic bound."""
    from eristropy_ray.datapipe.sketch import bloom_build, bloom_contains

    rng = np.random.default_rng(61)
    members = rng.integers(0, 10**12, size=2000).astype(np.int64)
    m_bits = 1 << 15
    bits = bloom_build(members, m_bits)
    assert bloom_contains(bits, members).all()  # zero false negatives
    probes = rng.integers(10**12, 2 * 10**12, size=20000).astype(np.int64)
    fp = bloom_contains(bits, probes).mean()
    k, n, m = 4, members.size, m_bits
    bound = (1 - np.exp(-k * n / m)) ** k
    assert fp < 2.5 * bound  # near the analytic rate, not degenerate
    # mergeability: OR of two half-filters == filter of the union
    b1 = bloom_build(members[:1000], m_bits)
    b2 = bloom_build(members[1000:], m_bits)
    np.testing.assert_array_equal(np.bitwise_or(b1, b2), bits)


def test_hdr_quantile_sketch_properties():
    """Relative error bound 2^-(m+1) vs the exact order statistic on a
    heavy-tailed distribution; any merge tree gives the identical
    estimate (counts are a commutative monoid); bucket index is monotone
    in the value; zeros get their own bucket."""
    from eristropy_ray.datapipe.sketch import (
        hdr_bucket,
        hdr_partial,
        hdr_quantiles,
    )

    rng = np.random.default_rng(17)
    v = rng.lognormal(mean=2.0, sigma=3.0, size=50_000)
    qs = np.array([0.01, 0.25, 0.5, 0.75, 0.99])
    b, c = hdr_partial(v)
    est = hdr_quantiles(b, c, qs)
    sv = np.sort(v)
    exact = sv[np.maximum(1, np.ceil(qs * v.size)).astype(int) - 1]
    assert (np.abs(est - exact) / exact <= 2.0**-8).all()
    # merge-tree invariance: 7 uneven splits folded == single pass
    parts = [hdr_partial(x) for x in np.array_split(v, 7)]
    allb = np.concatenate([p[0] for p in parts])
    allc = np.concatenate([p[1] for p in parts])
    ub, inv = np.unique(allb, return_inverse=True)
    uc = np.bincount(inv, weights=allc).astype(np.int64)
    np.testing.assert_array_equal(hdr_quantiles(ub, uc, qs), est)
    # monotone bucket index
    grid = np.sort(rng.lognormal(0, 4, 1000))
    assert (np.diff(hdr_bucket(grid).astype(np.int64)) >= 0).all()
    assert hdr_bucket(np.array([0.0]))[0] == 0
    with pytest.raises(ValueError):
        hdr_bucket(np.array([-1.0]))


def test_value_quantiles_hdr_query(ray_session):
    """The distributed grouped sketch matches the error bound per
    event_type against the exact per-type order statistics."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import q_value_quantiles_hdr
    from tools.check_oracle import to_pandas

    sf = "/root/testdata/sf0.001"
    got = to_pandas(q_value_quantiles_hdr(sf))
    ev = pq.read_table(
        f"{sf}/events.parquet", columns=["event_type", "value"]
    ).to_pandas()
    assert set(got["event_type"]) == set(ev["event_type"])
    for et, g in got.groupby("event_type"):
        sv = np.sort(ev.loc[ev.event_type == et, "value"].to_numpy())
        ranks = np.maximum(1, np.ceil(g["q"].to_numpy() * sv.size)).astype(int)
        exact = sv[ranks - 1]
        rel = np.abs(g["value_approx"].to_numpy() - exact) / exact
        assert (rel <= 2.0**-8).all(), (et, rel)


def test_bloom_semijoin_is_exact(ray_session):
    """Bloom prefilter + exact verification of survivors = the exact
    semi-join row set (the Bloom stage's own zero-FN / bounded-FP
    contract is pinned separately in test_bloom_filter_properties)."""
    import duckdb

    from eristropy_ray.pipelines.queries import q_bloom_semijoin

    sf = "/root/testdata/sf0.001"
    got = q_bloom_semijoin(sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')"
    )
    exact = con.execute(
        """
        SELECT event_id FROM events
        WHERE event_type = 'click' AND user_id IN (
          SELECT user_id FROM events WHERE event_type = 'purchase')
        """
    ).df()
    assert set(got["event_id"]) == set(exact["event_id"])


def test_anti_join_complements_purchase_user_days(ray_session):
    """q_anti_join = clicks on (user, day) pairs with no purchase —
    brute-force pandas oracle; together with the semi-join this pins
    that the shared _purchaser_fold + Bloom probe machinery is exact on
    BOTH polarities (zero-FN makes bloom-negative a proof of keep)."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import US_1D, q_anti_join

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(f"{sf}/events.parquet").to_pandas()
    ev["day"] = ev["ts"].astype("int64") // US_1D
    purchases = set(
        map(tuple, ev[ev.event_type == "purchase"][["user_id", "day"]].values)
    )
    clicks = ev[ev.event_type == "click"]
    expect = {
        int(r.event_id)
        for r in clicks.itertuples()
        if (r.user_id, r.day) not in purchases
    }
    got = q_anti_join(sf).to_pandas()
    assert set(got["event_id"]) == expect
    assert len(expect) > 0  # non-degenerate on the test corpus


def test_band_join_counts_match_bruteforce(ray_session):
    """Keyless time-band interval join vs an O(n^2) numpy oracle: every
    purchase's strictly-preceding-10-minute any-user click count, and
    the replicate-to-two-bands plan introduces no duplicates or drops."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import (
        _BAND_JOIN_WINDOW_US,
        q_band_join,
    )

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(f"{sf}/events.parquet").to_pandas()
    ts = ev["ts"].astype("int64")
    cts = np.sort(ts[ev.event_type == "click"].to_numpy())
    p = ev[ev.event_type == "purchase"]
    pts = ts[ev.event_type == "purchase"].to_numpy()
    lo = np.searchsorted(cts, pts - _BAND_JOIN_WINDOW_US, side="left")
    hi = np.searchsorted(cts, pts, side="left")
    expect = dict(zip(p["event_id"].astype(int), (hi - lo).astype(int)))
    got = q_band_join(sf).to_pandas()
    assert len(got) == len(expect)  # one row per purchase, no dups
    assert dict(zip(got["event_id"].astype(int),
                    got["n_clicks_10m"].astype(int))) == expect
    assert got["n_clicks_10m"].max() > 0  # non-degenerate corpus


def test_running_sum_matches_pandas_cumsum(ray_session):
    """Unbounded-frame window sum vs a pandas groupby-cumsum oracle on
    the identical integer-micro representation (segmented-prefix rebase
    must not leak across users or reorder ties)."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import q_running_sum

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(sf + "/events.parquet").to_pandas()
    ev["ts_us"] = ev["ts"].astype("int64")
    ev = ev.sort_values(["user_id", "ts_us", "event_id"], kind="stable")
    ev["vmu"] = np.round(ev["value"].to_numpy() * 1e6).astype(np.int64)
    ev["want"] = ev.groupby("user_id")["vmu"].cumsum() / 1e6
    got = q_running_sum(sf).to_pandas()
    assert len(got) == len(ev)
    merged = got.merge(
        ev[["event_id", "want"]], on="event_id", validate="one_to_one"
    )
    assert (merged["running_sum"] == merged["want"]).all()


def test_topk_per_user_matches_pandas_rank(ray_session):
    """Grouped top-k by value vs a pandas sort/head oracle, including
    the rank column and the partial-top-k-before-shuffle plan keeping
    every global winner."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines.queries import q_topk_per_user

    sf = "/root/testdata/sf0.001"
    ev = pq.read_table(
        sf + "/events.parquet", columns=["event_id", "user_id", "value"]
    ).to_pandas()
    ev = ev.sort_values(
        ["user_id", "value", "event_id"],
        ascending=[True, False, True],
        kind="stable",
    )
    ev["rk"] = ev.groupby("user_id").cumcount() + 1
    want = ev[ev["rk"] <= 3].reset_index(drop=True)
    got = (
        q_topk_per_user(sf)
        .to_pandas()
        .sort_values(["user_id", "rk"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    for col in ["user_id", "event_id", "value", "rk"]:
        assert (
            got[col].to_numpy() == want[col].to_numpy()
        ).all(), col


def test_sample_key64_bijective_and_deterministic():
    """Distinct ids -> distinct keys (splitmix64 is a bijection on the
    64-bit domain) and repeated calls are identical — the properties
    that make a bottom-k over these keys a tie-free reproducible
    uniform sample."""
    from eristropy_ray.datapipe.sketch import sample_key64

    ids = np.arange(100_000, dtype=np.int64)
    k1, k2 = sample_key64(ids), sample_key64(ids)
    np.testing.assert_array_equal(k1, k2)
    assert np.unique(k1).size == ids.size
    # merge invariance: bottom-k of per-chunk bottom-ks == global bottom-k,
    # for any chunking (3 vs 7 uneven splits)
    k = 250
    glob = np.sort(k1)[:k]
    for n_chunks in (3, 7):
        surv = np.concatenate(
            [np.sort(c)[:k] for c in np.array_split(k1, n_chunks)]
        )
        np.testing.assert_array_equal(np.sort(surv)[:k], glob)


def test_reservoir_sample_query(ray_session):
    """The distributed bottom-k sample equals the single-pass local
    bottom-k over the same table, exactly — k rows, same ids, same
    order — regardless of how Ray laid out the blocks."""
    import pyarrow.parquet as pq

    from eristropy_ray.datapipe.sketch import sample_key64
    from eristropy_ray.pipelines.queries import _RESERVOIR_K as k
    from eristropy_ray.pipelines.queries import q_reservoir_sample

    sf = "/root/testdata/sf0.01"  # 10,000 events: the sample is a tenth
    got = q_reservoir_sample(sf)
    ev = pq.read_table(f"{sf}/events.parquet").to_pandas()
    key = sample_key64(ev["event_id"].to_numpy(np.int64))
    order = np.argsort(key)[:k]
    assert len(got) == k
    np.testing.assert_array_equal(
        got["event_id"].to_numpy(), ev["event_id"].to_numpy()[order]
    )
    np.testing.assert_array_equal(got["sample_key"].to_numpy(), np.sort(key)[:k])
    np.testing.assert_array_equal(
        got["value"].to_numpy(), ev["value"].to_numpy()[order]
    )


def test_resize_nearest_kernel():
    """Half-pixel-center gather: identity at same size, exact 2x
    downsample picks the center-right sample of each pair, upsample
    replicates pixels; non-3D input rejected."""
    from eristropy_ray.datapipe.multimodal import resize_nearest

    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, size=(8, 6, 3), dtype=np.uint8)
    np.testing.assert_array_equal(resize_nearest(px, 8, 6), px)
    # 2x downsample: source index floor((i+0.5)*2) = 2i+1
    down = resize_nearest(px, 4, 3)
    np.testing.assert_array_equal(down, px[1::2][:, 1::2])
    # upsample: each source pixel appears in a 2x2 block
    up = resize_nearest(px, 16, 12)
    np.testing.assert_array_equal(up[::2, ::2], px[
        np.minimum((np.arange(16)[::2] + 0.5) // 2, 7).astype(int)
    ][:, np.minimum((np.arange(12)[::2] + 0.5) // 2, 5).astype(int)])
    with pytest.raises(ValueError):
        resize_nearest(px[:, :, 0], 4, 4)


def test_image_resize_stage_roundtrip_and_degradation():
    """PNG rows come back as decodable PNGs holding exactly the resized
    pixels; non-PNG / corrupt rows degrade per row with one output
    schema."""
    import pyarrow as pa

    from eristropy_ray.datapipe.media import decode_png, encode_png
    from eristropy_ray.datapipe.multimodal import (
        RESIZE_H,
        RESIZE_W,
        ImageResizeStage,
        resize_nearest,
    )

    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(24, 10, 1), dtype=np.uint8)
    good = encode_png(px, filters=[0, 1, 2, 3, 4] * 5)[: 10**9]
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "payload": pa.array(
                [good, b"\xff\xd8\xffjpeg-ish", b"garbage"], pa.binary()
            ),
        }
    )
    out = ImageResizeStage()(batch)
    assert out["resize_ok"].to_pylist() == [True, False, False]
    assert out["in_height"].to_pylist() == [24, 0, 0]
    assert out["in_width"].to_pylist() == [10, 0, 0]
    got = decode_png(out["resized"].to_pylist()[0])
    assert got.shape == (RESIZE_H, RESIZE_W, 1)
    np.testing.assert_array_equal(got, resize_nearest(px, RESIZE_H, RESIZE_W))
    assert out["resized"].to_pylist()[1] == b""
    assert set(out.column_names) == {
        "doc_id", "resized", "in_height", "in_width",
        "out_height", "out_width", "resize_ok",
    }


def test_image_resize_query(ray_session):
    """The distributed pipeline resizes exactly the PNG rows (even
    doc_ids not divisible by 7) and degrades the rest."""
    from eristropy_ray.pipelines.queries import q_image_resize

    got = q_image_resize("/root/testdata/sf0.001").to_pandas()
    ids = got["doc_id"].to_numpy()
    expect_ok = (ids % 7 != 0) & (ids % 2 == 0)
    np.testing.assert_array_equal(got["resize_ok"].to_numpy(), expect_ok)
    ok = got[got["resize_ok"]]
    assert (ok["in_width"] == 8).all()
    assert (ok["in_height"] > 0).all()
    assert (ok["n_bytes_out"] > 0).all()
    assert (got.loc[~got["resize_ok"], "n_bytes_out"] == 0).all()


def test_frame_sample_query(ray_session):
    """The 1->N frame explode emits exactly N_FRAMES rows per doc with
    frame_idx 0..N_FRAMES-1, non-empty decoded windows for every
    decodable payload (PNG and WAV alike) and empty frames for the
    JPEG-magic rows."""
    import duckdb

    from eristropy_ray.datapipe.multimodal import FRAME_BYTES, N_FRAMES
    from eristropy_ray.pipelines.queries import q_frame_sample

    got = q_frame_sample("/root/testdata/sf0.001").to_pandas()
    n_docs = duckdb.sql(
        "SELECT COUNT(*) FROM '/root/testdata/sf0.001/documents.parquet'"
    ).fetchone()[0]
    assert len(got) == N_FRAMES * n_docs
    per_doc = got.groupby("doc_id")["frame_idx"].agg(["count", "min", "max"])
    assert (per_doc["count"] == N_FRAMES).all()
    assert (per_doc["min"] == 0).all()
    assert (per_doc["max"] == N_FRAMES - 1).all()
    assert (got["n_frame_bytes"] <= FRAME_BYTES).all()
    decodable = got["doc_id"].to_numpy() % 7 != 0
    assert (got.loc[decodable, "n_frame_bytes"] > 0).all()
    assert (got.loc[~decodable, "n_frame_bytes"] == 0).all()


# ---------------------------------------------------------------------------
# Arrow batch-vectorized hashing (round-5: C-speed dedup/minhash hot stages)


_BH_TEXTS = [
    "hello world foo bar baz", "", "one", "two words",
    "hello world foo bar baz", "x" * 10_000,
    "unicode  nbsp em and\ttabs\nnewlines",
    " leading and trailing ", "a b c d e f g h i j k l m",
    "éèê accents café", "NUL\x00byte words here",
]


def test_batch_hash128_dedup_semantics():
    from eristropy_ray.datapipe.dedup import batch_hash128

    arr = pa.array(_BH_TEXTS, pa.string())
    h1, h2 = batch_hash128(arr)
    # identical texts collide, distinct texts do not
    assert (h1[0], h2[0]) == (h1[4], h2[4])
    assert len(set(zip(h1.tolist(), h2.tolist()))) == len(set(_BH_TEXTS))
    # sliced (nonzero offset), large_string and chunked inputs agree
    s1, s2 = batch_hash128(arr.slice(2, 5))
    np.testing.assert_array_equal(s1, h1[2:7])
    np.testing.assert_array_equal(s2, h2[2:7])
    l1, l2 = batch_hash128(pa.array(_BH_TEXTS, pa.large_string()))
    np.testing.assert_array_equal(l1, h1)
    np.testing.assert_array_equal(l2, h2)
    c1, c2 = batch_hash128(pa.chunked_array([arr.slice(0, 3), arr.slice(3)]))
    np.testing.assert_array_equal(c1, h1)
    np.testing.assert_array_equal(c2, h2)


def test_word_hashes_arrow_matches_per_text():
    from eristropy_ray.datapipe.dedup import word_hashes, word_hashes_arrow

    arr = pa.array(_BH_TEXTS, pa.string())
    wh, wd = word_hashes_arrow(arr)
    ref = [word_hashes(t) for t in _BH_TEXTS]
    exp = np.concatenate([r for r in ref if r.size])
    exp_doc = np.concatenate(
        [np.full(r.size, i, np.int64) for i, r in enumerate(ref)]
    )
    np.testing.assert_array_equal(wh, exp)
    np.testing.assert_array_equal(wd, exp_doc)


def test_minhash_signature_arrow_matches_batch():
    from eristropy_ray.datapipe import dedup as dd

    arr = pa.array(_BH_TEXTS, pa.string())
    sig_a = dd.minhash_signature_arrow(arr, num_perm=64)
    sig_b = dd.minhash_signature_batch(_BH_TEXTS, num_perm=64)
    np.testing.assert_array_equal(sig_a, sig_b)
    # slab path (row-slabbed prefix sums) is value-identical
    old = dd._HASH_SLAB_BYTES
    dd._HASH_SLAB_BYTES = 64
    try:
        np.testing.assert_array_equal(
            dd.minhash_signature_arrow(arr, num_perm=64), sig_b
        )
        t1, t2 = dd.batch_hash128(arr)
        dd._HASH_SLAB_BYTES = 1 << 30
        u1, u2 = dd.batch_hash128(arr)
        np.testing.assert_array_equal(t1, u1)
        np.testing.assert_array_equal(t2, u2)
    finally:
        dd._HASH_SLAB_BYTES = old


@given(
    st.lists(
        st.text(
            alphabet=st.characters(max_codepoint=0x2FFF),
            max_size=80,
        ),
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_minhash_arrow_parity_property(texts):
    from eristropy_ray.datapipe.dedup import (
        minhash_signature_arrow,
        minhash_signature_batch,
    )

    arr = pa.array(texts, pa.string())
    np.testing.assert_array_equal(
        minhash_signature_arrow(arr, num_perm=16),
        minhash_signature_batch(texts, num_perm=16),
    )


def test_merge_topk_tie_break_self_drop_and_short_groups():
    """Pure-unit pin of _merge_topk's boundary semantics (shared by
    q_knn_all and q_ann_ivf): (rounded sim DESC, id ASC) tie-break at
    the k boundary, self-match dropped even when it ranks first, and
    groups with fewer than k non-self candidates emit short runs."""
    from eristropy_ray.pipelines.queries import _merge_topk

    tbl = pa.table(
        {
            # interleaved input order: the merge must sort internally
            "qid": pa.array([7, 2, 7, 4, 7, 2, 7, 4, 2, 7], pa.int64()),
            "nid": pa.array([7, 5, 3, 4, 9, 2, 1, 8, 6, 2], pa.int64()),
            "sim": pa.array(
                [1.0, 0.8, 0.9, 1.0, 0.9, 0.95, 0.9, 0.3, 0.7, 0.5],
                pa.float64(),
            ),
        }
    )
    out = _merge_topk(tbl, k=2).to_pandas()
    got = list(
        zip(out["vec_id"], out["neighbor_id"], out["sim"], strict=True)
    )
    # qid=2: self (2,2,0.95) dropped despite ranking first -> 5, 6
    # qid=4: only one non-self candidate -> a single row
    # qid=7: three-way 0.9 tie among nids {3, 9, 1} -> id ASC keeps 1, 3
    assert got == [
        (2, 5, 0.8),
        (2, 6, 0.7),
        (4, 8, 0.3),
        (7, 1, 0.9),
        (7, 3, 0.9),
    ]
    assert out["vec_id"].dtype == np.int64
    assert out["neighbor_id"].dtype == np.int64
    assert out["sim"].dtype == np.float64


@given(
    st.lists(
        st.text(
            alphabet=st.characters(max_codepoint=0x2FFF), max_size=200
        ),
        max_size=8,
    )
)
@settings(max_examples=80, deadline=None)
def test_batch_hash128_matches_scalar_bruteforce(texts):
    """Property pin of the slabbed prefix-sum digest against the
    definitional scalar recurrence: per row and seed S,
    h = fold(h * S + byte) over UTF-8 bytes, then splitmix64(h + len*S).
    """
    from eristropy_ray.datapipe import dedup as dd

    arr = pa.array(texts, pa.string())
    h1, h2 = dd.batch_hash128(arr)

    def scalar(text, seed):
        mask = (1 << 64) - 1
        data = text.encode("utf-8")
        h = 0
        for b in data:
            h = (h * int(seed) + b) & mask
        salted = (h + len(data) * int(seed)) & mask
        return int(dd._mix64(np.array([salted], np.uint64))[0])

    want1 = np.array(
        [scalar(t, dd._POLY_P) for t in texts], np.uint64
    )
    want2 = np.array(
        [scalar(t, dd._POLY_Q) for t in texts], np.uint64
    )
    np.testing.assert_array_equal(h1, want1)
    np.testing.assert_array_equal(h2, want2)


def test_sketch_partials_zero_row_batch():
    """The per-batch HDR and HLL partials return a typed empty table for a
    zero-row batch instead of raising IndexError."""
    from eristropy_ray.pipelines.queries import _hdr_partial_by_type, _hll_partial_by_type

    batch = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "user_id": pa.array([], pa.int64()),
            "value": pa.array([], pa.float64()),
        }
    )
    hdr = _hdr_partial_by_type(batch)
    assert hdr.num_rows == 0
    assert hdr.schema == pa.schema(
        [("event_type", pa.string()), ("bucket", pa.int64()), ("n", pa.int64())]
    )
    hll = _hll_partial_by_type(batch)
    assert hll.num_rows == 0
    assert hll.schema == pa.schema([("event_type", pa.string()), ("regs", pa.binary())])


SKETCH_DTYPES = {
    "q_value_quantiles_hdr":
        {"event_type": "object", "q": "float64", "value_approx": "float64"},
    "q_distinct_users_approx": {"event_type": "object", "n_users_approx": "float64"},
}


@pytest.mark.parametrize("query", list(SKETCH_DTYPES))
def test_sketch_queries_zero_row_events(ray_session, tmp_path, query):
    """A zero-row events table gives an empty result with the entry's
    columns and dtypes."""
    import pyarrow.parquet as pq

    from eristropy_ray.pipelines import queries
    from tools.check_oracle import to_pandas

    events = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "user_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
            "props": pa.array([], pa.string()),
        }
    )
    pq.write_table(events, tmp_path / "events.parquet")
    got = to_pandas(getattr(queries, query)(str(tmp_path)))
    assert len(got) == 0
    assert list(got.dtypes.astype(str).items()) == list(SKETCH_DTYPES[query].items())
