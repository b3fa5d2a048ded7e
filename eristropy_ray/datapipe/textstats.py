"""Text analysis operators: language ID, quality scoring, fingerprints.

- ``langid_scores``: stopword/character n-gram heuristic over a small set
  of languages (en/de/fr/es/it + CJK-codepoint detection). Pure python/
  pandas-vectorizable; intended to run inside ``map_batches`` with the
  compiled patterns held by an actor (see stages in pipelines/queries).
- ``winnow_fingerprints``: document fingerprinting by winnowing (Schleimer
  et al., SIGMOD 2003): rolling Rabin-Karp k-gram hashes, minimum per
  sliding window of w hashes (rightmost-min rule), deduplicated — the
  standard local fingerprint set for plagiarism/copy detection.
- ``content_hash64``: single rolling-hash digest of the whole document.
"""

from __future__ import annotations

import re

import numpy as np

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "was", "for",
           "with", "his", "her", "they", "this", "have", "not", "are"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "mit",
           "auf", "für", "von", "sie", "ich", "dass", "sich", "auch"},
    "fr": {"le", "la", "les", "et", "est", "une", "dans", "que", "pour",
           "pas", "des", "qui", "sur", "avec", "ce", "il", "je"},
    "es": {"el", "la", "los", "las", "es", "una", "en", "que", "por",
           "para", "con", "del", "se", "su", "como", "más", "pero"},
    "it": {"il", "la", "di", "che", "è", "una", "per", "con", "non",
           "sono", "del", "questo", "come", "anche", "ma", "gli"},
}
_WORD = re.compile(r"[^\W\d_]+", re.UNICODE)


def langid_scores(text: str) -> dict[str, float]:
    """Per-language stopword-hit fraction (plus 'zh' CJK-codepoint ratio)."""
    words = [w.lower() for w in _WORD.findall(text)]
    n = max(len(words), 1)
    scores = {
        lang: sum(w in sw for w in words) / n for lang, sw in _STOPWORDS.items()
    }
    n_chars = max(len(text), 1)
    cjk = sum(1 for ch in text if 0x4E00 <= ord(ch) <= 0x9FFF)
    scores["zh"] = cjk / n_chars
    return scores


def langid_predict(text: str, min_score: float = 0.02) -> str:
    scores = langid_scores(text)
    lang = max(sorted(scores), key=lambda k: scores[k])
    return lang if scores[lang] >= min_score else "unknown"


_LANGS_SORTED = sorted(_STOPWORDS) + ["zh"]  # == sorted(scores) keys
_WORD_SPLIT = re.compile(r"([^\W\d_]+)", re.UNICODE)  # _WORD, capturing
_SW_SORTED = {
    lang: np.sort(np.array(sorted(sw), dtype=str))
    for lang, sw in _STOPWORDS.items()
}


def langid_predict_arrow(col, min_score: float = 0.02) -> np.ndarray:
    """Batch-vectorized ``langid_predict`` over an Arrow string column —
    element-identical to the scalar (property-pinned in tests).

    One ``_WORD.split`` over a NUL-joined slab (NUL is a non-word char,
    so a word can never span two documents) replaces the per-row
    ``findall``; word→row attribution is a searchsorted over codepoint
    offsets; stopword membership is one ``np.isin`` per language against
    the sorted stopword array; CJK/char counts come from Arrow regex/
    length kernels. The only Python-level per-element work left is the
    word lowercasing list-comp (C-speed ``str.lower``), which scalar
    semantics require (lowering AFTER extraction — slab-level lower
    could shift word boundaries, e.g. U+0130 -> 'i' + combining dot).
    Returns an object ndarray of predicted labels.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=object)
    # codepoint lengths + CJK counts via C kernels (match len(text) and
    # the scalar's ord-range count exactly)
    lens = pc.cast(pc.utf8_length(col), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    cjk = pc.cast(
        pc.count_substring_regex(col, pattern="[\\x{4E00}-\\x{9FFF}]"),
        pa.int64(),
    ).to_numpy(zero_copy_only=False)

    texts = col.to_pylist()
    row_starts = np.zeros(n, dtype=np.int64)
    row_starts[1:] = np.cumsum(lens[:-1] + 1)
    # split with a capturing group: [sep0, word0, sep1, word1, ...] —
    # one C pass; part start offsets via cumsum of part lengths
    parts = _WORD_SPLIT.split("\x00".join(texts))
    plens = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
    pstarts = np.zeros(len(parts), dtype=np.int64)
    pstarts[1:] = np.cumsum(plens[:-1])
    word_starts = pstarts[1::2]
    words = parts[1::2]
    rows = np.searchsorted(row_starts, word_starts, side="right") - 1
    low = np.array([w.lower() for w in words], dtype=str)

    nw = np.bincount(rows, minlength=n).astype(np.int64)
    den = np.maximum(nw, 1).astype(np.float64)
    scores = np.empty((len(_LANGS_SORTED), n), dtype=np.float64)
    for li, lang in enumerate(_LANGS_SORTED[:-1]):
        hits = np.isin(low, _SW_SORTED[lang])
        scores[li] = np.bincount(rows[hits], minlength=n) / den
    scores[-1] = cjk / np.maximum(lens, 1)

    best = np.argmax(scores, axis=0)  # first max == sorted-key tie rule
    pred = np.array(_LANGS_SORTED, dtype=object)[best]
    pred[scores[best, np.arange(n)] < min_score] = "unknown"
    return pred


_RK_BASE = np.uint64(1_000_003)  # odd, so invertible mod 2^64
_RK_BINV = np.uint64(pow(1_000_003, -1, 1 << 64))


def rolling_kgram_hashes(text: str, k: int = 5) -> np.ndarray:
    """Rabin-Karp rolling hashes of all k-grams (codepoint-level).

    Vectorized via modular-inverse prefix sums mod 2^64: with
    S_j = sum c_i B^-i, hash of window [j, j+k) is
    (S_{j+k-1} - S_{j-1}) * B^{j+k-1} — one cumsum/cumprod per doc,
    no per-position Python loop.
    """
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.uint64
    )
    n = codes.size
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    ppow = np.ones(n, dtype=np.uint64)
    ppow[1:] = _RK_BASE
    np.cumprod(ppow, out=ppow)
    ipow = np.ones(n, dtype=np.uint64)
    ipow[1:] = _RK_BINV
    np.cumprod(ipow, out=ipow)
    s_pref = np.cumsum(codes * ipow, dtype=np.uint64)
    pre = np.concatenate(([np.uint64(0)], s_pref[: n - k]))
    return (s_pref[k - 1 :] - pre) * ppow[k - 1 :]


def winnow_fingerprints(text: str, k: int = 5, w: int = 4) -> np.ndarray:
    """Winnowing fingerprint set: per window of w consecutive k-gram
    hashes keep the minimum (rightmost on ties), dedupe consecutive."""
    h = rolling_kgram_hashes(text, k)
    if h.size == 0:
        return h
    if h.size <= w:
        return np.unique(h.min(keepdims=True))
    from numpy.lib.stride_tricks import sliding_window_view

    windows = sliding_window_view(h, w)
    rev_arg = w - 1 - np.argmin(windows[:, ::-1], axis=1)  # rightmost min
    picks = windows[np.arange(windows.shape[0]), rev_arg]
    keep = np.empty(picks.size, dtype=bool)
    keep[0] = True
    keep[1:] = picks[1:] != picks[:-1]
    return np.unique(picks[keep])


def content_hash64(text: str) -> int:
    """Whole-document rolling hash digest (order-sensitive); vectorized
    dot product against the reversed power ladder mod 2^64."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = b.size
    if n == 0:
        return 0
    ppow = np.ones(n, dtype=np.uint64)
    ppow[1:] = _RK_BASE
    np.cumprod(ppow, out=ppow)
    return int((b * ppow[::-1]).sum(dtype=np.uint64))


def _token_byte_spans(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) byte spans of ``\\S+`` tokens in a UTF-8 buffer,
    split on the full-Unicode whitespace set (dedup._whitespace_mask) —
    the same word boundaries as minhash/simhash.

    This is NOT the token definition of the registry's token counts
    (``queries._WS_TOKEN_PAT``, used by ``token_counts`` and
    ``q_seq_pack``), which split only on ASCII space, \\t, \\n, \\f and
    \\r. The two counts differ on text holding other whitespace (\\x0b,
    \\x1c-\\x1f, NBSP, ...): "a\\x0bb" is two tokens here and one there.
    """
    from eristropy_ray.datapipe.dedup import _whitespace_mask

    if arr.size == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    nonws = ~_whitespace_mask(arr)
    d = np.diff(nonws.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if nonws[0]:
        starts = np.concatenate(([0], starts))
    if nonws[-1]:
        ends = np.concatenate((ends, [arr.size]))
    return starts.astype(np.int64), ends.astype(np.int64)


def chunk_token_windows(
    text: str, max_tokens: int = 128, stride: int = 96
) -> list[tuple[str, int, int]]:
    """Fixed-token-window document chunking (the pre-tokenization split
    every training pipeline runs before packing sequences).

    Deterministic windows over whitespace tokens: chunk i covers tokens
    ``[i*stride, i*stride + max_tokens)`` (the last one clipped), so
    consecutive chunks overlap by ``max_tokens - stride`` tokens and the
    union covers every token exactly. Chunk text is the original byte
    span from its first token's start to its last token's end — spans
    are codepoint-aligned (the whitespace mask is), so slicing can never
    split a UTF-8 sequence. Returns ``[(chunk_text, first_token,
    n_tokens)]``; empty / whitespace-only documents yield no chunks.
    """
    if not 0 < stride <= max_tokens:
        raise ValueError("need 0 < stride <= max_tokens")
    b = text.encode("utf-8")
    arr = np.frombuffer(b, dtype=np.uint8)
    starts, ends = _token_byte_spans(arr)
    nt = starts.size
    if nt == 0:
        return []
    n_chunks = (
        1 if nt <= max_tokens else 1 + int(np.ceil((nt - max_tokens) / stride))
    )
    out = []
    for i in range(n_chunks):
        t0 = i * stride
        t1 = min(t0 + max_tokens, nt)
        out.append(
            (b[starts[t0] : ends[t1 - 1]].decode("utf-8"), t0, t1 - t0)
        )
    return out


def chunk_token_windows_arrow(arr, max_tokens: int = 128, stride: int = 96):
    """Batch-vectorized ``chunk_token_windows`` straight off an Arrow
    string column's flat UTF-8 buffer — element-identical per row to the
    scalar kernel (asserted in tests).

    One whitespace-mask pass over the whole batch (a virtual ASCII space
    between rows keeps a token from spanning two documents, exactly as
    ``dedup.word_hashes_arrow`` does), token->row assignment by
    searchsorted, window math in closed-form numpy, and the output
    string column assembled with a single vectorized ranges-to-indices
    gather — no per-row or per-chunk Python loop. Temporaries are a few
    bytes per input byte (uint8 flat + bool mask), so a standard Ray
    block (~128 MB) stays comfortably inside a worker heap.

    Returns ``(doc_idx, chunk_id, first_token, n_tokens, chunk_text)``
    where ``doc_idx`` indexes rows of ``arr`` and ``chunk_text`` is a
    ``pa.StringArray`` (large_string when the gathered text exceeds
    int32 offsets).
    """
    import pyarrow as pa

    from eristropy_ray.datapipe.dedup import _arrow_flat_utf8, _whitespace_mask

    if not 0 < stride <= max_tokens:
        raise ValueError("need 0 < stride <= max_tokens")
    z = np.zeros(0, dtype=np.int64)
    data, offsets, n = _arrow_flat_utf8(arr)
    if n == 0:
        return z, z, z, z, pa.array([], pa.string())
    m = int(offsets[-1])
    lens = np.diff(offsets)
    # flat buffer with one separator space after every row
    flat = np.full(m + n, 32, dtype=np.uint8)
    rep = np.repeat(np.arange(n, dtype=np.int64), lens)
    flat[np.arange(m, dtype=np.int64) + rep] = data
    text_start = offsets[:-1] + np.arange(n, dtype=np.int64)

    nonws = ~_whitespace_mask(flat)
    d = np.diff(nonws.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if nonws[0]:
        starts = np.concatenate(([0], starts))
    # flat always ends with a separator space -> no trailing run
    if starts.size == 0:
        return z, z, z, z, pa.array([], pa.string())

    tok_row = np.searchsorted(text_start, starts, side="right") - 1
    nt = np.bincount(tok_row, minlength=n).astype(np.int64)
    tok_base = np.concatenate(([0], np.cumsum(nt)[:-1]))
    n_chunks = np.where(
        nt == 0,
        0,
        1 + np.maximum(np.ceil((nt - max_tokens) / stride), 0).astype(np.int64),
    )
    total = int(n_chunks.sum())
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), n_chunks)
    chunk_base = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    chunk_id = np.arange(total, dtype=np.int64) - chunk_base[doc_idx]
    first = chunk_id * stride
    ntok = np.minimum(max_tokens, nt[doc_idx] - first)
    s_b = starts[tok_base[doc_idx] + first]
    e_b = ends[tok_base[doc_idx] + first + ntok - 1]

    # vectorized ranges->indices gather of the chunk byte spans
    lens_c = e_b - s_b
    out_total = int(lens_c.sum())
    if out_total:
        step = np.ones(out_total, dtype=np.int64)
        step[0] = s_b[0]
        cum = np.cumsum(lens_c)[:-1]
        step[cum] = s_b[1:] - e_b[:-1] + 1
        values = flat[np.cumsum(step)]
    else:  # pragma: no cover - ntok >= 1 implies non-empty spans
        values = np.empty(0, dtype=np.uint8)
    out_off = np.concatenate(([0], np.cumsum(lens_c)))
    if out_total <= np.iinfo(np.int32).max:
        text_arr = pa.StringArray.from_buffers(
            total,
            pa.py_buffer(out_off.astype(np.int32).tobytes()),
            pa.py_buffer(values.tobytes()),
        )
    else:  # pragma: no cover - >2 GiB of chunk text in one batch
        text_arr = pa.Array.from_buffers(
            pa.large_string(),
            total,
            [None, pa.py_buffer(out_off.tobytes()), pa.py_buffer(values.tobytes())],
        )
    return doc_idx, chunk_id, first, ntok, text_arr


def greedy_pack_tokens(
    ntok: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy in-order sequence packing (the post-chunking step that
    fills fixed-capacity training sequences): walk documents in the
    given order, appending each to the current sequence unless it would
    exceed ``capacity``, in which case a new sequence starts. A document
    longer than ``capacity`` gets its own (overflowing) sequence rather
    than being dropped or split.

    Returns ``(seq_id, seq_offset)`` — per-doc sequence index (0-based,
    dense in walk order) and the doc's token offset inside its sequence.
    The scan loop runs once per OUTPUT sequence (a searchsorted hop over
    the token cumsum), not once per document, so cost is
    O(total_tokens / capacity · log n) — at 100 TB the per-partition
    loop count is bounded by the partition's token budget.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    ntok = np.asarray(ntok, dtype=np.int64)
    n = ntok.size
    seq = np.empty(n, dtype=np.int64)
    if n == 0:
        return seq, seq.copy()
    if (ntok < 0).any():
        raise ValueError("token counts must be non-negative")
    cum = np.cumsum(ntok, dtype=np.int64)
    bin_first = []
    i, s, base = 0, 0, np.int64(0)
    while i < n:
        j = int(np.searchsorted(cum, base + capacity, side="right"))
        j = max(j, i + 1)  # an oversize doc still gets its own sequence
        seq[i:j] = s
        bin_first.append(i)
        base = cum[j - 1]
        s += 1
        i = j
    cum_excl = cum - ntok
    first = np.asarray(bin_first, dtype=np.int64)
    off = cum_excl - cum_excl[first][seq]
    return seq, off
