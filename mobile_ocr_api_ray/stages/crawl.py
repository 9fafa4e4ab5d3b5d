"""Web-crawl table operators: capture dedup (latest row per key) and
vectorized URL → host extraction.

A Common-Crawl-style pages table accumulates multiple captures of the same
url across crawls; downstream extraction wants exactly one row per url —
the newest capture. This is the batch analogue of the reference service's
one-result-per-upload session store (newer uploads under the same id
replace older state, /root/reference/app.py:282-304): re-expressed as a
distributed argmax-per-key instead of a mutable dict.

``latest_rows_per_key`` is two-stage partial aggregation, NOT a global
sort: each batch first argmax-reduces locally (rows shrink to at most the
batch's distinct keys before anything shuffles — on a crawl table with k
captures/url the shuffle carries ~1/k of the input), then one coarse-key
groupby resolves across batches. Payload columns ride the shuffle only for
the locally-surviving rows. Keys may be integers (partition hash = key %
n_coarse) or strings (crc32 routing, same convention as stages/joins).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import str_hash

_HOST_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/?#]+)"


def host_of(urls: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """Vectorized url → lowercase host (one RE2 extract per batch; rows
    without a scheme://host prefix yield null)."""
    ex = pc.extract_regex(urls, _HOST_RE)
    return pc.utf8_lower(pc.struct_field(ex, "host"))


URL_TRACKING_RE = r"[?&](?:utm_[a-z]+|gclid|fbclid)="
_URL_PARAM_RE = r"[?&][^?&=#]+="


def url_feature_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """The url_features per-batch kernel, exposed module-level so the
    totality property tests can sweep it without a Ray session."""
    u = pc.fill_null(batch[url_col], "")
    return _url_feature_cols(u)


def url_features(ds, url_col: str = "url"):
    """Per-URL spam/shape features (the URL-side quality signals crawl
    pipelines gate on before fetching/keeping a page): host, length,
    slash count, digit count, query-param count, exact integer digit
    ratio, and a tracking-param flag (utm_*/gclid/fbclid). One vectorized
    RE2 pass per feature per batch — no shuffle, the html payload never
    reads (column-pruned to the url). Every expression is the identical
    RE2 pattern in DuckDB → value-exact."""
    return ds.map_batches(lambda b: url_feature_batch(b, url_col),
                          batch_format="pyarrow")


def _url_feature_cols(u) -> pa.Table:
    ulen = pc.cast(pc.utf8_length(u), pa.int64())
    n_digits = pc.cast(pc.count_substring_regex(u, r"[0-9]"), pa.int64())
    # divisor clamped to ≥1: Arrow eagerly evaluates both if_else
    # branches, and 0-length rows (empty url) would raise on /0;
    # n_digits is 0 there, so the clamped quotient is the wanted 0
    ratio = pc.divide(
        pc.multiply(n_digits, pa.scalar(1_000_000, pa.int64())),
        pc.max_element_wise(ulen, pa.scalar(1, pa.int64())))
    return pa.table({
        "url": u,
        "host": pc.fill_null(host_of(u), ""),
        "url_len": ulen,
        "n_slashes": pc.cast(pc.count_substring(u, "/"), pa.int64()),
        "n_digits": n_digits,
        "n_params": pc.cast(
            pc.count_substring_regex(u, _URL_PARAM_RE), pa.int64()),
        "digit_ratio_micro": ratio,
        "has_tracking": pc.match_substring_regex(u, URL_TRACKING_RE)})


def _argmax_block(df: pd.DataFrame, key: str,
                  order_by: list[str]) -> pd.DataFrame:
    d = df.sort_values([key, *order_by],
                       ascending=[True] + [False] * len(order_by),
                       kind="mergesort")
    return d.drop_duplicates(key, keep="first")


def latest_rows_per_key(ds, key: str, order_by: list[str],
                        n_coarse: int = 64,
                        schema: "dict[str, pa.DataType] | None" = None):
    """Keep, for every ``key``, the single row with the greatest
    ``order_by`` tuple. ``order_by`` must be a total order within a key
    (include a unique tiebreaker column, e.g. ``["ts", "event_id"]``) or
    the surviving row is partition-dependent.

    ``schema`` (col → Arrow type) feeds the empty-partition guard without
    touching ``ds.schema()`` — fetching the schema of an unexecuted
    pipeline runs part of its lineage a second time (measured: the
    recrawl query dropped 6.5 s → expected read cost once callers passed
    the schema explicitly)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = _argmax_block(df, key, order_by)
        k = d[key]
        if k.dtype == object or pd.api.types.is_string_dtype(k):
            coarse = str_hash.crc32_of_strings(k) % n_coarse
        else:
            coarse = k.to_numpy().astype(np.int64) % n_coarse
        return d.assign(_coarse=coarse.astype(np.int32))

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        return _argmax_block(df, key, order_by).drop(columns="_coarse")

    out = (ds.map_batches(partial, batch_format="pandas")
             .groupby("_coarse")
             .map_groups(resolve, batch_format="pandas"))

    # Unpopulated coarse partitions come back as schema-less empty blocks
    # (the repo's empty-dataset schema-erosion trap): prepend a typed empty
    # table with the input's schema so downstream sorts keep the contract.
    empty = (_typed_empty_from_cols(schema) if schema is not None
             else _typed_empty_like(ds))
    return out if empty is None else empty.union(out)


def _typed_empty_from_cols(cols: "dict[str, pa.DataType]"):
    import ray.data as rd
    return rd.from_arrow(pa.table(
        {n: pa.array([], t) for n, t in cols.items()}))


def _typed_empty_like(ds):
    """A 0-row Dataset carrying ``ds``'s Arrow schema, or None when the
    schema is unavailable / not Arrow-typed (pandas-block inputs).
    Fallback only: schema(fetch_if_missing=True) can execute part of the
    input lineage — prefer passing ``schema`` to latest_rows_per_key."""
    try:
        sch = ds.schema(fetch_if_missing=True)
        cols = {}
        for n, t in zip(sch.names, sch.types):
            if not isinstance(t, pa.DataType):
                return None
            cols[n] = t
        return _typed_empty_from_cols(cols)
    except Exception:
        return None


# ------------------------------------------------------ URL canonicalization

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def canonical_url_one(url: str) -> str:
    """Canonicalize one URL (deterministic spec, the usual crawl-frontier
    normalization set):
      1. strip surrounding whitespace;
      2. scheme and host lowercased;
      3. default port dropped (http:80 / https:443);
      4. fragment dropped;
      5. empty path → "/";
      6. tracking query params (utm_*) dropped, remaining params kept in
         original order; an emptied query string drops its "?".
    Unparseable / schemeless inputs pass through stripped-only, so the
    kernel is total (error rows stay joinable on their original value).
    """
    from urllib.parse import urlsplit, urlunsplit

    u = (url or "").strip()
    try:
        parts = urlsplit(u)
    except ValueError:
        return u
    if not parts.scheme or not parts.netloc:
        return u
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    host, sep, port = netloc.rpartition(":")
    if sep and port == _DEFAULT_PORTS.get(scheme):
        netloc = host
    path = parts.path or "/"
    query = "&".join(p for p in parts.query.split("&")
                     if p and not p.lower().startswith("utm_")) \
        if parts.query else ""
    return urlunsplit((scheme, netloc, path, query, ""))


def canonical_urls(urls: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """Batch kernel: url column → canonical form (nulls stay null)."""
    vals = urls.to_pylist()
    return pa.array([None if u is None else canonical_url_one(u)
                     for u in vals], pa.string())


# ----------------------------------------------------------- crawl diff

def diff_by_key(old_ds, new_ds, key: str = "url", value_col: str = "html",
                n_coarse: int | None = None):
    """CDX-style diff of two crawl generations: per key →
    status ∈ {added, removed, changed, unchanged} with the content digests
    that justify it. The incremental-crawl planning primitive (what to
    refetch, what to expire) — and the batch analogue of the reference
    cache's "same key, new content" invalidation decision
    (/root/reference/app2.py:329-336).

    One bucketed shuffle: each side maps to (key, side, md5(value)) rows —
    content never leaves its batch, only 32-hex digests ride the exchange
    — co-partitioned by crc32(key), resolved with a vectorized pandas
    outer merge per partition. Assumes each side is already one row per
    key (run latest_rows_per_key first on raw capture logs).
    """
    import hashlib

    from .exchange import N_COARSE, nonempty_or_typed_table

    nc = n_coarse or N_COARSE

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            # null keys normalize to a NUL sentinel (cannot appear in a
            # real url, so no collision with a genuine "" key) so the two
            # generations MATCH on them — pandas merge treats None as
            # missing and would report a null-url row as removed+added
            keys = ["\x00" if k is None else k
                    for k in batch[key].to_pylist()]
            vals = batch[value_col].to_pylist()
            digs = [hashlib.md5(v if isinstance(v, bytes)
                                else (v or "").encode()).hexdigest()
                    for v in vals]
            coarse = str_hash.str_coarse(keys, nc)
            return pa.table({
                "key": pa.array(keys, pa.string()),
                "side": pa.array(np.full(len(keys), side, np.int8)),
                "digest": pa.array(digs, pa.string()),
                "coarse": pa.array(coarse.astype(np.int32))})
        return fn

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        # defensive: the documented precondition is one row per key per
        # side (run latest_rows_per_key first); if violated, keep the
        # lexicographically-smallest digest deterministically instead of
        # letting the outer merge cross-product duplicate keys
        old = df[df["side"] == 0][["key", "digest"]] \
            .sort_values(["key", "digest"], kind="mergesort") \
            .drop_duplicates("key") \
            .rename(columns={"digest": "old_digest"})
        new = df[df["side"] == 1][["key", "digest"]] \
            .sort_values(["key", "digest"], kind="mergesort") \
            .drop_duplicates("key") \
            .rename(columns={"digest": "new_digest"})
        m = old.merge(new, on="key", how="outer")
        old_d = m["old_digest"]
        new_d = m["new_digest"]
        status = np.where(
            old_d.isna(), "added",
            np.where(new_d.isna(), "removed",
                     np.where(old_d == new_d, "unchanged", "changed")))
        return pd.DataFrame({
            "url": m["key"], "status": status,
            "old_digest": old_d, "new_digest": new_d})

    out = (old_ds.map_batches(tag(0), batch_format="pyarrow")
           .union(new_ds.map_batches(tag(1), batch_format="pyarrow"))
           .groupby("coarse").map_groups(resolve, batch_format="pandas"))
    return nonempty_or_typed_table(out, {
        "url": pa.string(), "status": pa.string(),
        "old_digest": pa.string(), "new_digest": pa.string()})


# ------------------------------------------------------- URL pattern filter

# UT1-blocklist-style default rules: crawl pipelines drop media/binary
# paths, calendar/faceted-search traps, and session-id urls before fetch
DEFAULT_URL_BLOCK_PATTERNS = (
    r"\.(?:jpe?g|png|gif|bmp|tiff?|webp|mp[34]|avi|mov|zip|gz|exe|dmg)(?:$|\?)",
    r"[?&](?:sessionid|sid|phpsessid)=",
    r"/calendar/\d{4}/\d{2}/\d{2}",
    r"[?&]page=\d{3,}",
)


def url_filter(ds, patterns: "tuple[str, ...]" = DEFAULT_URL_BLOCK_PATTERNS,
               url_col: str = "url"):
    """Split a crawl table into (kept, quarantined) by URL blocklist —
    the reference's extension-whitelist gate (S2, app.py:317-320)
    generalized to the pattern blocklist every crawler ships (UT1-style).
    ONE vectorized RE2 match per batch (patterns pre-joined into a single
    alternation at call time — compiled once, not per batch); rejected
    rows become data (status='rejected', matched rule index) rather than
    dropped silently, the S2 quarantine convention.

    Returns (kept_ds, quarantined_ds); quarantined carries
    (url, rule_idx). Both stream — no shuffle, no materialization.

    rule_idx = -1 marks rows the RE2 alternation masked but no individual
    Python pattern claims (the two engines can disagree on exotic
    CALLER-SUPPLIED syntax; impossible for DEFAULT_URL_BLOCK_PATTERNS,
    whose syntax is identical under both). The url_filtered_pages SQL
    oracle keeps rule_idx >= 0 and is therefore valid ONLY for the default
    pattern set — callers wiring custom patterns into an oracle must
    either derive the SQL CASE rules from the same pattern list or accept
    that -1 rows exist on the engine side alone.
    """
    alternation = "|".join(f"(?:{p})" for p in patterns)

    def mask(batch: pa.Table) -> pa.Array:
        urls = pc.fill_null(pc.cast(batch[url_col], pa.string()), "")
        return pc.match_substring_regex(urls, alternation)

    kept = ds.map_batches(
        lambda b: b.filter(pc.invert(mask(b))), batch_format="pyarrow")

    def quarantine(batch: pa.Table) -> pa.Table:
        m = mask(batch)
        bad = batch.filter(m)
        urls = bad[url_col].to_pylist()
        idx = []
        for u in urls:
            # -1 sentinel when no Python pattern matches a row the RE2
            # alternation masked (the two engines can disagree on exotic
            # caller-supplied syntax) — degrade to "rule unknown" rather
            # than a rule_idx/urls length mismatch that kills the task
            for i, p in enumerate(_compiled_block(patterns)):
                if p.search(u or ""):
                    idx.append(i)
                    break
            else:
                idx.append(-1)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "rule_idx": pa.array(idx, pa.int64()),
            "status": pa.array(["rejected"] * len(urls), pa.string())})

    return kept, ds.map_batches(quarantine, batch_format="pyarrow")


def _compiled_block(patterns):
    import re as _re
    key = tuple(patterns)
    cached = _compiled_block.__dict__.get("cache", {})
    if key not in cached:
        cached[key] = [_re.compile(p) for p in patterns]
        _compiled_block.cache = cached
    return cached[key]


HTML_DOCTYPE_PREFIX = b"<!DOCTYPE html>"
BOILER_LINE_MIN_PAGES = 2
BOILER_LINE_MIN_CHARS = 4


def host_line_boilerplate(pages_ds, min_pages: int = BOILER_LINE_MIN_PAGES,
                          min_chars: int = BOILER_LINE_MIN_CHARS,
                          n_coarse: int | None = None,
                          n_coarse_docs: int | None = None):
    """Host-scoped line-level boilerplate removal over an HTML crawl
    (CCNet/jusText lineage): a line of ``min_chars``+ characters that
    appears in ``min_pages``+ DISTINCT pages of the same host is template
    chrome (header / footer / nav / style), not content, and is removed
    from EVERY page of that host. This is the boilerplate semantic —
    remove all copies — unlike ``dedup.line_dedup``'s corpus-wide
    keep-first rule, and it is host-scoped: a single-page host keeps its
    chrome (no within-host evidence it is template). Pages reassemble in
    line order; returns (url, host, n_lines, n_removed, clean_text) for
    HTML pages (DOCTYPE-gated, the page_metadata rule). The reference
    has no host-batch analogue — its per-request HTML path
    (/root/reference/app2.py:860+) sees one document at a time and
    cannot observe cross-page repetition.

    Scale shape — two shuffles, page text moves exactly once:
      1. line-keyed (crc32(host + NUL + line) % nc): only ELIGIBLE line
         occurrences ride it; inside a partition, occurrences group by
         the exact (host, line) strings (no hash-collision risk) and a
         distinct-url count >= min_pages marks every occurrence of that
         line as a removal. Only (url, line_idx) removal rows leave.
      2. url-keyed (crc32(url) % ncd): each page's doc rides once, meets
         its removal rows, and drops the removed line indexes.
    A chrome line shared by a mega-host's every page is a hot key in
    exchange 1, bounded by that host's page count (not corpus size) —
    the same exposure line_dedup documents for ubiquitous lines.
    """
    from .exchange import N_COARSE, nonempty_or_typed_table

    nc = n_coarse or N_COARSE
    ncd = n_coarse_docs or nc
    out_types = {"url": pa.string(), "host": pa.string(),
                 "n_lines": pa.int64(), "n_removed": pa.int64(),
                 "clean_text": pa.string()}

    def html_docs(batch: pa.Table) -> pa.Table:
        html = pc.fill_null(batch["html"], b"")
        mask = pc.starts_with(html, pattern=HTML_DOCTYPE_PREFIX)
        t = pa.table({"url": batch["url"], "html": html}).filter(mask)
        return pa.table({
            "url": t["url"],
            "host": pc.fill_null(host_of(t["url"]), ""),
            "doc": pc.cast(t["html"], pa.string())})

    def elig_lines(batch: pa.Table) -> pa.Table:
        lines = pc.split_pattern(batch["doc"], "\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = lines.flatten()
        parent = pc.list_parent_indices(lines)
        lens = pc.list_value_length(lines).to_numpy().astype(np.int64)
        total = int(lens.sum())
        ends = np.cumsum(lens)
        idxs = np.arange(total, dtype=np.int64) \
            - np.repeat(ends - lens, lens)
        elig = pc.greater_equal(pc.utf8_length(flat), min_chars)
        emask = elig.to_numpy(zero_copy_only=False)
        flat = flat.filter(elig)
        urls = pc.take(batch["url"], parent).filter(elig)
        hosts = pc.take(batch["host"], parent).filter(elig)
        key = pc.binary_join_element_wise(hosts, flat, "\x00")
        return pa.table({
            "url": urls,
            "line": flat,
            "host": hosts,
            "line_idx": pa.array(idxs[emask], pa.int64()),
            "coarse": pa.array(str_hash.str_coarse(key, nc))})

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        n_urls = (df.groupby(["host", "line"], sort=False)["url"]
                  .transform("nunique").to_numpy())
        rem = df[n_urls >= min_pages]
        return pd.DataFrame({
            "url": rem["url"].to_numpy(),
            "line_idx": rem["line_idx"].to_numpy(np.int64),
            "dcoarse": str_hash.str_coarse(rem["url"], ncd)})

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "url": batch["url"],
            "host": batch["host"],
            "line_idx": pa.array(np.full(n, -1, np.int64)),
            "text": batch["doc"],
            "dcoarse": pa.array(str_hash.str_coarse(batch["url"], ncd))})

    def tag_removals(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "url": pc.cast(batch["url"], pa.string()),
            "host": pa.array([None] * n, pa.string()),
            "line_idx": batch["line_idx"],
            "text": pa.array([None] * n, pa.string()),
            "dcoarse": pc.cast(batch["dcoarse"], pa.int32())})

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        docs = df[df["line_idx"] < 0]
        rem = df[df["line_idx"] >= 0]
        rem_by_url = ({u: frozenset(g.to_numpy(np.int64).tolist())
                       for u, g in rem.groupby("url", sort=False)
                       ["line_idx"]} if len(rem) else {})
        urls, hosts, nl, nr, ct = [], [], [], [], []
        for u, h, t in zip(docs["url"], docs["host"], docs["text"]):
            parts = (t or "").split("\n")
            rset = rem_by_url.get(u, frozenset())
            urls.append(u)
            hosts.append(h)
            nl.append(len(parts))
            nr.append(len(rset))
            ct.append("\n".join(
                ln for i, ln in enumerate(parts) if i not in rset))
        return pd.DataFrame({
            "url": urls, "host": hosts,
            "n_lines": np.array(nl, np.int64),
            "n_removed": np.array(nr, np.int64),
            "clean_text": ct})

    docs = pages_ds.map_batches(html_docs, batch_format="pyarrow")
    removals = (docs.map_batches(elig_lines, batch_format="pyarrow")
                .groupby("coarse")
                .map_groups(resolve, batch_format="pandas")
                .map_batches(tag_removals, batch_format="pyarrow"))
    out = (docs.map_batches(doc_rows, batch_format="pyarrow")
           .union(removals)
           .groupby("dcoarse")
           .map_groups(reassemble, batch_format="pandas"))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({c: pc.cast(batch[c], t)
                         for c, t in out_types.items()})

    out = out.map_batches(finish, batch_format="pyarrow")
    return nonempty_or_typed_table(out, out_types)


# --------------------------------------- pointer-chain (redirect) resolve

MAX_JUMP_ROUNDS = 64  # 2^64-long chains would exceed any id space anyway


def resolve_pointer_chains(ptr_ds, n_coarse: "int | None" = None,
                           max_rounds: int = MAX_JUMP_ROUNDS):
    """Resolve every pointer chain ``id → ptr → … → terminal`` to its
    terminal node by POINTER DOUBLING (pointer jumping, Wyllie 1979 — the
    classic O(log L) parallel list-ranking technique): each round, every
    row's pointer jumps to its pointer's pointer via one co-partitioned
    ``hash_join`` of the table with itself, and accumulated hop counts
    add. A chain of length L resolves in ⌈log2 L⌉ rounds — redirect
    canonicalization over a 100 TB crawl is ~6 join rounds of 24 B/row
    (id, ptr, hops) exchanges, never a per-hop sequential walk.

    Input rows: ``(id, ptr, hops)`` with TERMINAL nodes encoded as
    self-loops (``ptr == id``, ``hops == 0``) and non-terminals carrying
    ``hops = 1`` to their immediate target. Every ``ptr`` value must
    exist as an ``id`` (the self-loop closure makes the per-round inner
    join total). Ids must be non-negative (stages/joins sentinel).

    Convergence is a distributed sum over a per-row ``changed`` flag:
    jumping is monotone (once a row points at a terminal it never moves
    again — the terminal's self-loop contributes hops 0), so
    changed == 0 ⇔ every row points at its chain's terminal. Each round
    materializes the (id, ptr, hops) table — proportional to the node
    set, never the corpus payloads.

    Closure is ASSERTED, not assumed: the per-round inner join drops any
    row whose ``ptr`` has no matching ``id`` (and would duplicate rows if
    ids repeated), so each round checks the joined row count against the
    input row count — metadata-only on a materialized dataset — and
    raises instead of silently losing walkers on a malformed pointer
    table.

    Returns a Dataset (id, final_id, n_hops)."""
    from .joins import hash_join

    cur = ptr_ds.materialize()
    n_rows = cur.count()

    def as_right(batch: pa.Table) -> pa.Table:
        return pa.table({"jid": batch["id"], "nptr": batch["ptr"],
                         "nhops": batch["hops"]})

    for _ in range(max_rounds):
        right = cur.map_batches(as_right, batch_format="pyarrow")
        joined = hash_join(cur, right, "ptr", "jid", how="inner",
                           n_coarse=n_coarse)

        def jump(batch: pa.Table) -> pa.Table:
            old = batch["ptr"].to_numpy(zero_copy_only=False)
            new = batch["nptr"].to_numpy(zero_copy_only=False)
            return pa.table({
                "id": batch["id"],
                "ptr": batch["nptr"],
                "hops": pc.add(batch["hops"], batch["nhops"]),
                "changed": pa.array((old != new).astype(np.int64))})

        # one materialization per round; the changed flag rides along and
        # is simply not read by the next round's join inputs. The join's
        # keyed exchange emits at most n_coarse blocks, so the block
        # count stays bounded round over round.
        nxt = joined.map_batches(jump, batch_format="pyarrow").materialize()
        if nxt.count() != n_rows:
            raise ValueError(
                "pointer table is not closed: round joined "
                f"{nxt.count()} rows from {n_rows} inputs (every ptr "
                "must exist as an id, ids must be unique; terminals "
                "are self-loops)")
        changed = nxt.sum("changed") or 0
        cur = nxt
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"pointer chains unresolved after {max_rounds} doubling rounds")

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch["id"], "final_id": batch["ptr"],
                         "n_hops": batch["hops"]})

    return cur.map_batches(final, batch_format="pyarrow")
