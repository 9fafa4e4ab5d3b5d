"""stages/exchange.range_prefix through its callers: ``pack_sequences``,
``global_shuffle_order`` and ``global_value_rank`` give the same frames,
dtypes included, as their pandas forms in ``range_oracles`` — over sparse
ids whose range buckets share coarse groups, zero weights, tied values,
several input blocks, and an empty input that keeps its schema."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import range_oracles
from mobile_ocr_api_ray.stages import text_analysis

# sparse ids up to 1e5 over widths down to 1: far more than 256 range
# buckets, so many of them meet in one coarse group
_ids = st.lists(st.integers(0, 100_000), min_size=1, max_size=60,
                unique=True)
_width = st.one_of(st.integers(1, 4), st.integers(1, 1000))
# buckets 0, 256 and 512 of width 1 share coarse group 0
_SHARED = [512, 0, 257, 256, 1, 513]
_blocks = st.integers(1, 7)


def _ds(cols: dict, blocks: int):
    """``cols`` cut into ``blocks`` row slices, one block each (some may
    be empty)."""
    import ray.data
    t = pa.table(cols)
    cuts = np.linspace(0, t.num_rows, blocks + 1).astype(int)
    return ray.data.from_arrow([t.slice(a, b - a)
                                for a, b in zip(cuts[:-1], cuts[1:])])


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("doc_id").reset_index(drop=True)


class TestAgainstPandasForms:
    @given(_ids, st.lists(st.integers(0, 9), min_size=60, max_size=60),
           st.integers(1, 16), _width, _blocks)
    @example(_SHARED, [3, 0, 5, 2, 4, 1] * 10, 4, 1, 2)
    @settings(max_examples=7, deadline=None)
    def test_pack_sequences(self, ray_session, ids, counts, budget, width,
                            blocks):
        # zero-token documents (empty or null text) are zero weights
        texts = [None if c == 0 and i % 2 else " ".join(["w"] * c)
                 for i, c in zip(ids, counts)]
        out = text_analysis.pack_sequences(
            _ds({"doc_id": pa.array(ids, pa.int64()),
                 "text": pa.array(texts, pa.string())}, blocks),
            budget=budget, range_width=width)
        pd.testing.assert_frame_equal(_sorted(out.to_pandas()), _sorted(
            range_oracles.pack_sequences(ids, texts, budget, width)))

    @given(_ids, st.sampled_from(["s0", "s1"]), st.integers(1, 8),
           st.sampled_from([1, 7, 256]), _blocks)
    @settings(max_examples=7, deadline=None)
    def test_global_shuffle_order(self, ray_session, ids, seed, n_shards,
                                  n_buckets, blocks):
        out = text_analysis.global_shuffle_order(
            _ds({"doc_id": pa.array(ids, pa.int64())}, blocks), seed=seed,
            n_shards=n_shards, n_buckets=n_buckets)
        pd.testing.assert_frame_equal(_sorted(out.to_pandas()), _sorted(
            range_oracles.global_shuffle_order(ids, seed, n_shards,
                                               n_buckets)))

    # a small value pool forces ties, which break by id; nulls rank as 0
    @given(_ids, st.lists(st.one_of(st.none(), st.integers(0, 5),
                                    st.integers(0, 100_000)),
                          min_size=60, max_size=60), _width, _blocks)
    @example(_SHARED, [256, 0, None, 512, 256, 0] * 10, 1, 3)
    @settings(max_examples=7, deadline=None)
    def test_global_value_rank(self, ray_session, ids, values, width,
                               blocks):
        values = values[:len(ids)]
        out = text_analysis.global_value_rank(
            _ds({"doc_id": pa.array(ids, pa.int64()),
                 "n_chars": pa.array(values, pa.int64())}, blocks),
            "n_chars", range_width=width)
        pd.testing.assert_frame_equal(_sorted(out.to_pandas()), _sorted(
            range_oracles.global_value_rank(ids, values, width)))


@pytest.mark.parametrize("run, names", [
    (lambda ds: text_analysis.pack_sequences(ds, budget=8),
     ["doc_id", "n_tokens", "start_offset", "seq_id", "offset_in_seq",
      "spans_boundary"]),
    (lambda ds: text_analysis.global_shuffle_order(ds),
     ["doc_id", "shuffle_hash", "shuffle_rank", "shard"]),
    (lambda ds: text_analysis.global_value_rank(ds, "n_chars"),
     ["doc_id", "value", "rank_idx", "percentile_micro"]),
])
def test_empty_input_keeps_schema(ray_session, run, names):
    out = run(_ds({"doc_id": pa.array([], pa.int64()),
                   "text": pa.array([], pa.string()),
                   "n_chars": pa.array([], pa.int64())}, 1))
    assert out.schema().names == names
    assert out.count() == 0
