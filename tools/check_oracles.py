"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf tier and diff against oracle_sql() via DuckDB
(row count + column names + order-insensitive value comparison).

Usage: python tools/check_oracles.py [--num-cpus N] [sf_dir] [query ...]

``--num-cpus`` sizes the Ray session this script starts (default 8), e.g. 1
to time queries on one CPU slot; a session that is already running is
reused as it is.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def compare(name: str, ours: pd.DataFrame, theirs: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ours.columns) != sorted(theirs.columns):
        problems.append(f"schema: ours={sorted(ours.columns)} oracle={sorted(theirs.columns)}")
        return problems
    if len(ours) != len(theirs):
        problems.append(f"rows: ours={len(ours)} oracle={len(theirs)}")
        return problems
    a, b = canon(ours), canon(theirs)
    for col in a.columns:
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        # int-on-one-side / float-on-the-other is the transit-widening
        # signature (Ray's sort shuffle turns nullable int64 into double;
        # see stages/joins.py) — fail LOUDLY instead of letting the float
        # cast below hide it from the value comparison
        kinds = {av.dtype.kind, bv.dtype.kind}
        if "f" in kinds and kinds & {"i", "u"}:
            side = "engine" if av.dtype.kind == "f" else "oracle"
            problems.append(
                f"col {col}: dtype mismatch ours={av.dtype} "
                f"oracle={bv.dtype} ({side} side is float — transit "
                "widening?)")
            continue
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            av = av.astype(np.float64)
            bv = bv.astype(np.float64)
            neq = ~((av == bv) | (np.isnan(av) & np.isnan(bv)))
            if neq.any():
                worst = np.nanmax(np.abs(av - bv))
                problems.append(f"col {col}: {neq.sum()} value diffs (max abs {worst:.3e}); bit-exact required")
        else:
            if not (pd.Series(av).fillna("\0") == pd.Series(bv).fillna("\0")).all():
                n = (pd.Series(av).fillna("\0") != pd.Series(bv).fillna("\0")).sum()
                problems.append(f"col {col}: {n} value diffs")
    return problems


def pop_num_cpus(argv: list[str]) -> int:
    """Remove ``--num-cpus N`` / ``--num-cpus=N`` from argv and return N
    (8 when absent). Every other argument stays where it is, so an unknown
    ``--flag`` is a query selector and is reported like a typo'd name."""
    num_cpus = 8
    i = 0
    while i < len(argv):
        if argv[i] == "--num-cpus":
            value = argv[i + 1] if i + 1 < len(argv) else ""
            del argv[i:i + 2]
        elif argv[i].startswith("--num-cpus="):
            value = argv.pop(i).split("=", 1)[1]
        else:
            i += 1
            continue
        if not value.isdigit() or int(value) < 1:
            sys.exit(f"--num-cpus takes a positive integer, got {value!r}")
        num_cpus = int(value)
    return num_cpus


def main():
    num_cpus = pop_num_cpus(sys.argv)
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # oracle_sql() derives tier-dependent constants (ANN query dim, pages-
    # corpus glob) from this env var — pin it to the tier under check
    os.environ["GRAFT_SF_DIR"] = sf_dir

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    unknown = only - set(qs)
    if unknown:   # a typo'd (or flag-like) selector silently checks nothing
        print(f"WARN: not in queries(): {sorted(unknown)}")
    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_bad += 1
            continue
        dt = time.time() - t0
        if name in oracles:
            theirs = con.sql(oracles[name]).df()
            problems = compare(name, ours, theirs)
            if problems:
                n_bad += 1
                print(f"FAIL {name} ({dt:.1f}s, {len(ours)} rows):")
                for p in problems:
                    print(f"   - {p}")
            else:
                n_ok += 1
                print(f"OK   {name} ({dt:.1f}s, {len(ours)} rows, oracle match)")
        else:
            status = "rows-only"
            if len(ours) == 0 and name not in ():
                status += " (EMPTY!)"
            n_ok += 1
            print(f"OK   {name} ({dt:.1f}s, {len(ours)} rows, {status})")
    print(f"\n{n_ok} ok, {n_bad} failed")
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


if __name__ == "__main__":
    main()
